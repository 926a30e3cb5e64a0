import math

import numpy as np
import pytest

from rieszseq import spectral, torus
from rieszseq.errors import InputError

HALF = torus.normalize([(0.0, 0.5)])
FULL = torus.normalize([(0.0, 1.0)])

# closed-form 2x2 eigenvalues d +- |z| for the half circle with L = {0, 1}
LOWER_01 = 0.5 - 1.0 / math.pi   # 0.1816901138162093
UPPER_01 = 0.5 + 1.0 / math.pi   # 0.8183098861837907


def random_set(rng, max_arcs=3):
    n = rng.randint(1, max_arcs + 1)
    pts = np.sort(rng.uniform(0.0, 1.0, 2 * n))
    while np.min(np.diff(pts)) < 1e-6:
        pts = np.sort(rng.uniform(0.0, 1.0, 2 * n))
    return torus.normalize(list(zip(pts[0::2], pts[1::2])))


def random_freqs(rng, max_size=30, span=200):
    size = rng.randint(2, max_size + 1)
    vals = rng.choice(np.arange(-span, span + 1), size=size, replace=False)
    return spectral.frequency_set(vals.tolist())


# --- frequency sets ----------------------------------------------------------

def test_frequency_set_validation():
    assert spectral.frequency_set([3, -1, 3, 7]).freqs == (-1, 3, 7)
    with pytest.raises(ValueError):
        spectral.FrequencySet(())
    with pytest.raises(ValueError):
        spectral.FrequencySet((2, 2))


def test_arithmetic_progression():
    ap = spectral.arithmetic_progression(5, 3, 4)
    assert ap.freqs == (8, 11, 14, 17)
    with pytest.raises(ValueError):
        spectral.arithmetic_progression(0, 0, 4)


@pytest.mark.parametrize("shift,step,length", [
    (0, 1, 2 ** 62),               # the last element is 2^62; building it would not end
    (2 ** 62 - 2, 1, 2),
    (-(2 ** 62) - 1, 1, 10 ** 18),  # the first element is -2^62
    (np.int64(0), np.int64(2 ** 61), np.int64(4)),  # numpy ints do not wrap
])
def test_arithmetic_progression_checks_range_first(shift, step, length):
    with pytest.raises(ValueError, match=r"\|f\| < 2\^62"):
        spectral.arithmetic_progression(shift, step, length)


def test_arithmetic_progression_bounds_length():
    limit = spectral.AP_LENGTH_LIMIT
    assert len(spectral.arithmetic_progression(-5, 3, limit)) == limit
    with pytest.raises(ValueError, match=f"^progression length must be at most {limit}, got {limit + 1}$"):
        spectral.arithmetic_progression(-5, 3, limit + 1)


# --- gram ---------------------------------------------------------------------

def test_gram_full_circle_is_identity():
    g = spectral.gram(FULL, spectral.frequency_set([3, 7, 20]))
    assert np.array_equal(g.entries, np.eye(3, dtype=complex))


def test_gram_half_circle_two_by_two():
    g = spectral.gram(HALF, spectral.frequency_set([0, 1]))
    assert g.entries[0, 0] == 0.5 and g.entries[1, 1] == 0.5
    assert abs(g.entries[0, 1]) == pytest.approx(1.0 / math.pi, abs=1e-15)
    assert g.entries[1, 0] == g.entries[0, 1].conjugate()


@pytest.mark.parametrize("freqs", [[5], [-9, -4, 0, 3, 11, 12], [-(2 ** 61), 7, 2 ** 40 + 3, 2 ** 61]])
def test_gram_equals_per_entry_coefficients_bitwise(freqs):
    # the one-lookup assembly must equal G[j][k] = c_hat(l_k - l_j) evaluated entry by entry
    s = torus.normalize([(0.05, 0.17), (0.33, 0.41), (0.6, 0.78)])
    want = np.array([[torus.fourier_coeff_many(s, [k - j])[0] for k in freqs] for j in freqs])
    assert spectral.gram(s, spectral.frequency_set(freqs)).entries.tobytes() == want.tobytes()


def test_gram_translation_invariance(rng=np.random.RandomState(21)):
    for _ in range(20):
        s = random_set(rng)
        f = random_freqs(rng, max_size=10)
        shift = int(rng.randint(-10 ** 6, 10 ** 6 + 1))
        g0 = spectral.gram(s, f)
        g1 = spectral.gram(s, spectral.frequency_set([v + shift for v in f.freqs]))
        assert np.array_equal(g0.entries, g1.entries)


def test_gram_rejects_empty_set():
    with pytest.raises(InputError, match="positive measure"):
        spectral.gram(torus.complement(FULL), spectral.frequency_set([1]))


# --- eigenvalues and the riesz report -----------------------------------------

def test_extreme_eigs_identity():
    g = spectral.gram(FULL, spectral.frequency_set([1, 2, 3, 4, 5]))
    assert spectral.extreme_eigs(g) == (1.0, 1.0)


def test_extreme_eigs_two_by_two_closed_form():
    g = spectral.gram(HALF, spectral.frequency_set([0, 1]))
    lo, hi = spectral.extreme_eigs(g)
    assert lo == pytest.approx(LOWER_01, abs=1e-12)
    assert hi == pytest.approx(UPPER_01, abs=1e-12)


def test_riesz_report_examples():
    rep = spectral.riesz_report(FULL, spectral.frequency_set([2, 5, 11]))
    assert rep.lower == rep.upper == 1.0
    assert rep.offdiag_energy == 0.0

    rep = spectral.riesz_report(HALF, spectral.frequency_set([0, 1]))
    assert rep.lower == pytest.approx(LOWER_01, abs=1e-12)
    assert rep.cs_lower == pytest.approx(0.5 - math.sqrt(2) / math.pi, abs=1e-12)
    assert rep.lower == pytest.approx(rep.cs_lower + (math.sqrt(2) - 1) / math.pi, abs=1e-12)

    rep = spectral.riesz_report(HALF, spectral.frequency_set([0, 2]))
    assert rep.lower == pytest.approx(0.5, abs=1e-15)  # c_hat(2) vanishes
    assert rep.upper == pytest.approx(0.5, abs=1e-15)


def test_cs_lower_bound_examples():
    assert spectral.riesz_report(FULL, spectral.frequency_set([1, 4, 9])).cs_lower == 1.0
    got = spectral.riesz_report(HALF, spectral.frequency_set([0, 1])).cs_lower
    assert got == pytest.approx(0.5 - math.sqrt(2) / math.pi, abs=1e-12)
    assert spectral.riesz_report(HALF, spectral.frequency_set([42])).cs_lower == 0.5


def test_random_instance_invariants(rng=np.random.RandomState(22)):
    """PSD, sandwich, the Cauchy-Schwarz floor, and interlacing."""
    for _ in range(60):
        s = random_set(rng)
        f = random_freqs(rng, max_size=12)
        g = spectral.gram(s, f)
        lo, hi = spectral.extreme_eigs(g)
        assert lo >= -1e-9
        assert lo <= s.measure + 1e-9 and s.measure <= hi + 1e-9
        assert lo >= s.measure - math.sqrt(spectral.offdiag_energy(g)) - 1e-9
        # interlacing: adding a frequency cannot raise lambda_min
        extra = int(rng.randint(500, 1000))
        bigger = spectral.frequency_set(list(f.freqs) + [extra])
        lo2, _ = spectral.extreme_eigs(spectral.gram(s, bigger))
        assert lo2 <= lo + 1e-9
        # min-max: any Rayleigh quotient lies between the extremes
        q = spectral.rayleigh(g, np.ones(len(f)))
        assert lo - 1e-9 <= q <= hi + 1e-9


# --- rayleigh ------------------------------------------------------------------

def test_rayleigh_identity_and_eigvec():
    g = spectral.gram(FULL, spectral.frequency_set([1, 2, 3]))
    assert spectral.rayleigh(g, np.array([1.0, 2.0, 3.0])) == pytest.approx(1.0)

    g = spectral.gram(HALF, spectral.frequency_set([0, 1]))
    w, v = np.linalg.eigh(g.entries)
    assert spectral.rayleigh(g, v[:, 0]) == pytest.approx(w[0], abs=1e-9)
    num = complex(np.vdot(v[:, 0], g.entries @ v[:, 0]))
    assert abs(num.imag) < 1e-12

    with pytest.raises(InputError, match="does not match size"):
        spectral.rayleigh(g, np.ones(3))
    with pytest.raises(ValueError):
        spectral.rayleigh(g, np.zeros(2))


def test_rayleigh_uniform_matches_toeplitz_shortcut():
    outside = torus.complement(torus.normalize([(-0.1, 0.1)]))
    n = 48
    g = spectral.gram(outside, spectral.arithmetic_progression(0, 1, n))
    direct = spectral.rayleigh(g, np.ones(n))
    assert abs(direct - spectral.dirichlet_tail(n, 0.1)) < 1e-12
    assert abs(direct - spectral.uniform_rayleigh_ap(outside, 1, n)) < 1e-12


def test_uniform_rayleigh_ap_longdouble_oracle():
    # Toeplitz energy of {1..N} on the adversarial set, recomputed term by term in
    # extended precision; the float64 pairwise sums must stay within rel 1e-10
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("np.longdouble is not wider than float64 here")
    from rieszseq import constructions

    s = constructions.build_adversarial_set(0.25, 64)
    n = 4096
    starts, ends = s.arcs.T
    x = np.concatenate([starts, ends]).astype(np.longdouble)
    w = np.concatenate([-np.ones_like(starts), np.ones_like(ends)]).astype(np.longdouble)
    two_pi = 2 * np.longdouble("3.14159265358979323846264338327950288")
    total = np.longdouble(0)
    for lo in range(1, n, 256):
        d = np.arange(lo, min(n, lo + 256), dtype=np.longdouble)
        phase = np.mod(d[:, None] * x[None, :], np.longdouble(1))
        re = (w * np.sin(two_pi * phase)).sum(axis=1) / (two_pi * d)
        total += ((n - d) * re).sum()
    want = np.longdouble(s.measure) + 2 * total / n
    got = spectral.uniform_rayleigh_ap(s, 1, n)
    assert float(abs(got - want) / want) <= 1e-10


def test_uniform_rayleigh_ap_many_prefix_rows_match_oracle():
    # a row read from the prefix of a longer table is split with that table's
    # width, so its last bits may move; it must stay within rel 1e-10 of an
    # extended-precision oracle and of the one-length value
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("np.longdouble is not wider than float64 here")
    from rieszseq import constructions

    s = constructions.build_adversarial_set(0.25, 128)
    starts, ends = s.arcs.T
    x = np.concatenate([starts, ends]).astype(np.longdouble)
    w = np.concatenate([-np.ones_like(starts), np.ones_like(ends)]).astype(np.longdouble)
    two_pi = 2 * np.longdouble("3.14159265358979323846264338327950288")
    for step, n in ((2, 1024), (8, 256)):
        got, _ = spectral.uniform_rayleigh_ap_many(s, step, [n, 16384])
        total = np.longdouble(0)
        for lo in range(1, n, 64):
            d = np.arange(lo, min(n, lo + 64), dtype=np.longdouble) * step
            phase = np.mod(d[:, None] * x[None, :], np.longdouble(1))
            re = (w * np.sin(two_pi * phase)).sum(axis=1) / (two_pi * d)
            total += ((n - d / step) * re).sum()
        want = np.longdouble(s.measure) + 2 * total / n
        assert float(abs(got - want) / want) <= 1e-10
        single = spectral.uniform_rayleigh_ap(s, step, n)
        assert abs(got - single) <= 1e-10 * single


def test_uniform_rayleigh_ap_many_checks_lengths():
    for lengths in ([], [0, 4], [4, spectral.RAYLEIGH_LENGTH_LIMIT + 1]):
        with pytest.raises(ValueError):
            spectral.uniform_rayleigh_ap_many(HALF, 1, lengths)
    with pytest.raises(ValueError):
        spectral.dirichlet_tail_many([], 0.1)


# --- cross-block perturbation ----------------------------------------------------

def test_cross_block_perturbation_bound(rng=np.random.RandomState(23)):
    """lambda_min of the union dips below the blockwise minimum by at most the
    Frobenius norm of the cross block between the two frequency sets."""
    for _ in range(40):
        s = random_set(rng)
        all_freqs = rng.choice(np.arange(-60, 61), size=12, replace=False)
        f1 = spectral.frequency_set(all_freqs[:6].tolist())
        f2 = spectral.frequency_set(all_freqs[6:].tolist())
        lo1, _ = spectral.extreme_eigs(spectral.gram(s, f1))
        lo2, _ = spectral.extreme_eigs(spectral.gram(s, f2))
        union = spectral.frequency_set(all_freqs.tolist())
        g = spectral.gram(s, union)
        in1 = np.isin(union.array(), f1.array())
        cross = np.linalg.norm(g.entries[np.ix_(in1, ~in1)])
        lo, _ = spectral.extreme_eigs(g)
        assert lo >= min(lo1, lo2) - cross - 1e-9


# --- dirichlet tail --------------------------------------------------------------

def test_dirichlet_tail_single_term():
    for delta in (0.01, 0.2, 0.45):
        assert spectral.dirichlet_tail(1, delta) == pytest.approx(1 - 2 * delta, abs=1e-12)


def test_dirichlet_tail_near_half_width():
    assert spectral.dirichlet_tail(100, 0.499) < 1e-2
    assert spectral.dirichlet_tail(128, 0.499) < 1e-2


def test_dirichlet_tail_bound_grid():
    """Closed-form majorant holds everywhere; halving kicks in once N*delta >= 1/4.

    Below that the deleted arc is narrower than the kernel's main lobe, so the
    tail is still O(1) and the doubling ratio approaches 1 (the blanket 0.75
    claim fails at those corners; see the analysis notes).
    """
    deltas = [0.001, 0.003, 0.01, 0.03, 0.1]
    lengths = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
    for delta in deltas:
        for n in lengths:
            tail = spectral.dirichlet_tail(n, delta)
            assert tail <= spectral.dirichlet_tail_bound(n, delta) + 1e-9
            if n * delta >= 0.25:
                ratio = spectral.dirichlet_tail(2 * n, delta) / tail
                assert ratio <= 0.75
