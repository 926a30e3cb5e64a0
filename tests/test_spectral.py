import ctypes.util
import math

import numpy as np
import pytest

from rieszseq import constructions, spectral, torus
from rieszseq.errors import InputError, SearchFailed

HALF = torus.normalize([(0.0, 0.5)])
FULL = torus.normalize([(0.0, 1.0)])
ARC03 = torus.normalize([(0.0, 0.3)])

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
    f = spectral.frequency_set([3, -1, 3, 7])
    assert f.dtype == np.int64 and f.tolist() == [-1, 3, 7]
    with pytest.raises(ValueError, match="^frequency set must be nonempty$"):
        spectral.frequency_set([])
    # the range is checked on the exact integers, before the int64 conversion
    with pytest.raises(ValueError, match=r"\|f\| < 2\^62"):
        spectral.frequency_set([-(2 ** 70), 0])


@pytest.mark.parametrize("freqs, message", [
    (np.array([], dtype=np.int64), "^frequency set must be nonempty$"),
    (np.array([3, 3]), "^frequencies must be strictly increasing$"),
    (np.array([5, 3], dtype=np.uint64), "^frequencies must be strictly increasing$"),
    (np.array([1.0, 1.5]), "^frequencies must be a 1-D integer array, got 1-D float64$"),
    (np.array([False, True]), "^frequencies must be a 1-D integer array, got 1-D bool$"),
    (np.array([[1, 2], [3, 4]]), "^frequencies must be a 1-D integer array, got 2-D int64$"),
    (np.array([2 ** 62]), r"\|f\| < 2\^62"),
])
def test_gram_checks_the_array_it_builds_from(freqs, message):
    # each would otherwise be built from, silently: 1.5 truncated to 1, a repeat
    # giving a singular Gram, False and True read as 0 and 1
    with pytest.raises(ValueError, match=message):
        spectral.gram(ARC03, freqs)
    with pytest.raises(ValueError, match=message):
        spectral.riesz_report(ARC03, freqs)


def test_frequency_set_bounds_its_size():
    # gram checks the size of every set it builds from, so no Gram takes more than 1 GiB
    limit = spectral.GRAM_SIZE_LIMIT
    assert 16 * limit ** 2 == 2 ** 30
    assert spectral.frequency_set(range(limit)).size == limit
    message = f"^frequency set must have at most {limit} frequencies, got {limit + 1}$"
    with pytest.raises(ValueError, match=message):
        spectral.frequency_set(range(limit + 1))
    with pytest.raises(ValueError, match=message):
        spectral.gram(ARC03, np.arange(limit + 1))
    with pytest.raises(ValueError, match="at most"):
        spectral.frequency_set(range(10 ** 5))


def test_arithmetic_progression():
    ap = spectral.arithmetic_progression(5, 3, 4)
    assert ap.dtype == np.int64 and ap.tolist() == [8, 11, 14, 17]
    with pytest.raises(ValueError):
        spectral.arithmetic_progression(0, 0, 4)
    # one element in range, though its step is past int64
    assert spectral.arithmetic_progression(-(2 ** 70), 2 ** 70 + 1, 1).tolist() == [1]


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
    limit = spectral.GRAM_SIZE_LIMIT
    assert len(spectral.arithmetic_progression(-5, 3, limit)) == limit
    with pytest.raises(ValueError, match=f"^progression length must be at most {limit}, got {limit + 1}$"):
        spectral.arithmetic_progression(-5, 3, limit + 1)


# --- gram ---------------------------------------------------------------------

def test_gram_and_offdiag_energy_match_the_dense_formulas(rng=np.random.RandomState(29)):
    # gram conjugates in place and offdiag_energy squares |G| in place; both give,
    # bit for bit, the entries and the energy of the whole-matrix formulas
    for _ in range(20):
        s, f = random_set(rng), random_freqs(rng, max_size=60, span=500)
        diff = f[None, :] - f[:, None]
        ks = np.abs(diff).ravel()
        coeff = np.where(diff == 0, s.measure, torus.fourier_coeff_many(s, ks).reshape(diff.shape))
        g = spectral.gram(s, f)
        assert np.array_equal(g.entries, np.where(diff >= 0, coeff, np.conj(coeff)))
        off = g.entries.copy()
        np.fill_diagonal(off, 0.0)
        assert spectral.offdiag_energy(g) == float(np.sum(np.abs(off) ** 2))


def whole_matrix_gram(s, f):
    """gram's entries by one np.unique over every |l_k - l_j| of the m x m matrix,
    conjugated where l_k < l_j."""
    diff = f[None, :] - f[:, None]
    ks, where = np.unique(np.abs(diff), return_inverse=True)
    vals = np.concatenate(([s.measure], torus.fourier_coeff_many(s, ks[1:])))
    entries = vals[where.reshape(diff.shape)]
    np.conjugate(entries, out=entries, where=diff < 0)
    return entries


def test_gram_over_the_upper_triangle_equals_the_whole_matrix_lookup_bitwise(
        rng=np.random.RandomState(31)):
    # gram evaluates the strict upper triangle and mirrors it; sign bits of zeros included
    for case in range(24):
        s = random_set(rng)
        if case % 2:
            f = random_freqs(rng, max_size=80, span=400)
        else:
            f = spectral.arithmetic_progression(int(rng.randint(-50, 50)), int(rng.randint(1, 30)),
                                                int(rng.randint(1, 80)))
        assert spectral.gram(s, f).entries.tobytes() == whole_matrix_gram(s, f).tobytes()
    half = spectral.arithmetic_progression(0, 2, 9)  # c_hat(2k) = 0 on the half circle
    assert spectral.gram(HALF, half).entries.tobytes() == whole_matrix_gram(HALF, half).tobytes()


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
        g1 = spectral.gram(s, f + shift)
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
        bigger = np.append(f, extra)
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
    assert abs(direct - spectral.dirichlet_tail_many([n], 0.1)[0]) < 1e-12
    assert abs(direct - spectral.uniform_rayleigh_ap_many(outside, 1, [n])[0]) < 1e-12


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
    got = spectral.uniform_rayleigh_ap_many(s, 1, [n])[0]
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
        single = spectral.uniform_rayleigh_ap_many(s, step, [n])[0]
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
        in1 = np.isin(union, f1)
        cross = np.linalg.norm(g.entries[np.ix_(in1, ~in1)])
        lo, _ = spectral.extreme_eigs(g)
        assert lo >= min(lo1, lo2) - cross - 1e-9


# --- dirichlet tail --------------------------------------------------------------

def test_dirichlet_tail_single_term():
    for delta in (0.01, 0.2, 0.45):
        assert spectral.dirichlet_tail_many([1], delta)[0] == pytest.approx(1 - 2 * delta, abs=1e-12)


@pytest.mark.parametrize("delta", [0.001, 0.1, 0.37])
def test_dirichlet_tail_closed_form_matches_the_kernel_on_the_complement_arc(delta):
    # the tails read Re c_hat(d) = -sin(2 pi d delta) / (pi d) of the complement
    # arc directly; the kernel on that arc as a set gives the same quotients
    outside = torus.complement(torus.normalize([(-delta, delta)]))
    lengths = [1, 2, 255, 1024, 65536]
    got = spectral.dirichlet_tail_many(lengths, delta)
    want = spectral.uniform_rayleigh_ap_many(outside, 1, lengths)
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-13


def test_dirichlet_tail_near_half_width():
    assert spectral.dirichlet_tail_many([100], 0.499)[0] < 1e-2
    assert spectral.dirichlet_tail_many([128], 0.499)[0] < 1e-2


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
            tail = spectral.dirichlet_tail_many([n], delta)[0]
            assert tail <= spectral.dirichlet_tail_bound(n, delta) + 1e-9
            if n * delta >= 0.25:
                ratio = spectral.dirichlet_tail_many([2 * n], delta)[0] / tail
                assert ratio <= 0.75


# --- one BLAS thread for the constructions ----------------------------------------

needs_setter = pytest.mark.skipif(
    torus._blas_thread_setter() is None,
    reason="numpy bundles no OpenBLAS with openblas_set_num_threads_local",
)


def blas_threads(set_threads=torus._set_blas_threads):
    """The calling thread's BLAS thread count."""
    previous = set_threads(1)
    set_threads(previous)
    return previous


@pytest.fixture
def two_blas_threads():
    previous = torus._set_blas_threads(2)
    yield
    torus._set_blas_threads(previous)


@needs_setter
def test_constructions_run_on_one_blas_thread_and_restore_it(two_blas_threads, monkeypatch):
    inside = []
    eigs, cholesky = spectral.extreme_eigs, constructions._cholesky
    monkeypatch.setattr(spectral, "extreme_eigs", lambda g: inside.append(blas_threads()) or eigs(g))
    monkeypatch.setattr(constructions, "_cholesky", lambda a: inside.append(blas_threads()) or cholesky(a))
    calls = {
        "riesz_report": lambda: spectral.riesz_report(ARC03, spectral.frequency_set([1, 4, 9])),
        "build_lambda_thm2": lambda: constructions.build_lambda_thm2(ARC03, 3, n_range=(1, 50)),
        "build_lambda_thm3": lambda: constructions.build_lambda_thm3(ARC03, [1.5], [[16, 17]]),
        "select_shift": lambda: constructions.select_shift(
            ARC03, constructions.build_lambda_thm2(ARC03, 1, n_range=(2, 9)),
            constructions.BlockSpec(3, 3, 0), 0.1),
        "verify_build": lambda: constructions.verify_build(
            ARC03, constructions.build_lambda_thm2(ARC03, 2, n_range=(1, 50))),
    }
    for name, call in calls.items():
        inside.clear()
        call()
        assert inside and set(inside) == {1}, name
        assert blas_threads() == 2, name


@needs_setter
def test_one_blas_thread_is_restored_after_errors(two_blas_threads):
    with pytest.raises(SearchFailed):
        constructions.build_lambda_thm2(ARC03, 5, eps=0.075, n_range=(1, 2))
    assert blas_threads() == 2
    partial = constructions.build_lambda_thm2(ARC03, 1, n_range=(1, 9))
    with pytest.raises(SearchFailed, match="decided by Cholesky"):
        constructions.select_shift(ARC03, partial, constructions.BlockSpec(2, 2, 0), 0.14,
                                   constructions.ScanConfig(start=-5, cap=1))
    assert blas_threads() == 2
    with pytest.raises(InputError):
        spectral.riesz_report(torus.normalize([]), spectral.frequency_set([1, 2]))
    assert blas_threads() == 2
    other = torus.normalize([(0.0, 0.4)])
    with pytest.raises(InputError, match="digest"):
        constructions.verify_build(other, partial)
    assert blas_threads() == 2
    with pytest.raises(RuntimeError):
        with torus._one_blas_thread():
            assert blas_threads() == 1
            raise RuntimeError
    assert blas_threads() == 2


def test_one_blas_thread_is_a_no_op_without_the_library(monkeypatch):
    real = torus._blas_thread_setter()
    before = None if real is None else blas_threads(real)
    freqs = spectral.frequency_set([1, 4, 9])
    expected = spectral.riesz_report(ARC03, freqs)
    monkeypatch.setattr(torus, "_blas_thread_setter", lambda: None)
    assert torus._set_blas_threads(1) is None
    with torus._one_blas_thread():
        if before is not None:
            assert blas_threads(real) == before
    assert spectral.riesz_report(ARC03, freqs) == expected


def test_blas_thread_setter_lookup_falls_back_to_none(monkeypatch):
    lookup = torus._blas_thread_setter.__wrapped__  # the uncached lookup
    monkeypatch.setattr(torus.glob, "glob", lambda pattern: [])
    assert lookup() is None
    monkeypatch.setattr(torus.glob, "glob", lambda pattern: ["/nonexistent/libopenblas.so"])
    assert lookup() is None
    libm = ctypes.util.find_library("m")
    if libm is not None:  # a library without the symbol
        monkeypatch.setattr(torus.glob, "glob", lambda pattern: [libm])
        assert lookup() is None


def test_blas_thread_setter_lookup_finds_a_suffixed_symbol(monkeypatch):
    # older scipy-openblas builds export the setter with a 64-bit-integer suffix only
    class Setter:
        pass

    class Library:
        scipy_openblas_set_num_threads_local64_ = Setter()

    opened = []
    monkeypatch.setattr(torus.glob, "glob", lambda pattern: ["/fake/libscipy_openblas64_.so"])
    monkeypatch.setattr(torus.ctypes, "CDLL", lambda path: opened.append(path) or Library())
    setter = torus._blas_thread_setter.__wrapped__()
    assert setter is Library.scipy_openblas_set_num_threads_local64_
    assert setter.argtypes == [ctypes.c_int] and setter.restype is ctypes.c_int
    assert opened == ["/fake/libscipy_openblas64_.so"]
