import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from rieszseq import constructions, torus
from rieszseq.errors import InputError


def random_three_arc_set(rng):
    pts = np.sort(rng.uniform(0.0, 1.0, 6))
    while np.min(np.diff(pts)) < 1e-6:  # avoid degenerate draws
        pts = np.sort(rng.uniform(0.0, 1.0, 6))
    return torus.normalize([(pts[0], pts[1]), (pts[2], pts[3]), (pts[4], pts[5])])


# --- normalize -------------------------------------------------------------

def test_normalize_identity_case():
    s = torus.normalize([(0.0, 0.3)])
    assert s.arcs.tolist() == [[0.0, 0.3]]
    assert s.measure == pytest.approx(0.3, abs=1e-15)


def test_normalize_wrap_split():
    s = torus.normalize([(0.9, 1.2)])
    flat = s.arcs.ravel().tolist()
    assert flat == pytest.approx([0.0, 0.2, 0.9, 1.0], abs=1e-12)
    assert s.measure == pytest.approx(0.3, abs=1e-12)


def test_normalize_overlap_merge():
    s = torus.normalize([(0.0, 0.2), (0.1, 0.3)])
    assert s.arcs.tolist() == [[0.0, 0.3]]
    assert s.measure == pytest.approx(0.3, abs=1e-15)


def test_normalize_adjacent_merge_and_negative_coords():
    s = torus.normalize([(-0.1, 0.0), (0.0, 0.1)])
    assert s.arcs.tolist() == [[0.0, 0.1], [0.9, 1.0]]


def test_normalize_rejects_bad_input():
    with pytest.raises(InputError, match="no arcs given"):
        torus.normalize([])
    with pytest.raises(InputError, match="reduces to a point"):
        torus.normalize([(0.3, 0.3)])
    with pytest.raises(InputError, match="runs backwards"):
        torus.normalize([(0.5, 0.2)])
    with pytest.raises(InputError, match="longer than the circle"):
        torus.normalize([(0.0, 1.5)])
    with pytest.raises(InputError, match="total raw length 1.6 exceeds"):
        torus.normalize([(0.0, 0.8), (0.1, 0.9)])



@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_normalize_rejects_non_finite_endpoints(bad):
    with pytest.raises(InputError, match="non-finite endpoint"):
        torus.normalize([(0.1, bad)])
    with pytest.raises(InputError, match="non-finite endpoint"):
        torus.normalize([(bad, 1.0)])
    with pytest.raises(InputError, match="non-finite endpoint"):
        torus.normalize([(0.0, 0.2), (bad, bad)])


def test_set_file_shape_is_checked():
    for doc in ([[0.1, 0.2]], {}, {"sets": [[0.1, 0.2]]}, {"arcs": 5}, {"arcs": [0.1, 0.2]},
                {"arcs": [[None, 0.2]]},
                # float() would read [false, true] as the full circle and "0.1" as 0.1
                {"arcs": [[False, True]]}, {"arcs": [["0.1", "0.4"]]}, {"arcs": [[0.1, True]]},
                {"arcs": [[np.False_, 0.5]]}, {"arcs": [[b"0.1", 0.4]]}):
        with pytest.raises(InputError, match='"arcs" list|pairs of numbers|is not a number'):
            torus.from_dict(doc)

# the sort/merge and complement loops that normalize and complement ran before
# the array merge; kept as the bitwise reference for it

def _loop_normalize(raw):
    pieces = []
    for a, b in raw:
        a, b = float(a), float(b)
        length = b - a
        if length >= 1.0:
            pieces.append((0.0, 1.0))
            continue
        s = a - math.floor(a)
        if s >= 1.0:
            s = 0.0
        e = s + length
        if e <= 1.0:
            pieces.append((s, e))
        else:
            pieces.append((s, 1.0))
            if e - 1.0 > 0.0:
                pieces.append((0.0, e - 1.0))
    pieces.sort()
    merged = [list(pieces[0])]
    for s, e in pieces[1:]:
        if s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    return _loop_set(merged)


def _loop_complement(s):
    if len(s.arcs) == 0:
        return _loop_set([(0.0, 1.0)])
    gaps = []
    prev = 0.0
    for start, end in s.arcs.tolist():
        if start > prev:
            gaps.append((prev, start))
        prev = end
    if prev < 1.0:
        gaps.append((prev, 1.0))
    return _loop_set(gaps)


def _loop_set(pairs):
    # built directly, so neither the array nor its measure comes from from_arrays
    arcs = np.array(pairs, dtype=np.float64).reshape(-1, 2)
    return torus.IntervalSet(arcs, math.fsum(e - s for s, e in pairs))


def _bits(s):
    return [(a.hex(), b.hex()) for a, b in s.arcs.tolist()], s.measure.hex()


def _merge_corpus(rng):
    """Raw arc lists with wraps, touching, nested and duplicate arcs, arcs of
    length >= 1, starts barely below an integer (the s >= 1.0 guard), and
    groups of equal starts, some of them at 0 beside a wrap's split piece."""
    corpus = [[(0.0, 1.0)], [(0.3, 1.3)], [(-1e-17, 0.2)], [(-1e-17, 0.2), (0.5, 0.5 + 2e-16)],
              [(0.9, 1.2), (0.1, 0.15)], [(0.2, 0.4), (0.4, 0.6)], [(0.1, 0.5), (0.2, 0.3)],
              [(0.2, 0.3), (0.2, 0.3), (0.2, 0.25)], [(-0.1, 0.0), (0.0, 0.1)],
              [(2.0 - 1e-16, 2.1), (7.95, 8.0)],
              [(0.5, 0.6), (0.5, 0.9), (0.5, 0.7), (0.9, 0.95), (0.95, 0.97), (0.4, 0.5)],
              [(0.95, 1.1), (0.0, 0.05), (1.0, 1.2), (3.0, 3.1), (0.2, 0.3)],
              [(0.25, 0.3), (1.25, 1.5), (-0.75, -0.7), (0.5, 0.6), (0.5, 0.55)]]
    for _ in range(300):
        n = int(rng.randint(1, 12))
        a = rng.uniform(-3.0, 3.0, n) * rng.choice([1e-3, 1.0, 1e3], n)
        b = a + rng.uniform(0.0, 1.0 / n, n)
        raw = list(zip(a.tolist(), b.tolist()))
        k = int(rng.randint(n))
        raw.append((raw[k][1], raw[k][1] + 0.01 / n))   # touches arc k
        raw.append((raw[k][0], raw[k][0] + 1e-3 / n))   # nested in arc k
        corpus.append([p for p in raw if p[1] > p[0]])
    return corpus


def test_array_merge_matches_loop_reference(rng=np.random.RandomState(31)):
    for raw in _merge_corpus(rng):
        s = torus.normalize(raw)
        want = _loop_normalize(raw)
        assert _bits(s) == _bits(want), raw
        assert _bits(torus.complement(s)) == _bits(_loop_complement(want)), raw
        assert _bits(torus.normalize(raw[::-1])) == _bits(want), raw
    full = torus.normalize([(0.0, 1.0)])
    assert _bits(torus.complement(full)) == _bits(_loop_complement(full))
    empty = torus.complement(full)
    assert _bits(torus.complement(empty)) == _bits(_loop_complement(empty))


@pytest.mark.parametrize("epsilon", [0.1, 0.17, 0.25, 0.3])
def test_adversarial_set_matches_loop_reference(epsilon):
    sched = constructions.DeltaSchedule(epsilon)
    for l_max in (1, 2, 5, 48, 64, 96, 256):
        raw = []
        for ell in range(1, l_max + 1):
            half = sched.delta(ell) / ell
            raw.extend((k / ell - half, k / ell + half) for k in range(ell))
        # the arcs ending above 1/2, each with its mirror [1 - b, 1 - a); one
        # running across 1/2 (l_max = 1) becomes [1 - b, b)
        upper = [(a, b) for a, b in _loop_complement(_loop_normalize(raw)).arcs.tolist() if b > 0.5]
        lower = [(1.0 - b, 1.0 - a) for a, b in reversed(upper)]
        if upper[0][0] < 0.5:
            lower[-1] = (lower[-1][0], upper.pop(0)[1])
        want = _loop_set(lower + upper)
        assert _bits(constructions.build_adversarial_set(epsilon, l_max)) == _bits(want)


# --- complement ------------------------------------------------------------

def test_complement_basics():
    s = torus.normalize([(0.0, 0.3)])
    c = torus.complement(s)
    assert c.arcs.tolist() == [[0.3, 1.0]]
    assert c.measure == pytest.approx(0.7, abs=1e-12)

    full = torus.normalize([(0.0, 1.0)])
    assert torus.complement(full).arcs.shape == (0, 2)
    assert torus.complement(full).measure == 0.0

    two = torus.normalize([(0.1, 0.2), (0.5, 0.6)])
    c2 = torus.complement(two)
    assert len(c2.arcs) == 3
    assert c2.measure == pytest.approx(0.8, abs=1e-12)


def test_complement_involution_and_measure(rng=np.random.RandomState(11)):
    for _ in range(40):
        s = random_three_arc_set(rng)
        c = torus.complement(s)
        assert abs(c.measure - (1.0 - s.measure)) < 1e-12
        assert torus.complement(c) == s  # exact round trip of canonical arcs
        for start, end in s.arcs.tolist():  # disjointness: complement misses the interiors
            mid = 0.5 * (start + end)
            assert torus.contains(s, mid) and not torus.contains(c, mid)


# --- scale_periodize -------------------------------------------------------

def test_scale_periodize_base_interval():
    s = torus.scale_periodize(0.1, 1)
    assert s.measure == pytest.approx(0.2, abs=1e-12)
    assert torus.contains(s, 0.05) and torus.contains(s, 0.95)
    assert not torus.contains(s, 0.5)


def test_scale_periodize_four_copies():
    s = torus.scale_periodize(0.05, 4)
    assert s.measure == pytest.approx(0.1, abs=1e-12)
    for center in (0.0, 0.25, 0.5, 0.75):
        assert torus.contains(s, center + 0.01)
        assert torus.contains(s, center - 0.01)
        assert not torus.contains(s, center + 0.05)


def test_scale_periodize_rejects_overlap():
    with pytest.raises(InputError, match="copies would overlap"):
        torus.scale_periodize(0.3, 2)


@pytest.mark.parametrize("delta,ell", [(0.01, 1), (0.04, 5), (0.002, 64), (0.24, 2)])
def test_scale_periodize_measure(delta, ell):
    assert torus.scale_periodize(delta, ell).measure == pytest.approx(2 * delta, abs=1e-12)


# --- contains --------------------------------------------------------------

def test_contains_half_open_convention():
    s = torus.normalize([(0.0, 0.3)])
    assert torus.contains(s, 0.1)
    assert not torus.contains(s, 0.3)
    assert torus.contains(s, 0.0)
    w = torus.normalize([(0.9, 1.2)])
    assert torus.contains(w, 0.95)
    assert torus.contains(w, 1.1)  # mod-1 reduction
    assert not torus.contains(w, 0.25)


# --- fourier coefficients --------------------------------------------------

def test_full_circle_coefficients_are_exact():
    full = torus.normalize([(0.0, 1.0)])
    assert torus.fourier_coeff_many(full, [0])[0] == 1.0
    assert torus.fourier_coeff_many(full, [3])[0] == 0.0


def test_half_circle_coefficients():
    # c_hat(1) = 1/(pi*i): magnitude 1/pi, phase -pi/2; verified against the
    # midpoint quadrature oracle before freezing.
    s = torus.normalize([(0.0, 0.5)])
    c1 = torus.fourier_coeff_many(s, [1])[0]
    assert abs(c1) == pytest.approx(1.0 / math.pi, abs=1e-15)
    assert np.angle(c1) == pytest.approx(-math.pi / 2, abs=1e-15)
    assert abs(c1 - torus.quadrature_coeff(s, 1, 10 ** 5)) < 1e-8
    c2 = torus.fourier_coeff_many(s, [2])[0]
    assert c2 == 0.0
    assert abs(torus.quadrature_coeff(s, 2, 10 ** 5)) < 1e-8


def test_conjugate_symmetry_exact(rng=np.random.RandomState(5)):
    for _ in range(25):
        s = random_three_arc_set(rng)
        for k in rng.randint(1, 65, 4):
            minus, plus = torus.fourier_coeff_many(s, [-int(k), int(k)])
            assert minus == plus.conjugate()


def test_complement_relation(rng=np.random.RandomState(6)):
    for _ in range(25):
        s = random_three_arc_set(rng)
        c = torus.complement(s)
        for k in range(-8, 9):
            want = (1.0 if k == 0 else 0.0) - torus.fourier_coeff_many(s, [k])[0]
            assert abs(torus.fourier_coeff_many(c, [k])[0] - want) < 1e-12


def test_closed_form_vs_quadrature(rng=np.random.RandomState(7)):
    for _ in range(25):
        s = random_three_arc_set(rng)
        for k in [0, 1, -17, 64]:
            assert abs(torus.fourier_coeff_many(s, [k])[0] - torus.quadrature_coeff(s, k, 10 ** 5)) < 1e-8


def test_fourier_coeff_real_ap_matches_closed_form(rng=np.random.RandomState(11)):
    # counts straddle B^2 for several split widths B = isqrt(count) + 1
    counts = [1, 2, 3, 4, 5, 8, 9, 10, 99, 100, 101, 4899, 4900, 4901, 5000]
    for count in counts:
        n = rng.randint(1, 6)
        pts = np.sort(rng.uniform(0.0, 1.0, 2 * n))
        s = torus.normalize(list(zip(pts[0::2], pts[1::2])))
        for step in (1, int(rng.randint(2, 60)), 60):
            want = torus.fourier_coeff_many(s, step * np.arange(1, count + 1)).real
            got = torus.fourier_coeff_real_ap(s, step, count)
            assert got.shape == (count,)
            assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("lmax,step,count,bound", [
    # twice the error of the elementwise pairwise sum the GEMM stage replaced
    # (4.7e-15 at l_max 96, 8.1e-15 at l_max 64)
    pytest.param(96, 1, 4095, 9.4e-15, id="96-9.4e-15"),
    pytest.param(64, 1, 4095, 1.6e-14, id="64-1.6e-14"),
    # twice the error of the direct sin/cos tables (5.23e-15); at step 3 the
    # kernel's angle-sum table rows carry most coefficients
    pytest.param(96, 3, 4095, 1.05e-14, id="96-step3-1.05e-14"),
])
def test_fourier_coeff_real_ap_longdouble_oracle(lmax, step, count, bound):
    # per-coefficient error of the kernel on S_0.25 against a long-double sum
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("np.longdouble is not wider than float64 here")
    split = 128
    s = constructions.build_adversarial_set(0.25, lmax)
    starts, ends = s.arcs.T
    x = np.concatenate([starts, ends]).astype(np.longdouble)
    w = np.concatenate([-np.ones_like(starts), np.ones_like(ends)]).astype(np.longdouble)
    two_pi = 2 * np.longdouble("3.14159265358979323846264338327950288")
    one = np.longdouble(1)
    # the oracle splits d = 128 q + r, not as the kernel's isqrt(count) + 1 = 64
    # with its tables' angle sums at 8 rows, so no table is shared; every phase
    # is exact mod 1, and every sine and product is rounded to long double
    q = np.arange(count // split + 1, dtype=np.longdouble)[:, None] * (split * step)
    r = np.arange(split, dtype=np.longdouble)[:, None] * step
    hi_ph = two_pi * np.mod(q * x, one)
    lo_ph = two_pi * np.mod(r * x, one)
    left = np.concatenate([w * np.sin(hi_ph), w * np.cos(hi_ph)], axis=1)
    right = np.concatenate([np.cos(lo_ph), np.sin(lo_ph)], axis=1).T
    d = np.arange(1, count + 1, dtype=np.longdouble)
    want = (left @ right).ravel()[1 : count + 1] / (two_pi * d * step)
    # on a spread of d, the oracle agrees with the term-by-term sum
    k = d[::31, None] * step
    direct = (np.sin(two_pi * np.mod(k * x, one)) @ w) / (two_pi * k[:, 0])
    assert float(np.max(np.abs(want[::31] - direct))) <= 1e-17
    got = torus.fourier_coeff_real_ap(s, step, count)
    assert float(np.max(np.abs(got - want))) <= bound


def test_folded_endpoints_halve_only_mirrored_sets(rng=np.random.RandomState(12)):
    # S_epsilon is mirror-symmetric bit for bit, so each endpoint pair x, 1 - x
    # folds into one of weight +-2; a set without exact mirror pairs keeps every
    # endpoint, each folded into [0, 1/2] with weight +-1
    for epsilon, lmax in ((0.2, 96), (0.25, 64), (0.1, 5), (0.25, 1)):
        s = constructions.build_adversarial_set(epsilon, lmax)
        x, w = torus._folded_endpoints(s.arcs)
        assert x.size == len(s.arcs) and set(np.abs(w).tolist()) == {2.0}
    assert x.tolist() == [1.0 - s.arcs[0, 1]]
    for _ in range(200):
        pts = np.sort(rng.uniform(0.0, 1.0, 2 * rng.randint(1, 6)))
        s = torus.normalize(list(zip(pts[0::2], pts[1::2])))
        x, w = torus._folded_endpoints(s.arcs)
        assert x.size == s.arcs.size and set(np.abs(w).tolist()) == {1.0}
        assert np.all(np.diff(x) > 0) and 0.0 <= x[0] and x[-1] <= 0.5
        folded = np.where(s.arcs.ravel() > 0.5, 1.0 - s.arcs.ravel(), s.arcs.ravel())
        assert np.array_equal(x, np.sort(folded))


def test_each_set_folds_once(monkeypatch):
    # a set keeps its own folded endpoints, so alternating two sets folds each
    # once; a cache of the last set alone would fold at every call
    folds = []
    fold = torus._folded_endpoints

    def spy(arcs):
        folds.append(len(arcs))
        return fold(arcs)

    monkeypatch.setattr(torus, "_folded_endpoints", spy)
    a = constructions.build_adversarial_set(0.25, 48)
    b = torus.normalize([(0.1, 0.35), (0.6, 0.7)])
    for s in (a, b, a, b):
        torus.fourier_coeff_real_ap(s, 3, 255)
    assert folds == [len(a.arcs), len(b.arcs)]


def test_folded_endpoints_are_read_only():
    for s in (constructions.build_adversarial_set(0.2, 96), torus.normalize([(0.1, 0.35)])):
        x, w = s._sine_endpoints
        assert x.size % torus.SPLIT_CHUNK == 0 and w.shape == (x.size, 2)
        for a in (x, w):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0


def test_folding_leaves_a_set_as_it_was(tmp_path):
    # the fold is kept in the set but is no part of it: a folded set equals,
    # prints, hashes and saves as an equal set never folded
    folded, fresh = (constructions.build_adversarial_set(0.25, 64) for _ in range(2))
    torus.fourier_coeff_real_ap(folded, 1, 1023)
    assert "_sine_endpoints" in vars(folded) and "_sine_endpoints" not in vars(fresh)
    assert folded == fresh and fresh == folded
    assert repr(folded) == repr(fresh)
    assert torus.set_digest(folded) == torus.set_digest(fresh)
    torus.save_set(folded, tmp_path / "folded.json")
    torus.save_set(fresh, tmp_path / "fresh.json")
    assert (tmp_path / "folded.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()


def test_fourier_coeff_real_ap_edges():
    s = torus.normalize([(0.1, 0.35)])
    full = torus.normalize([(0.0, 1.0)])
    assert torus.fourier_coeff_real_ap(s, 3, 0).shape == (0,)
    assert np.array_equal(torus.fourier_coeff_real_ap(torus.complement(full), 2, 7), np.zeros(7))
    assert np.array_equal(torus.fourier_coeff_real_ap(full, 5, 40), np.zeros(40))
    with pytest.raises(ValueError):
        torus.fourier_coeff_real_ap(s, 0, 5)


def test_angle_tables_keep_rows_zero_exact(rng=np.random.RandomState(14)):
    # row 0 of a short table is exactly 1 + 0i, and row 0 of a weighted table
    # exactly w + (w 0.0)i, the sign of each zero included; the weights go in
    # as pairs, and the coarse rows, weighted in place, as a copy
    x = np.concatenate([[0.0], rng.uniform(0.0, 1.0, 94), [1.0]])
    w = rng.choice([-1.0, 0.0, 1.0], 96)
    pairs = np.column_stack((w, w))
    for unit in (1.0, 3.0, 64.0, 4096.0):
        phase = 2 * np.pi * torus._frac(unit * x)
        for n in (1, 2, 3, 5, 16, 17, 32, 64, 129):
            rows = torus._angle_sums(phase, torus._split(n))
            assert rows[0].tobytes() == np.full(96, 1 + 0j).tobytes()
            table = torus._angle_table(rows.copy(), rows, n, pairs)
            assert table.shape == (n, 96)
            assert table[0].real.tobytes() == (w * 1.0).tobytes(), (unit, n)
            assert table[0].imag.tobytes() == (w * 0.0).tobytes(), (unit, n)
            assert torus._angle_table(rows, rows, n)[0].tobytes() == rows[0].tobytes()


def test_short_table_rows_stay_near_their_angle(rng=np.random.RandomState(16)):
    # row k of a short table comes from its base phase t by at most 2 log2(k)
    # angle sums, not from a sine and cosine of its own: it carries k times
    # row 1's rounding plus the products' own, and stays within 2k u of e^{ikt}
    # (u = 2^-53; 1.14k u seen).  The reference takes the same float64 t, in
    # long double
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("np.longdouble is not wider than float64 here")
    u = np.finfo(np.float64).eps / 2
    x = np.concatenate([[0.0, 0.25, 0.5], rng.uniform(0.0, 1.0, 5000)])
    for unit in (1, 3, 7, 96, 4095, 65536, 12345678, 2 ** 28 - 1, 2 ** 28):
        phase = 2 * np.pi * torus._frac(float(unit) * x)
        for n in (1, 2, 3, 5, 8, 9, 16):
            rows = torus._angle_sums(phase, n)
            k = np.arange(n)
            angle = k.astype(np.longdouble)[:, None] * phase.astype(np.longdouble)
            err = np.maximum(abs(rows.real - np.cos(angle)), abs(rows.imag - np.sin(angle)))
            assert np.all(err.max(axis=1).astype(float) <= 2 * k * u), (unit, n)


def test_pairwise_sum_is_numpys_sum_over_a_contiguous_axis(rng=np.random.RandomState(17)):
    for k in list(range(1, 140)) + [255, 256, 257, 1000, 1024]:
        parts = rng.standard_normal((k, 40)) * 10.0 ** rng.randint(-8, 8, (k, 40))
        want = np.ascontiguousarray(parts.T).sum(axis=-1)
        assert torus._pairwise_sum(parts.copy()).tobytes() == want.tobytes(), k


def test_fourier_coeff_real_ap_bits_do_not_depend_on_cpu_count(monkeypatch, rng=np.random.RandomState(15)):
    # a block's chunks are split into one run per CPU; every value must be the
    # one CPU's, bit for bit, including blocks with fewer chunks than CPUs
    sets = [constructions.build_adversarial_set(0.25, lmax) for lmax in (16, 64, 96)]
    for _ in range(50):
        pts = np.sort(rng.uniform(0.0, 1.0, 2 * rng.randint(1, 6)))
        sets.append(torus.normalize(list(zip(pts[0::2], pts[1::2]))))
    calls = [(s, step, count) for s in sets[:3] for step in (1, 3) for count in (1, 255, 1023, 4095)]
    calls += [(s, 7, 1023) for s in sets[3:]]
    outputs = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(torus, "_cpu_count", lambda: cpus)
        outputs[cpus] = [torus.fourier_coeff_real_ap(*call).tobytes() for call in calls]
    assert outputs[2] == outputs[1]
    assert outputs[3] == outputs[1]


def _send_kernel_bytes(s, conn):
    conn.send(torus.fourier_coeff_real_ap(s, 1, 1023).tobytes())
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork here")
# forking a process that has threads is what this test checks
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_fourier_coeff_real_ap_runs_in_a_fork_child(monkeypatch):
    # the parent's kernel threads do not exist in a fork child; a pool kept
    # across the fork would take the child's runs and never run them.  At
    # l_max 96 and count 1023 a block holds 64 chunks, which split into two
    # runs on 2 CPUs, so the parent's call makes the pool itself
    monkeypatch.setattr(torus, "_cpu_count", lambda: 2)
    s = constructions.build_adversarial_set(0.25, 96)
    want = torus.fourier_coeff_real_ap(s, 1, 1023).tobytes()
    assert torus._kernel_pool.cache_info().currsize == 1  # the parent has made a pool
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_kernel_bytes, args=(s, send))
    child.start()
    try:
        assert receive.poll(60), "the fork child's kernel call did not return"
        assert receive.recv() == want
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join(10)
    assert not child.is_alive() and child.exitcode == 0


# counts the runs and the kernel threads of three calls whose one block splits
# into 2, 3 and 4 runs on 4 CPUs (20, 40 and 60 arcs are 2, 3 and 4 chunks)
_POOL_SCRIPT = """
import json
import threading
import numpy as np
from rieszseq import torus
rng = np.random.RandomState(16)
runs, chunk_partials = [], torus._chunk_partials
def counted(*args):
    runs.append(None)
    chunk_partials(*args)
torus._chunk_partials = counted
torus._cpu_count = lambda: 4
calls = [(torus.normalize(list(zip(pts[0::2], pts[1::2]))), 1, 65535)
         for pts in (np.sort(rng.uniform(0.0, 1.0, 2 * n)) for n in (20, 40, 60))]
split = []
for call in calls:
    del runs[:]
    torus.fourier_coeff_real_ap(*call)
    split.append(len(runs))
kernel = [t for t in threading.enumerate() if t.name.startswith("rieszseq-kernel")]
print(json.dumps([split, len(kernel)]))
"""


def test_one_kernel_pool_whatever_the_number_of_runs():
    # blocks that split into 2, 3 and 4 runs share one pool of cpus - 1 threads
    src = str(Path(torus.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _POOL_SCRIPT],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    split, threads = json.loads(proc.stdout)
    assert split == [2, 3, 4]
    assert 1 <= threads <= 3


# times kernel calls that build no schedule, after a warm-up, and prints the
# minor page faults per call; run with glibc's malloc thresholds fixed, so no
# free can raise them and hide a call that maps its temporaries afresh
_FAULTS_SCRIPT = """
import resource
import numpy as np
from rieszseq import torus
pts = np.sort(np.random.RandomState(5).uniform(0.0, 1.0, 2400))
s = torus.normalize(list(zip(pts[0::2], pts[1::2])))  # 1,200 arcs
for _ in range(5):
    torus.fourier_coeff_real_ap(s, 3, 1023)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(40):
    torus.fourier_coeff_real_ap(s, 3, 1023)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 40)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc settings and Linux fault counts")
def test_kernel_call_adds_few_page_faults_under_fixed_malloc_thresholds():
    # the kernel's tables come from per-thread buffers kept across calls; with
    # per-call tables each call faulted about 1,300 pages in here, and only a
    # large earlier free (glibc raising its thresholds) hid that
    src = str(Path(torus.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "MALLOC_MMAP_THRESHOLD_": "131072", "MALLOC_TRIM_THRESHOLD_": "131072"}
    proc = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 100


def test_kernel_results_never_alias_its_buffers(rng=np.random.RandomState(20)):
    # each thread keeps the results of a large call and then a small one on
    # another set; a result that shared a buffer would be overwritten by the
    # next call on its thread, or on the other thread
    def arcs(n):
        pts = np.sort(rng.uniform(0.0, 1.0, 2 * n))
        return torus.normalize(list(zip(pts[0::2], pts[1::2])))

    plans = [
        [(constructions.build_adversarial_set(0.25, 96), 2, 16383), (arcs(300), 5, 255)],
        [(arcs(2000), 3, 4095), (constructions.build_adversarial_set(0.2, 48), 7, 99)],
    ]
    want = [[torus.fourier_coeff_real_ap(*call).tobytes() for call in plan] for plan in plans]
    kept = [[], []]
    start = threading.Barrier(2, timeout=30)

    def work(plan, out):
        start.wait()
        out.extend(torus.fourier_coeff_real_ap(*call) for call in plan)

    threads = [threading.Thread(target=work, args=pair) for pair in zip(plans, kept)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not any(t.is_alive() for t in threads)
    assert [[r.tobytes() for r in results] for results in kept] == want


def test_kernel_buffers_stay_within_their_bound(monkeypatch, rng=np.random.RandomState(21)):
    # the module docstring's bound on the buffers a thread keeps: counts 2 and
    # 65,280 together reach the largest size of every buffer when a block holds
    # 32,768 endpoints and all its chunks run on the calling thread
    bound = 14_155_776
    monkeypatch.setattr(torus, "_cpu_count", lambda: 1)
    pts = np.sort(rng.uniform(0.0, 1.0, 2 * 16_500))
    s = torus.normalize(list(zip(pts[0::2], pts[1::2])))
    held = []

    def work():
        for count in (2, 65_280, 1, 6, 3, 1023, 4095, torus.REAL_AP_COUNT_LIMIT):
            torus.fourier_coeff_real_ap(s, 1, count)
            held.append(sum(buf.nbytes for buf in torus._buffers.__dict__.values()))

    thread = threading.Thread(target=work)  # a fresh thread starts with no buffers
    thread.start()
    thread.join(120)
    assert not thread.is_alive() and len(held) == 8
    assert held[0] < bound and held[1] == bound  # the bound is reached
    assert max(held) == bound


def test_quadrature_basics():
    s = torus.normalize([(0.13, 0.41), (0.6, 0.77)])
    assert abs(torus.quadrature_coeff(s, 0, 100) - s.measure) < 1e-12
    full = torus.normalize([(0.0, 1.0)])
    assert abs(torus.quadrature_coeff(full, 5, 10 ** 4)) < 1e-10
    with pytest.raises(InputError, match="points_per_unit = 100 < 10"):
        torus.quadrature_coeff(s, 64, 100)


# --- coefficients over a range of k -------------------------------------------

def test_fourier_coeff_many_examples():
    full = torus.normalize([(0.0, 1.0)])
    c = torus.fourier_coeff_many(full, np.arange(5))
    assert c[0] == 1.0 and all(c[k] == 0.0 for k in (1, 2, 3, 4))

    s = torus.normalize([(0.0, 0.5)])
    c = dict(zip(range(-1, 3), torus.fourier_coeff_many(s, [-1, 0, 1, 2])))
    assert c[0] == pytest.approx(0.5)
    assert abs(c[1]) == pytest.approx(1.0 / math.pi, abs=1e-15)
    assert abs(c[-1]) == pytest.approx(1.0 / math.pi, abs=1e-15)
    assert c[2] == 0.0

    c0 = torus.fourier_coeff_many(s, 0)
    assert c0.shape == (1,) and c0[0] == pytest.approx(s.measure)


def test_fourier_coeff_many_values_do_not_depend_on_chunking(monkeypatch, rng=np.random.RandomState(12)):
    ks = np.concatenate([rng.randint(-10 ** 6, 10 ** 6, 3000), np.zeros(5, dtype=np.int64),
                         [2 ** 61, -(2 ** 61), 2 ** 61 - 1]])
    rng.shuffle(ks)
    sets = [torus.normalize([(0.1, 0.37)]), random_three_arc_set(rng),
            torus.complement(torus.normalize([(0.0, 1.0)]))]
    whole = [torus.fourier_coeff_many(s, ks) for s in sets]
    monkeypatch.setattr(torus, "COEFF_BLOCK", 5)  # one or a few rows per chunk
    for s, want in zip(sets, whole):
        assert torus.fourier_coeff_many(s, ks).tobytes() == want.tobytes()


def _mod_reference_coeffs(s, ks):
    """fourier_coeff_many with the phase reduced by np.mod(p, 1.0), in one block."""
    ks = np.asarray(ks, dtype=np.int64)
    starts, ends = s.arcs.T
    k_abs = np.abs(ks.astype(np.float64))
    block = np.exp((-2j * np.pi) * np.mod(k_abs[:, None] * starts[None, :], 1.0))
    block -= np.exp((-2j * np.pi) * np.mod(k_abs[:, None] * ends[None, :], 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = block.sum(axis=1) / (2j * np.pi * k_abs)
    out = np.where(ks < 0, np.conj(out), out)
    out[ks == 0] = s.measure
    return out


def test_fourier_coeff_many_floor_reduction_is_bitwise_mod(rng=np.random.RandomState(13)):
    ks = np.concatenate([rng.randint(-10 ** 9, 10 ** 9, 4000), np.zeros(7, dtype=np.int64),
                         [2 ** 61, -(2 ** 61), 2 ** 61 - 1, -(2 ** 61 - 1)]])
    rng.shuffle(ks)
    sets = [torus.normalize([(0.1, 0.37)]), random_three_arc_set(rng), torus.normalize([(0.0, 1.0)])]
    for s in sets:
        assert torus.fourier_coeff_many(s, ks).tobytes() == _mod_reference_coeffs(s, ks).tobytes()


def test_table_invariants(rng=np.random.RandomState(8)):
    s = random_three_arc_set(rng)
    ks = np.arange(-64, 65)
    c = dict(zip(ks.tolist(), torus.fourier_coeff_many(s, ks)))
    assert c[0].imag == 0.0
    assert c[0].real == pytest.approx(s.measure)
    for k in range(-64, 65):
        assert c[-k] == c[k].conjugate()
        assert abs(c[k]) <= s.measure + 1e-15
    # Bessel: partial sums of |c_hat|^2 are nondecreasing and bounded by |S|
    powers = [abs(c[k]) ** 2 for k in range(65)]
    partial = powers[0]
    for k in range(1, 65):
        nxt = partial + 2 * powers[k]
        assert nxt >= partial
        partial = nxt
    assert partial <= s.measure + 1e-9


# --- file format -----------------------------------------------------------

def test_set_file_round_trip(tmp_path):
    s = torus.normalize([(0.9, 1.2), (0.4, 0.5)])
    path = tmp_path / "set.json"
    torus.save_set(s, path)
    assert torus.load_set(path) == s


def test_save_set_that_fails_to_serialize_writes_no_file(tmp_path):
    # the text is made before the file is opened, so no truncated file is left
    s = torus.IntervalSet(np.array([[0.0, np.float32(0.3)]], dtype=object), 0.3)
    path = tmp_path / "set.json"
    with pytest.raises(TypeError, match="not JSON serializable"):
        torus.save_set(s, path)
    assert not path.exists()


def test_load_normalizes(tmp_path):
    path = tmp_path / "raw.json"
    path.write_text('{"arcs": [[0.0, 0.2], [0.1, 0.3]]}')
    s = torus.load_set(path)
    assert s.arcs.tolist() == [[0.0, 0.3]]


# set_digest, the sha256 of the save_set bytes and measure.hex(), as written
# when a set was a tuple of per-arc objects; the array form must not move them
GOLDEN_SETS = {
    "arc03": (lambda: torus.normalize([(0.0, 0.3)]), 1, "baf107ded4d5d1a8",
              "d04cdcca66e3d5d8b35a0c91a6dff4fa8787fd2d569f6b49104f1921ed944353",
              "0x1.3333333333333p-2"),
    "wrap": (lambda: torus.normalize([(0.9, 1.1), (0.4, 0.5)]), 3, "69321c8d4dffd4e9",
             "8f2f0ada433b732fdef6655df1481af51575bfdf83eea6f6433448ecaa7f0ae8",
             "0x1.3333333333334p-2"),
    # S_0.25 is stored mirror-symmetric bit for bit, which moved its lower
    # half by up to 2^-53 per endpoint: it was fbb30d5daed48ffb, 44e641b4...
    # and 0x1.9b45a46aff79ap-1
    "adversarial": (lambda: constructions.build_adversarial_set(0.25, 48), 608,
                    "60a3105ab0c65b7c",
                    "729f35b9a4d7b208bce2fff975b2fa1b8925260f5d9a5a8cfbafff2c83f43e01",
                    "0x1.9b45a46aff7b2p-1"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SETS))
def test_set_file_bytes_are_golden(name, tmp_path):
    make, arcs, digest, file_sha, measure = GOLDEN_SETS[name]
    s = make()
    path = tmp_path / "set.json"
    torus.save_set(s, path)
    assert len(s.arcs) == arcs
    assert torus.set_digest(s) == digest
    assert hashlib.sha256(path.read_bytes()).hexdigest() == file_sha
    assert s.measure.hex() == measure
    assert torus.load_set(path) == s


# --- from_arrays -------------------------------------------------------------

CANONICAL = "is not in canonical form"
DISJOINT = "arcs must be disjoint and sorted by start"


@pytest.mark.parametrize("starts, ends, message", [
    ([0.5, 0.1], [0.6, 0.2], DISJOINT),                                  # unsorted
    ([0.1, 0.15], [0.2, 0.3], DISJOINT),                                 # overlapping
    ([0.1, 0.3, 0.2], [0.2, 0.4, 0.25], DISJOINT),                       # unsorted later on
    ([-0.1, 0.5], [0.2, 0.6], rf"^arc \(-0.1, 0.2\) {CANONICAL}$"),      # below 0
    ([0.1, 0.5], [0.2, 1.5], rf"^arc \(0.5, 1.5\) {CANONICAL}$"),        # above 1
    ([0.1, 0.3, 0.7], [0.2, 0.3, 0.6], rf"^arc \(0.3, 0.3\) {CANONICAL}$"),  # first bad: zero length
    ([0.1, math.nan], [0.2, 0.5], rf"^arc \(nan, 0.5\) {CANONICAL}$"),
    ([0.1], [math.nan], rf"^arc \(0.1, nan\) {CANONICAL}$"),
    # the canonical-form check runs first, over every arc
    ([0.5, 0.1], [0.6, 0.1], rf"^arc \(0.1, 0.1\) {CANONICAL}$"),
])
def test_from_arrays_rejects_non_canonical_arrays(starts, ends, message):
    with pytest.raises(InputError, match=message):
        torus.from_arrays(np.array(starts), np.array(ends))


def test_from_arrays_keeps_a_read_only_copy():
    starts, ends = np.array([0.1, 0.2, 0.9]), np.array([0.2, 0.5, 1.0])  # touching is allowed
    s = torus.from_arrays(starts, ends)
    starts[0] = 0.15
    assert s.arcs.dtype == np.float64 and s.arcs.tolist() == [[0.1, 0.2], [0.2, 0.5], [0.9, 1.0]]
    assert s.measure == math.fsum([0.2 - 0.1, 0.5 - 0.2, 1.0 - 0.9])
    with pytest.raises(ValueError):
        s.arcs[0, 0] = 0.0
    with pytest.raises(ValueError):
        s.arcs.T[1][2] = 0.95
    empty = torus.from_arrays(np.empty(0), np.empty(0))
    assert empty.arcs.shape == (0, 2) and empty.measure == 0.0
    assert empty == torus.complement(torus.normalize([(0.0, 1.0)]))
    assert s != torus.from_arrays(np.array([0.1, 0.2]), np.array([0.2, 0.5]))
