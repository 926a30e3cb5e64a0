import concurrent.futures
import json
import sys
import threading
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from rieszseq import constructions as con
from rieszseq import numtheory, spectral, torus
from rieszseq.errors import InputError, SearchFailed

FULL = torus.normalize([(0.0, 1.0)])
ARC03 = torus.normalize([(0.0, 0.3)])


def coeff_powers(s, max_k):
    """|c_hat(k)|^2 for k = 0..max_k."""
    return np.abs(torus.fourier_coeff_many(s, np.arange(max_k + 1))) ** 2


def lambda_min(s, freqs):
    return spectral.extreme_eigs(spectral.gram(s, freqs))[0]


# --- width schedule ---------------------------------------------------------

def test_schedule_rejects_bad_epsilon():
    with pytest.raises(InputError, match="epsilon must lie in"):
        con.delta_schedule(1.5)
    with pytest.raises(InputError, match="epsilon must lie in"):
        con.delta_schedule(0.0)


def test_schedule_values_frozen():
    # derived once from the certified normalizer; regression anchors
    sched = con.delta_schedule(0.25)
    assert sched.normalizer == pytest.approx(3.3887355352008424, rel=1e-12)
    assert sched.delta(2) == pytest.approx(0.015281058397072538, rel=1e-12)
    assert sched.delta(4) == pytest.approx(0.0035601138766767583, rel=1e-12)
    assert sched.delta(8) == pytest.approx(0.0009550661498170336, rel=1e-12)


def test_schedule_condition_a_strict():
    for eps in (0.1, 0.25, 0.9):
        sched = con.delta_schedule(eps)
        bound, budget = con.schedule_condition_a(sched)
        assert bound < budget


def test_schedule_condition_b_growth():
    """delta(ell) * ell^(1/alpha) grows once past the log/polynomial crossover.

    For alpha in {0.75, 0.9} the crossover of ell^(1/alpha-1)/log^2(ell+1)
    lies beyond ell = 10^5 (near exp(2*alpha/(1-alpha))), so the sampled
    decades start there rather than at 10.
    """
    sched = con.delta_schedule(0.25)
    report = con.schedule_condition_b(sched)
    assert set(report) == {0.5, 0.75, 0.9}
    assert report[0.5][0] == 10
    assert report[0.75][0] == 1000
    assert report[0.9][0] == 10 ** 8
    for start, vals, increasing in report.values():
        assert increasing
        assert vals[-1] > vals[0]


def test_schedule_widths():
    sched = con.delta_schedule(0.99)
    assert con.schedule_widths_ok(sched)
    ells = np.arange(1, 1001)
    d = sched.delta_array(ells)
    assert np.all(np.diff(d) < 0)
    assert np.all(d < 1.0 / (2.0 * ells))


# --- adversarial set ---------------------------------------------------------

def test_adversarial_single_term():
    sched = con.delta_schedule(0.25)
    s = con.build_adversarial_set(0.25, 1)
    assert s.measure == pytest.approx(1 - 2 * sched.delta(1), abs=1e-12)


def test_adversarial_measure_frozen():
    # exact value from summing the finitely many merged arc lengths
    s = con.build_adversarial_set(0.25, 64)
    assert s.measure == pytest.approx(0.802598680957276, rel=1e-12)
    assert len(s.arcs) == 1074
    assert s.measure > 0.75


def test_adversarial_monotone_in_lmax():
    measures = [con.build_adversarial_set(0.25, lmax).measure for lmax in (1, 4, 16, 64)]
    assert all(b < a for a, b in zip(measures, measures[1:]))


def test_adversarial_omits_periodized_arcs():
    sched = con.delta_schedule(0.25)
    s = con.build_adversarial_set(0.25, 8)
    for ell in (1, 2, 5, 8):
        for j in range(ell):
            assert not torus.contains(s, j / ell)  # arc centers removed


# --- small-step decay demo -----------------------------------------------------

def test_thm1_cell_trivial_cell():
    s = con.build_adversarial_set(0.25, 4)
    cell = con.thm1_cell(s, con.delta_schedule(0.25), 1, 1)
    assert cell.rayleigh_uniform == pytest.approx(s.measure, abs=1e-12)
    assert cell.rayleigh_uniform <= 1.0


def test_theorem1_chain_small_grid():
    """Uniform energy <= exact Dirichlet tail <= cotangent bound, per cell."""
    sched = con.delta_schedule(0.25)
    s = con.build_adversarial_set(0.25, 8)
    for ell in (1, 2, 4, 8):
        for n in (16, 64, 256):
            cell = con.thm1_cell(s, sched, ell, n)  # raises on violation
            tail = spectral.dirichlet_tail(n, sched.delta(ell))
            assert cell.rayleigh_uniform <= tail + 1e-9
            assert tail <= cell.tail_bound + 1e-9


def test_theorem1_doubling_decay():
    sched = con.delta_schedule(0.25)
    s = con.build_adversarial_set(0.25, 8)
    for ell in (2, 4):
        a = con.thm1_cell(s, sched, ell, 512)
        b = con.thm1_cell(s, sched, ell, 1024)
        assert b.tail_bound == pytest.approx(a.tail_bound / 2, rel=1e-12)
        assert b.rayleigh_uniform <= 0.75 * a.rayleigh_uniform


# --- multiple blocks and the good-length search ---------------------------------

def test_block_examples():
    assert numtheory.multiples_block(1).tolist() == [1]
    assert numtheory.multiples_block(2).tolist() == [2, 4]
    assert numtheory.multiples_block(5).tolist() == [5, 10, 15, 20, 25]


def test_good_n_search_full_circle():
    assert list(con.good_n_search(FULL, 1e-9, (1, 10))) == list(range(1, 11))


def test_good_n_search_half_circle_even_lengths():
    # even n make every sampled coefficient an even index, which vanishes
    hits = con.good_n_search(torus.normalize([(0.0, 0.5)]), 1e-12, (1, 20))
    assert set(range(2, 21, 2)) <= set(hits)


def test_good_n_search_arc03_frozen():
    # sums from the scan with closed-form coefficients
    hits = list(con.good_n_search(ARC03, 0.075, (1, 10)))
    assert hits[:3] == [1, 2, 3]
    powers = coeff_powers(ARC03, 9)
    assert float(powers[[1]].sum()) == pytest.approx(0.06631557563900257, rel=1e-12)
    assert float(powers[[2, 4]].sum()) == pytest.approx(0.025099318387605207, rel=1e-12)
    assert float(powers[[3, 6, 9]].sum()) == pytest.approx(0.002866123487423018, rel=1e-12)


def test_good_n_search_is_lazy(monkeypatch):
    evaluated, coeff = [], torus.fourier_coeff_many

    def spy(s, ks):
        evaluated.extend(np.atleast_1d(ks).tolist())
        return coeff(s, ks)

    monkeypatch.setattr(torus, "fourier_coeff_many", spy)
    hits = con.good_n_search(ARC03, 0.075, (1, 10 ** 6))
    assert evaluated == []
    assert list(islice(hits, 3)) == [1, 2, 3]
    assert evaluated == [1, 2, 4, 3, 6, 9]  # each length n evaluates only l*n, l <= n
    with pytest.raises(ValueError):  # arguments are checked before any iteration
        con.good_n_search(ARC03, 0.0, (1, 10))
    with pytest.raises(ValueError):
        con.good_n_search(ARC03, 0.075, (5, 4))


# --- shift selection --------------------------------------------------------------

def empty_build(s):
    return con.LambdaBuild((), s.measure / 2, (), torus.set_digest(s))


def test_select_shift_full_circle_takes_scan_start():
    nb = con.BlockSpec(3, 3, 3, 0)
    assert con.select_shift(FULL, empty_build(FULL), nb, 0.9) == 0
    scan = con.ScanConfig(start=17, cap=100)
    assert con.select_shift(FULL, empty_build(FULL), nb, 0.9, scan) == 17


def test_scan_config_is_keyword_only():
    # positional fields are refused, so a (start, step, cap) call cannot be read as (start, cap)
    with pytest.raises(TypeError):
        con.ScanConfig(0, 1, 1000)
    assert con.ScanConfig() == con.ScanConfig(start=0, cap=200_000)


def test_select_shift_arc03_frozen():
    # combining the first two good blocks at target |S|/4; end-to-end fixture
    partial = con.LambdaBuild(
        (con.BlockSpec(1, 1, 1, 0),), 0.15, (0.3,), torus.set_digest(ARC03)
    )
    shift = con.select_shift(ARC03, partial, con.BlockSpec(2, 2, 2, 0), 0.075)
    assert shift == 2
    combined = spectral.frequency_set([1, 2 + shift, 4 + shift])
    assert lambda_min(ARC03, combined) >= 0.075
    # a vacuous target accepts every disjoint shift, but never one meeting the union
    scan = con.ScanConfig(start=-3, cap=5)
    assert con.select_shift(ARC03, partial, con.BlockSpec(2, 2, 2, 0), -1.0, scan) == -2


def test_select_shift_scan_exhausted_reports_counts():
    partial = con.LambdaBuild(
        (con.BlockSpec(1, 1, 1, 0),), 0.15, (0.3,), torus.set_digest(ARC03)
    )
    # shifts -3 and -1 are skipped because {2, 4} + m would meet {1}; the other
    # five are decided, and none reaches 0.12
    with pytest.raises(SearchFailed) as info:
        con.select_shift(
            ARC03, partial, con.BlockSpec(2, 2, 2, 0), 0.12, con.ScanConfig(start=-5, cap=1)
        )
    assert str(info.value) == (
        "no shift in [-5, 1] reached target 0.12: "
        "5 decided by Cholesky, 2 skipped for meeting the union"
    )


def test_select_shift_scan_exhausted_when_every_shift_meets_the_union():
    # {2, 4} + m meets {1, 2, 3} for every m in [-3, 1], so nothing is decided
    partial = con.LambdaBuild(
        (con.BlockSpec(3, 1, 3, 0),), 0.15, (0.1,), torus.set_digest(ARC03)
    )
    with pytest.raises(SearchFailed) as info:
        con.select_shift(
            ARC03, partial, con.BlockSpec(2, 2, 2, 0), -1.0, con.ScanConfig(start=-3, cap=1)
        )
    message = str(info.value)
    assert "[-3, 1]" in message
    assert "0 decided by Cholesky, 5 skipped for meeting the union" in message
    assert "inf" not in message and "None" not in message


def random_arc_set(rng):
    k = rng.randint(1, 4)
    pts = np.sort(rng.uniform(0.0, 1.0, 2 * k))
    while np.min(np.diff(pts)) < 0.01:
        pts = np.sort(rng.uniform(0.0, 1.0, 2 * k))
    return torus.normalize([(pts[2 * i], pts[2 * i + 1]) for i in range(k)])


def random_block(rng):
    n = int(rng.randint(1, 9))
    return con.BlockSpec(n=n, step=int(rng.randint(1, 12)), length=n, shift=int(rng.randint(-40, 40)))


def test_select_shift_decision_matches_eigensolve(rng=np.random.RandomState(5)):
    """Each candidate's Cholesky/Schur verdict is eigvalsh(G) >= t away from ties."""
    verdicts = {True: 0, False: 0}
    for _ in range(25):
        s = random_arc_set(rng)
        blocks = (random_block(rng),)
        if rng.rand() < 0.5:
            blocks += (random_block(rng),)
        try:
            partial = con.LambdaBuild(blocks, s.measure / 2, (), torus.set_digest(s))
        except ValueError:  # the two blocks share a frequency
            continue
        union = partial.frequencies()
        newblock = replace(random_block(rng), shift=0)
        lams = {}
        for m in range(-20, 21):
            cand = newblock.frequencies() + m
            if not np.intersect1d(cand, union).size:
                lams[m] = lambda_min(s, spectral.frequency_set(np.concatenate([union, cand]).tolist()))
        floor = min(lambda_min(s, spectral.frequency_set(union.tolist())),
                    lambda_min(s, spectral.frequency_set(newblock.frequencies().tolist())))
        target = rng.uniform(min(lams.values()), max(lams.values()))
        if target >= floor - 1e-8:
            continue
        for m, lam in lams.items():
            if abs(lam - target) <= 1e-8:
                continue
            try:
                accepted = con.select_shift(s, partial, newblock, target, con.ScanConfig(start=m, cap=m)) == m
            except SearchFailed:
                accepted = False
            assert accepted == (lam >= target), (s, blocks, newblock, target, m, lam)
            verdicts[accepted] += 1
    assert min(verdicts.values()) >= 100


def per_candidate_select_shift(s, existing, newblock, target, scan):
    """Reference scan: one fourier_coeff_many call and one overlap test per candidate."""
    offsets = newblock.frequencies() - newblock.shift
    inblock = con._shifted_gram(s, offsets, target)
    existing_freqs = existing.frequencies()
    factor = con._cholesky(con._shifted_gram(s, existing_freqs, target)) if existing.blocks else np.eye(0)
    linv = np.linalg.inv(factor)
    diff = offsets[None, :] - existing_freqs[:, None]
    diffs, where = np.unique(diff, return_inverse=True)
    where = where.reshape(diff.shape)
    for m in range(scan.start, scan.cap + 1):
        if (diffs == -m).any():
            continue
        w = linv @ torus.fourier_coeff_many(s, diffs + m)[where]
        if con._cholesky(inblock - w.conj().T @ w) is not None:
            return m
    met = int(np.count_nonzero((-diffs >= scan.start) & (-diffs <= scan.cap)))
    raise SearchFailed(
        f"no shift in [{scan.start}, {scan.cap}] reached target {target}: "
        f"{scan.cap - scan.start + 1 - met} decided by Cholesky, "
        f"{met} skipped for meeting the union"
    )


def scan_outcome(scan_fn, s, existing, newblock, target, scan):
    try:
        return scan_fn(s, existing, newblock, target, scan)
    except SearchFailed as exc:
        return str(exc)


def window_position(start, shift):
    """'first' or 'last' when shift opens or closes a window wider than one shift.
    Windows from start are [start + 2^k - 1, start + 2^(k+1) - 2], k = 0, 1, ..."""
    k = (shift - start + 1).bit_length() - 1
    if k >= 1 and shift - start == 2 ** k - 1:
        return "first"
    if k >= 1 and shift - start == 2 ** (k + 1) - 2:
        return "last"
    return None


def test_select_shift_matches_per_candidate_scan(rng=np.random.RandomState(3)):
    """The windowed scan returns the per-candidate scan's shift, or its exhaustion message."""
    covered = set()
    for case in range(12):
        s = random_arc_set(rng)
        n1, n2 = (int(v) for v in rng.randint(3, 9, 2))
        if case % 2 == 0:  # dense differences: multiple blocks {n, 2n, ..., n^2}
            kind = "dense"
            old, new = con.BlockSpec(n1, n1, n1, 0), con.BlockSpec(n2 + 9, n2 + 9, n2 + 9, 0)
        else:  # sparse differences: Theorem-3 steps far above the length
            kind = "sparse"
            old = con.BlockSpec(n1, int(rng.randint(10, 40)), n1, 0)
            new = con.BlockSpec(n2, int(rng.randint(10, 40)), n2, 0)
        partial = con.LambdaBuild((old,), s.measure / 2, (), torus.set_digest(s))
        floor = min(lambda_min(s, partial.partial_frequency_set(1)),
                    lambda_min(s, spectral.frequency_set(new.frequencies().tolist())))
        target = 0.97 * floor
        wide = con.ScanConfig(start=-30, cap=400)
        expected = scan_outcome(per_candidate_select_shift, s, partial, new, target, wide)
        assert scan_outcome(con.select_shift, s, partial, new, target, wide) == expected
        covered.add((kind, "negative start"))
        # a start on a shift whose block meets the union
        meeting = [m for m in (old.frequencies()[:, None] - new.frequencies()[None, :]).ravel().tolist()
                   if -30 <= m <= 400]
        if meeting:
            start = min(meeting)
            scan = con.ScanConfig(start=start, cap=400)
            assert scan_outcome(con.select_shift, s, partial, new, target, scan) == scan_outcome(
                per_candidate_select_shift, s, partial, new, target, scan)
            covered.add((kind, "start meets the union"))
        if isinstance(expected, str):
            continue
        # every start in [-30, expected] has the same smallest accepted shift
        for k in range(1, 9):
            for offset in (2 ** k - 1, 2 ** (k + 1) - 2):
                if expected - offset >= -30:
                    scan = con.ScanConfig(start=expected - offset, cap=400)
                    assert con.select_shift(s, partial, new, target, scan) == expected
                    covered.add((kind, window_position(scan.start, expected)))
        # a cap one short of the accepted shift, and one on it, inside their windows
        for cap in (expected - 1, expected):
            if cap >= -30 and window_position(-30, cap) != "last":
                scan = con.ScanConfig(start=-30, cap=cap)
                assert scan_outcome(con.select_shift, s, partial, new, target, scan) == scan_outcome(
                    per_candidate_select_shift, s, partial, new, target, scan)
                covered.add((kind, "cap inside a window"))
    assert covered == {
        (kind, what)
        for kind in ("dense", "sparse")
        for what in ("negative start", "start meets the union", "first", "last", "cap inside a window")
    }


def test_select_shift_coefficient_work(monkeypatch):
    # the scan evaluates each coefficient once per window of consecutive shifts;
    # one call per candidate requested 273,062 values in 133 calls on this build.
    # The builders run select_shift's scan, _scan, on the Grams they carry
    requested, coeff, scan = [], torus.fourier_coeff_many, con._scan
    inside = [False]

    def counting(s, ks):
        values = coeff(s, ks)
        if inside[0]:
            requested.append(values.shape[0])
        return values

    def scanning(*args):
        inside[0] = True
        try:
            return scan(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(torus, "fourier_coeff_many", counting)
    monkeypatch.setattr(con, "_scan", scanning)
    build = con.build_lambda_thm2(ARC03, 3, n_range=(40, 2000))
    assert [b.shift for b in build.blocks] == [0, 81, 920]
    assert 0 < sum(requested) <= 70_000


# --- the shift scan on worker threads -----------------------------------------------

def scan_args(s, existing, newblock, target, scan):
    """_scan's arguments as select_shift builds them."""
    offsets = newblock.frequencies() - newblock.shift
    existing_freqs = existing.frequencies()
    shifted = con._shifted_gram(s, existing_freqs, target) if existing.blocks else np.eye(0)
    return s, existing_freqs, shifted, offsets, con._shifted_gram(s, offsets, target), target, scan


def scan_result(args):
    """(shift, bytes of the cross block), or the SearchFailed message."""
    try:
        shift, cross = con._scan(*args)
    except SearchFailed as exc:
        return str(exc)
    return shift, cross.tobytes()


def serial_and_pooled(monkeypatch, args, workers=3):
    """_scan's result on one thread, then with every window of two or more
    undecided candidates split over `workers` pool threads; and whether any
    candidate was decided on a pool thread."""
    monkeypatch.setattr(con, "_scan_workers", lambda: 1)
    serial = scan_result(args)
    on_pool, first_accepted = [], con._first_accepted

    def spy(*a, **kw):
        on_pool.append(threading.current_thread().name.startswith("rieszseq-scan"))
        return first_accepted(*a, **kw)

    monkeypatch.setattr(con, "_first_accepted", spy)
    monkeypatch.setattr(con, "_scan_workers", lambda: workers)
    monkeypatch.setattr(con, "PARALLEL_SCAN_WORK", -1)
    pooled = scan_result(args)
    return serial, pooled, any(on_pool)


def test_pooled_scan_matches_serial_scan(monkeypatch, rng=np.random.RandomState(3)):
    """The shift and the cross block's bytes, or the exhaustion message, do not
    depend on how a window's candidates are split over threads, with more
    workers than cores and threads switched every microsecond."""
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for case in range(10):
            s = random_arc_set(rng)
            n1, n2 = (int(v) for v in rng.randint(3, 9, 2))
            old, new = con.BlockSpec(n1, n1, n1, 0), con.BlockSpec(n2 + 9, n2 + 9, n2 + 9, 0)
            partial = con.LambdaBuild((old,), s.measure / 2, (), torus.set_digest(s))
            floor = min(lambda_min(s, partial.partial_frequency_set(1)),
                        lambda_min(s, spectral.frequency_set(new.frequencies().tolist())))
            args = scan_args(s, partial, new, 0.97 * floor, con.ScanConfig(start=-30, cap=400))
            results += [serial_and_pooled(monkeypatch, args, workers) for workers in (2, 8)]
    finally:
        sys.setswitchinterval(interval)
    for serial, pooled, _ in results:
        assert pooled == serial
    assert any(used_pool and isinstance(serial, tuple) for serial, _, used_pool in results)


def test_pooled_scan_exhausted_keeps_its_counts(monkeypatch):
    partial = con.LambdaBuild(
        (con.BlockSpec(1, 1, 1, 0),), 0.15, (0.3,), torus.set_digest(ARC03)
    )
    args = scan_args(ARC03, partial, con.BlockSpec(2, 2, 2, 0), 0.12, con.ScanConfig(start=-5, cap=1))
    serial, pooled, used_pool = serial_and_pooled(monkeypatch, args)
    assert used_pool
    assert pooled == serial == (
        "no shift in [-5, 1] reached target 0.12: "
        "5 decided by Cholesky, 2 skipped for meeting the union"
    )


class InOrder(concurrent.futures.Executor):
    """Runs each submitted call at once, in submission order."""

    def submit(self, fn, /, *args, **kwargs):
        future = concurrent.futures.Future()
        future.set_result(fn(*args, **kwargs))
        return future


def test_pooled_window_takes_the_smallest_accepted_shift(monkeypatch):
    # from start 10 the third window is the shifts 13..16, none meeting the union:
    # 13 is rejected and 14, 15, 16 pass.  Split over 2 workers in order, the first
    # takes 13 and 15 and accepts 15; the second takes 14 and 16 and accepts 14
    partial = con.LambdaBuild((con.BlockSpec(4, 4, 4, 0),), 0.15, (), torus.set_digest(ARC03))
    new = con.BlockSpec(5, 5, 5, 0)
    target = 0.9 * min(lambda_min(ARC03, partial.partial_frequency_set(1)),
                       lambda_min(ARC03, spectral.frequency_set(new.frequencies().tolist())))

    def accepts(m):
        try:
            return con.select_shift(ARC03, partial, new, target, con.ScanConfig(start=m, cap=m)) == m
        except SearchFailed:
            return False

    assert [accepts(m) for m in range(13, 17)] == [False, True, True, True]
    found, first_accepted = [], con._first_accepted
    monkeypatch.setattr(con, "_first_accepted", lambda *a, **kw: found.append(first_accepted(*a, **kw)) or found[-1])
    monkeypatch.setattr(con, "_scan_pool", lambda workers: InOrder())
    monkeypatch.setattr(con, "_scan_workers", lambda: 2)
    monkeypatch.setattr(con, "PARALLEL_SCAN_WORK", -1)
    args = scan_args(ARC03, partial, new, target, con.ScanConfig(start=10, cap=400))
    shift, cross = con._scan(*args)
    assert found[-2:] == [15 - 13, 14 - 13]  # window indices, each worker's first accepted
    assert shift == 14
    monkeypatch.setattr(con, "_scan_workers", lambda: 1)
    assert scan_result(args) == (14, cross.tobytes())


def test_deck_sized_builds_start_no_pool(monkeypatch):
    # windows of the assembly and step_search bench decks stay below
    # PARALLEL_SCAN_WORK, so they are decided on the calling thread
    def no_pool(workers):
        raise AssertionError("a deck-sized scan started a worker pool")

    monkeypatch.setattr(con, "_scan_pool", no_pool)
    monkeypatch.setattr(con, "_scan_workers", lambda: 2)
    s = torus.normalize([(0.12, 0.2), (0.41, 0.52), (0.7, 0.78)])
    build = con.build_lambda_thm2(s, 3, eps=s.measure / 4.0, n_range=(50, 110))
    assert len(build.blocks) == 3
    build, _ = con.build_lambda_thm3(s, [2.0, 1.5], [range(24, 27), range(60, 63)])
    assert len(build.blocks) == 6


def test_placed_union_gram_is_gram_of_the_union(rng=np.random.RandomState(11)):
    """A placement's assembled Gram is gram() of the grown union bit for bit, and its
    certificate is that Gram's eigensolve; verify cuts gram() of each partial union."""
    covered = set()
    for case in range(10):
        s = FULL if case == 9 else random_arc_set(rng)
        scan = con.ScanConfig(start=-int(rng.randint(1, 60)), cap=3000)
        build = empty_build(s)
        union = np.empty((0, 0), dtype=np.complex128)
        for _ in range(3):
            n = int(rng.randint(3, 9))
            candidate = con.BlockSpec(n, int(rng.randint(2, 15)), n, 0)
            floor = lambda_min(s, spectral.frequency_set(candidate.frequencies().tolist()))
            if build.blocks:
                floor = min(floor, build.schedule[-1])
            placed = con._place(s, build, union, candidate, 0.6 * floor, scan)
            assert placed is not None
            before = build.frequencies()
            build, union = placed
            freqs = spectral.frequency_set(build.frequencies().tolist())
            assert np.array_equal(union, spectral.gram(s, freqs).entries)
            assert build.schedule[-1] == lambda_min(s, freqs)
            new = build.blocks[-1].frequencies()
            if before.size and new.min() < before.max() and before.min() < new.max():
                covered.add("interleaved")
            if build.blocks[-1].shift < 0:
                covered.add("negative shift")
        grams = list(con._partial_grams(s, build))
        assert len(grams) == len(build.blocks)
        for k, g in enumerate(grams, start=1):
            assert np.array_equal(g.entries, spectral.gram(s, build.partial_frequency_set(k)).entries)
    assert covered == {"interleaved", "negative shift"}


def test_build_thm3_builds_only_block_grams(monkeypatch):
    # each placement builds the Gram of its own unshifted block and eigensolves the
    # grown union once; no Gram of a union of two or more blocks is built
    grams, eigs = [], []
    gram, extreme_eigs = spectral.gram, spectral.extreme_eigs
    monkeypatch.setattr(spectral, "gram", lambda s, freqs: grams.append(freqs.freqs) or gram(s, freqs))
    monkeypatch.setattr(spectral, "extreme_eigs", lambda g: eigs.append(g.size) or extreme_eigs(g))
    s = torus.normalize([(0.1, 0.3), (0.55, 0.8)])
    build, _ = con.build_lambda_thm3(s, [2.0, 1.5], [[6, 7], [12, 13]])
    assert grams == [tuple(replace(b, shift=0).frequencies().tolist()) for b in build.blocks]
    assert eigs == np.cumsum([b.length for b in build.blocks]).tolist()


def test_select_shift_precondition():
    with pytest.raises(ValueError):
        con.select_shift(ARC03, empty_build(ARC03), con.BlockSpec(2, 2, 2, 0), 0.29)


# --- step-O(N) assembly ------------------------------------------------------------

def test_build_thm2_full_circle():
    build = con.build_lambda_thm2(FULL, 3, n_range=(1, 10))
    assert [b.n for b in build.blocks] == [1, 2, 3]
    assert build.schedule == (1.0, 1.0, 1.0)
    assert build.gamma == 0.5


def test_build_thm2_arc03_frozen():
    build = con.build_lambda_thm2(ARC03, 3, eps=0.075, n_range=(1, 50))
    assert [(b.n, b.shift) for b in build.blocks] == [(1, 0), (2, 2), (3, 7)]
    assert build.schedule[0] == pytest.approx(0.3, abs=1e-12)
    assert build.schedule[1] == pytest.approx(0.12225192828088652, abs=1e-12)
    assert build.schedule[2] == pytest.approx(0.11558250773488431, abs=1e-12)
    # schedule targets met, nonincreasing, above gamma/2
    for b, cert in zip(build.blocks, build.schedule):
        assert cert >= (build.gamma / 2) * (1 + 1 / b.n) - 1e-12
    assert all(b <= a + 1e-12 for a, b in zip(build.schedule, build.schedule[1:]))
    assert all(c >= build.gamma / 2 for c in build.schedule)


def test_build_thm2_structure():
    build = con.build_lambda_thm2(ARC03, 3, eps=0.075, n_range=(1, 50))
    freqs = build.frequencies()
    assert np.unique(freqs).size == freqs.size  # blocks pairwise disjoint
    all_freqs = set(freqs.tolist())
    for b in build.blocks:  # each block is an AP of length n and step n
        ap = [b.shift + b.step * k for k in range(1, b.length + 1)]
        assert b.step == b.n and b.length == b.n
        assert set(ap) <= all_freqs


def test_build_thm2_eps_boundary_allows_quarter_measure():
    build = con.build_lambda_thm2(ARC03, 2, eps=ARC03.measure / 4.0, n_range=(1, 20))
    assert len(build.blocks) == 2
    with pytest.raises(ValueError):
        con.build_lambda_thm2(ARC03, 2, eps=ARC03.measure / 3.0)


def test_build_thm2_not_enough_blocks():
    with pytest.raises(SearchFailed, match="blocks met their targets"):
        con.build_lambda_thm2(ARC03, 5, eps=0.075, n_range=(1, 2))


def test_build_thm2_range_bounds_only_the_search():
    # the build stops at the third placed block, so a far larger n_range costs nothing
    wide = con.build_lambda_thm2(ARC03, 3, eps=0.075, n_range=(1, 10 ** 6))
    assert wide == con.build_lambda_thm2(ARC03, 3, eps=0.075, n_range=(1, 50))


# --- divisor-averaged step search ----------------------------------------------------

def test_step_search_full_circle():
    res = con.step_search_alpha(coeff_powers(FULL, 200), 1.5, 4)
    assert res.ell == 1 and res.total == 0.0


def test_step_search_arc03_certificate_frozen():
    # both sides of the averaging inequality, evaluated directly
    res = con.step_search_alpha(coeff_powers(ARC03, 63 * 16), 1.5, 16, l_cap=63)
    assert res.ell == 10 and res.total == 0.0
    assert res.grid_sum == pytest.approx(0.15829500586637213, rel=1e-12)
    assert res.divisor_sum == pytest.approx(0.1640554668213454, rel=1e-12)
    assert res.grid_sum <= res.divisor_sum  # strict here: off-range divisor pairs exist


def test_step_search_min_below_mean():
    res = con.step_search_alpha(coeff_powers(ARC03, 20 * 8), 1.2, 8, l_cap=20)
    assert res.total <= res.grid_sum / 20 + 1e-15


def test_step_search_grid_equals_per_step_sums():
    # the L x N grid is summed row by row, bitwise as one sum per step would be
    powers = coeff_powers(ARC03, 200 * 40)
    for length in (1, 9, 40):
        res = con.step_search_alpha(powers, 1.5, length, l_cap=200)
        sums = np.array([powers[ell * np.arange(1, length + 1)].sum() for ell in range(1, 201)])
        assert (res.ell, res.total) == (int(np.argmin(sums)) + 1, sums.min())
        assert res.grid_sum == sums.sum()


def test_step_search_guards():
    powers = coeff_powers(ARC03, 100)
    with pytest.raises(InputError, match="powers cover"):
        con.step_search_alpha(powers, 1.5, 32)
    with pytest.raises(ValueError):
        con.step_search_alpha(powers, 0.9, 4)


@pytest.mark.parametrize("n,alpha,step", [(32, 1.5, 182), (4, 1.5, 8)])
def test_step_search_default_cap_is_strict(n, alpha, step):
    # only `step` >= N^alpha has zero sum, so a cap of ceil(N^alpha) would return it
    assert step >= n ** alpha and step - 1 < n ** alpha
    powers = np.ones(step * n + 1)
    powers[step * np.arange(1, n + 1)] = 0.0
    res = con.step_search_alpha(powers, alpha, n)
    assert res.ell < n ** alpha and res.total > 0.0


def test_strict_step_cap():
    assert con.strict_step_cap(16, 1.5) == 63  # 16^1.5 = 64 exactly
    assert con.strict_step_cap(32, 1.5) == 181
    assert con.strict_step_cap(4, 2.0) == 15


# --- step-O(N^alpha) assembly ----------------------------------------------------------

def test_build_thm3_full_circle():
    build, rows = con.build_lambda_thm3(FULL, [2.0, 1.5], [[4, 5], [6, 7]])
    assert len(build.blocks) == 4
    assert build.schedule == (1.0, 1.0, 1.0, 1.0)
    assert [r.ell for r in rows] == [1, 1, 1, 1]
    assert con.build_lambda_thm3(FULL, [2.0, 1.5], [range(4, 6), range(6, 8)]) == (build, rows)


def test_build_thm3_arc03_frozen():
    build, rows = con.build_lambda_thm3(ARC03, [1.5], [[16, 32]])
    assert [(r.length, r.ell, r.shift) for r in rows] == [(16, 10, 0), (32, 10, 2)]
    assert rows[0].cert_lambda_min == pytest.approx(0.3, abs=1e-12)
    assert rows[1].cert_lambda_min == pytest.approx(0.1381966011250101, abs=1e-12)
    for r in rows:
        assert r.ell < r.length ** 1.5
        assert r.cert_lambda_min >= build.gamma / 2
    # property (i'): an AP of length N and step < N^alpha sits inside the union
    all_freqs = set(build.frequencies().tolist())
    for b in build.blocks:
        ap = [b.shift + b.step * k for k in range(1, b.length + 1)]
        assert set(ap) <= all_freqs


def test_build_thm3_validation():
    with pytest.raises(ValueError):
        con.build_lambda_thm3(ARC03, [1.5, 2.0], [[4], [5]])  # not decreasing
    with pytest.raises(ValueError):
        con.build_lambda_thm3(ARC03, [1.5], [[]])


# --- serialization and certificate verification ------------------------------------------

def test_build_round_trip(tmp_path):
    build = con.build_lambda_thm2(ARC03, 3, eps=0.075, n_range=(1, 50))
    path = tmp_path / "build.json"
    con.save_build(build, path, set_ref="arc03.json")
    loaded, set_ref = con.load_build(path)
    assert set_ref == "arc03.json"
    assert loaded.blocks == build.blocks
    assert loaded.schedule == build.schedule
    assert loaded.gamma == build.gamma
    assert loaded.set_digest == build.set_digest == torus.set_digest(ARC03)


def test_build_file_without_digest_round_trips(tmp_path):
    build = con.LambdaBuild((con.BlockSpec(1, 1, 1, 0),), 0.15, (0.3,))
    path = tmp_path / "build.json"
    con.save_build(build, path)
    assert "set_digest" not in json.loads(path.read_text())
    assert con.load_build(path)[0] == build


def test_verify_build_rejects_another_sets_digest():
    build = con.build_lambda_thm2(ARC03, 2, eps=0.075, n_range=(1, 50))
    other = torus.normalize([(0.0, 0.4)])
    with pytest.raises(InputError, match=f"digest {build.set_digest}, .* digest {torus.set_digest(other)}$"):
        con.verify_build(other, build)
    # without a digest the rows are recomputed on the set given, whatever it is
    assert len(con.verify_build(other, replace(build, set_digest=""))) == 2


def test_lambda_build_rejects_overlapping_blocks():
    # {1, 2, 3} and {3, 5} share 3
    message = "^build blocks overlap: frequency 3 is in more than one block$"
    with pytest.raises(ValueError, match=message):
        con.LambdaBuild((con.BlockSpec(3, 1, 3, 0), con.BlockSpec(2, 2, 2, 1)), 0.15, (0.1, 0.1))
    build = con.build_lambda_thm2(ARC03, 3, eps=0.075, n_range=(1, 50))
    with pytest.raises(ValueError, match="frequency 4 is in more than one block"):
        replace(build, blocks=build.blocks + (con.BlockSpec(2, 2, 2, 0),))


def test_verify_build_detects_tampering():
    build = con.build_lambda_thm2(ARC03, 3, eps=0.075, n_range=(1, 50))
    assert all(r.ok for r in con.verify_build(ARC03, build))
    doctored = con.LambdaBuild(
        build.blocks,
        build.gamma,
        (build.schedule[0], build.schedule[1] + 0.05, build.schedule[2]),
        build.set_digest,
    )
    assert not all(r.ok for r in con.verify_build(ARC03, doctored))
