import json
import math
import re
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


def shifted_gram(s, freqs, target):
    """gram(S, freqs) - target*I for strictly increasing freqs."""
    g = spectral.gram(s, freqs).entries
    return g - target * np.eye(g.shape[0])


# --- width schedule ---------------------------------------------------------

def test_schedule_rejects_bad_epsilon():
    with pytest.raises(InputError, match="epsilon must lie in"):
        con.DeltaSchedule(1.5)
    with pytest.raises(InputError, match="epsilon must lie in"):
        con.DeltaSchedule(0.0)


def test_schedule_values_frozen():
    # derived once from the certified normalizer; regression anchors
    sched = con.DeltaSchedule(0.25)
    assert sched.normalizer == pytest.approx(3.3887355352008424, rel=1e-12)
    assert sched.delta(2) == pytest.approx(0.015281058397072538, rel=1e-12)
    assert sched.delta(4) == pytest.approx(0.0035601138766767583, rel=1e-12)
    assert sched.delta(8) == pytest.approx(0.0009550661498170336, rel=1e-12)


def test_weight_sum_bound_literal_is_the_certified_sum():
    # C0 is kept as a literal; it is the numpy partial sum it replaced, and a
    # correctly rounded partial sum, each plus the tail 1/log(L) and 1e-3
    terms = con._SCHEDULE_PARTIAL_TERMS
    c0 = con.C0
    ell = np.arange(1, terms + 1, dtype=np.float64)
    expression = float(np.sum(1.0 / (ell * np.log(ell + 1.0) ** 2))) + 1.0 / math.log(terms) + 1e-3
    exact = math.fsum(1.0 / (k * math.log(k + 1.0) ** 2) for k in range(1, terms + 1))
    assert c0 == 3.388735535200845
    assert c0 == pytest.approx(expression, rel=1e-12)
    assert c0 == pytest.approx(exact + 1.0 / math.log(terms) + 1e-3, rel=1e-12)


def test_schedule_condition_a_strict():
    for eps in (0.1, 0.25, 0.9):
        sched = con.DeltaSchedule(eps)
        bound, budget = con.schedule_condition_a(sched)
        assert bound < budget


def test_schedule_condition_b_growth():
    """delta(ell) * ell^(1/alpha) grows once past the log/polynomial crossover.

    For alpha in {0.75, 0.9} the crossover of ell^(1/alpha-1)/log^2(ell+1)
    lies beyond ell = 10^5 (near exp(2*alpha/(1-alpha))), so the sampled
    decades start there rather than at 10.
    """
    sched = con.DeltaSchedule(0.25)
    report = con.schedule_condition_b(sched)
    assert set(report) == {0.5, 0.75, 0.9}
    assert report[0.5][0] == 10
    assert report[0.75][0] == 1000
    assert report[0.9][0] == 10 ** 8
    for start, vals, increasing in report.values():
        assert increasing
        assert vals[-1] > vals[0]


def test_schedule_widths():
    sched = con.DeltaSchedule(0.99)
    assert con.schedule_widths_ok(sched)
    ells = np.arange(1, 1001)
    d = sched.delta_array(ells)
    assert np.all(np.diff(d) < 0)
    assert np.all(d < 1.0 / (2.0 * ells))


# --- adversarial set ---------------------------------------------------------

def test_adversarial_single_term():
    sched = con.DeltaSchedule(0.25)
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


@pytest.mark.parametrize("epsilon", [0.1, 0.25])
def test_adversarial_set_is_mirror_symmetric_bit_for_bit(epsilon):
    # S_epsilon removes the arc around (ell - k)/ell with the one around k/ell,
    # and is stored so that x -> 1 - x maps its endpoints onto themselves exactly
    for l_max in (1, 2, 5, 48, 96, 256):
        x = con.build_adversarial_set(epsilon, l_max).arcs.ravel()
        assert x.tobytes() == (1.0 - x[::-1]).tobytes(), l_max


def test_adversarial_omits_periodized_arcs():
    sched = con.DeltaSchedule(0.25)
    s = con.build_adversarial_set(0.25, 8)
    for ell in (1, 2, 5, 8):
        for j in range(ell):
            assert not torus.contains(s, j / ell)  # arc centers removed


# --- small-step decay demo -----------------------------------------------------

def test_thm1_cell_trivial_cell():
    s = con.build_adversarial_set(0.25, 4)
    cell = con.thm1_cells(s, con.DeltaSchedule(0.25), 1, [1])[0]
    assert cell.rayleigh_uniform == pytest.approx(s.measure, abs=1e-12)
    assert cell.rayleigh_uniform <= 1.0


def test_theorem1_chain_small_grid():
    """Uniform energy <= exact Dirichlet tail <= cotangent bound, per cell."""
    sched = con.DeltaSchedule(0.25)
    s = con.build_adversarial_set(0.25, 8)
    for ell in (1, 2, 4, 8):
        for n in (16, 64, 256):
            cell = con.thm1_cells(s, sched, ell, [n])[0]  # raises on violation
            tail = spectral.dirichlet_tail_many([n], sched.delta(ell))[0]
            assert cell.rayleigh_uniform <= tail + 1e-9
            assert tail <= cell.tail_bound + 1e-9


def test_theorem1_doubling_decay():
    sched = con.DeltaSchedule(0.25)
    s = con.build_adversarial_set(0.25, 8)
    for ell in (2, 4):
        a = con.thm1_cells(s, sched, ell, [512])[0]
        b = con.thm1_cells(s, sched, ell, [1024])[0]
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
    nb = con.BlockSpec(3, 3, 0)
    assert con.select_shift(FULL, empty_build(FULL), nb, 0.9) == 0
    scan = con.ScanConfig(start=17, cap=100)
    assert con.select_shift(FULL, empty_build(FULL), nb, 0.9, scan) == 17


def test_scan_config_is_keyword_only():
    # positional fields are refused, so a (start, step, cap) call cannot be read as (start, cap)
    with pytest.raises(TypeError):
        con.ScanConfig(0, 1, 1000)
    assert con.ScanConfig() == con.ScanConfig(start=0, cap=200_000)


def test_scan_config_stores_python_ints(tmp_path):
    # np.int64 bounds once gave np.int64 shifts, which save_build could not write
    scan = con.ScanConfig(start=np.int64(0), cap=np.int64(200_000))
    assert type(scan.start) is int and type(scan.cap) is int
    build = con.build_lambda_thm2(ARC03, 2, eps=0.075, n_range=(1, 50), scan=scan)
    assert all(type(b.shift) is int for b in build.blocks)
    path = tmp_path / "build.json"
    con.save_build(build, path)
    assert con.load_build(path) == build


def test_save_build_that_fails_to_serialize_writes_no_file(tmp_path):
    build = con.LambdaBuild((con.BlockSpec(1, 1, np.int64(0)),), 0.15, (0.3,))
    path = tmp_path / "build.json"
    with pytest.raises(TypeError, match="not JSON serializable"):
        con.save_build(build, path)
    assert not path.exists()


def test_select_shift_arc03_frozen():
    # combining the first two good blocks at target |S|/4; end-to-end fixture
    partial = con.LambdaBuild(
        (con.BlockSpec(1, 1, 0),), 0.15, (0.3,), torus.set_digest(ARC03)
    )
    shift = con.select_shift(ARC03, partial, con.BlockSpec(2, 2, 0), 0.075)
    assert shift == 2
    combined = spectral.frequency_set([1, 2 + shift, 4 + shift])
    assert lambda_min(ARC03, combined) >= 0.075
    # a vacuous target accepts every disjoint shift, but never one meeting the union
    scan = con.ScanConfig(start=-3, cap=5)
    assert con.select_shift(ARC03, partial, con.BlockSpec(2, 2, 0), -1.0, scan) == -2


def test_select_shift_scan_exhausted_reports_counts():
    partial = con.LambdaBuild(
        (con.BlockSpec(1, 1, 0),), 0.15, (0.3,), torus.set_digest(ARC03)
    )
    # shifts -3 and -1 are skipped because {2, 4} + m would meet {1}; -4, -2 and 0
    # put |c_hat(1)| = 0.2575 >= 0.3 - 0.12 off the diagonal of a 2x2 minor; the
    # other two are decided, and neither reaches 0.12
    with pytest.raises(SearchFailed) as info:
        con.select_shift(
            ARC03, partial, con.BlockSpec(2, 2, 0), 0.12, con.ScanConfig(start=-5, cap=1)
        )
    assert str(info.value) == (
        "no shift in [-5, 1] reached target 0.12: "
        "2 decided by Cholesky, 3 failed a 2x2 minor, 2 skipped for meeting the union"
    )


def test_select_shift_scan_exhausted_when_every_shift_meets_the_union():
    # {2, 4} + m meets {1, 2, 3} for every m in [-3, 1], so nothing is decided
    partial = con.LambdaBuild(
        (con.BlockSpec(1, 3, 0),), 0.15, (0.1,), torus.set_digest(ARC03)
    )
    with pytest.raises(SearchFailed) as info:
        con.select_shift(
            ARC03, partial, con.BlockSpec(2, 2, 0), -1.0, con.ScanConfig(start=-3, cap=1)
        )
    message = str(info.value)
    assert "[-3, 1]" in message
    assert "0 decided by Cholesky, 0 failed a 2x2 minor, 5 skipped for meeting the union" in message
    assert "inf" not in message and "None" not in message


def test_select_shift_refuses_a_union_below_the_target():
    # {1, 2, 3} on [0, 0.3) has lambda_min 0.0037, far below 0.2; the block {1} alone clears it
    partial = con.LambdaBuild(
        (con.BlockSpec(1, 3, 0),), 0.15, (0.0037,), torus.set_digest(ARC03)
    )
    assert lambda_min(ARC03, spectral.frequency_set([1, 2, 3])) == pytest.approx(0.0037, abs=1e-4)
    with pytest.raises(ValueError, match="^existing partial union is below the target bound$"):
        con.select_shift(ARC03, partial, con.BlockSpec(1, 1, 0), 0.2)


@pytest.mark.parametrize("target", [float("nan"), float("inf"), -float("inf")])
def test_select_shift_refuses_a_target_that_is_not_finite(target):
    # a NaN target fails every comparison, so the scan once took the first shift it
    # reached: 2 after the two-block build, 0 after the empty one
    two_blocks = con.build_lambda_thm2(ARC03, 2, eps=0.075, n_range=(1, 50))
    for existing in (two_blocks, empty_build(ARC03)):
        with pytest.raises(ValueError, match="^target must be finite, got"):
            con.select_shift(ARC03, existing, con.BlockSpec(3, 3, 0), target)


def random_arc_set(rng):
    k = rng.randint(1, 4)
    pts = np.sort(rng.uniform(0.0, 1.0, 2 * k))
    while np.min(np.diff(pts)) < 0.01:
        pts = np.sort(rng.uniform(0.0, 1.0, 2 * k))
    return torus.normalize([(pts[2 * i], pts[2 * i + 1]) for i in range(k)])


def random_block(rng):
    n = int(rng.randint(1, 9))
    return con.BlockSpec(step=int(rng.randint(1, 12)), length=n, shift=int(rng.randint(-40, 40)))


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
                lams[m] = lambda_min(s, np.sort(np.concatenate([union, cand])))
        floor = min(lambda_min(s, union), lambda_min(s, newblock.frequencies()))
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
    """Reference scan: one fourier_coeff_many call, one overlap test and one Cholesky
    per candidate.  A rejected candidate failed a 2x2 minor when some |c_hat(d + M)|
    reaches |S| - t + MINOR_MARGIN, and was decided by Cholesky otherwise."""
    offsets = newblock.frequencies() - newblock.shift
    inblock = shifted_gram(s, offsets, target)
    existing_freqs = existing.frequencies()
    factor = con._cholesky(shifted_gram(s, existing_freqs, target)) if existing.blocks else np.eye(0)
    linv = np.linalg.inv(factor)
    diff = offsets[None, :] - existing_freqs[:, None]
    diffs, where = np.unique(diff, return_inverse=True)
    where = where.reshape(diff.shape)
    decided = failed = 0
    for m in range(scan.start, scan.cap + 1):
        if (diffs == -m).any():
            continue
        vals = torus.fourier_coeff_many(s, diffs + m)
        w = linv @ vals[where]
        if con._cholesky(inblock - w.conj().T @ w) is not None:
            return m
        if np.abs(vals).max(initial=0.0) >= s.measure - target + con.MINOR_MARGIN:
            failed += 1
        else:
            decided += 1
    met = int(np.count_nonzero((-diffs >= scan.start) & (-diffs <= scan.cap)))
    raise SearchFailed(
        f"no shift in [{scan.start}, {scan.cap}] reached target {target}: "
        f"{decided} decided by Cholesky, {failed} failed a 2x2 minor, "
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
            old, new = con.BlockSpec(n1, n1, 0), con.BlockSpec(n2 + 9, n2 + 9, 0)
        else:  # sparse differences: Theorem-3 steps far above the length
            kind = "sparse"
            old = con.BlockSpec(int(rng.randint(10, 40)), n1, 0)
            new = con.BlockSpec(int(rng.randint(10, 40)), n2, 0)
        partial = con.LambdaBuild((old,), s.measure / 2, (), torus.set_digest(s))
        floor = min(lambda_min(s, old.frequencies()), lambda_min(s, new.frequencies()))
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
                outcome = scan_outcome(per_candidate_select_shift, s, partial, new, target, scan)
                assert scan_outcome(con.select_shift, s, partial, new, target, scan) == outcome
                covered.add((kind, "cap inside a window"))
                if isinstance(outcome, str) and ", 0 failed a 2x2 minor" not in outcome:
                    covered.add((kind, "exhausted after failed minors"))
    assert covered == {
        (kind, what)
        for kind in ("dense", "sparse")
        for what in ("negative start", "start meets the union", "first", "last",
                     "cap inside a window", "exhausted after failed minors")
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


def test_scan_accepting_its_first_survivor_requests_its_keys_and_the_near_window_keys(monkeypatch):
    # a placement whose first survivor is accepted requests, in each window up to
    # the accepting one, the keys d + M within near = floor(arcs/(pi least)(1 + 1e-6)) + 1
    # (only those can fail a 2x2 minor), and then the accepted shift's other keys
    placements, inside = [], [False]
    coeff, scan, cholesky = torus.fourier_coeff_many, con._scan, con._cholesky

    def counting(s, ks):
        if inside[0]:
            placements[-1]["keys"].extend(np.asarray(ks).tolist())
        return coeff(s, ks)

    def deciding(a):
        if inside[0]:
            placements[-1]["choleskys"] += 1
        return cholesky(a)

    def scanning(*args):
        placements.append({"args": args, "keys": [], "choleskys": 0})
        inside[0] = True
        try:
            shift, cross = scan(*args)
        finally:
            inside[0] = False
        placements[-1]["shift"] = shift
        return shift, cross

    monkeypatch.setattr(torus, "fourier_coeff_many", counting)
    monkeypatch.setattr(con, "_cholesky", deciding)
    monkeypatch.setattr(con, "_scan", scanning)
    con.build_lambda_thm2(ARC03, 3, n_range=(40, 2000))
    checked = 0
    for p in placements[1:]:  # the first block is placed against an empty union
        s, existing, _, offsets, _, target, scan_config = p["args"]
        assert p["choleskys"] == 2  # the union's factor, then the one candidate decided
        diffs = np.unique(offsets[None, :] - existing[:, None])
        least = s.measure - target + con.MINOR_MARGIN
        near = int(len(s.arcs) / (np.pi * least) * (1.0 + 1e-6)) + 1
        expected = []
        m, width = scan_config.start, 1
        while m <= p["shift"]:
            shifts = np.arange(m, m + width)
            if not np.isin(-shifts, diffs).all():
                keys = set((diffs[:, None] + shifts[None, :]).ravel().tolist())
                window = {k for k in keys if abs(k) <= near}
                expected.extend(window)
            m, width = m + width, 2 * width
        accepted = set((diffs + p["shift"]).tolist())
        expected.extend(accepted - window)
        assert sorted(p["keys"]) == sorted(expected)
        assert len(accepted - window) > 0 and len(window) > 0
        checked += 1
    assert checked == 2


@pytest.mark.parametrize("m", [0, 1, con.INVERSE_BASE - 1, con.INVERSE_BASE, con.INVERSE_BASE + 1, 300])
def test_lower_inverse_matches_lu(m, rng=np.random.RandomState(11)):
    x = rng.standard_normal((m, 2 * m)) + 1j * rng.standard_normal((m, 2 * m))
    factor = np.linalg.cholesky(x @ x.conj().T / max(m, 1) + 0.1 * np.eye(m))
    got, ref = con._lower_inverse(factor), np.linalg.inv(factor)
    assert got.shape == ref.shape == (m, m)
    assert np.abs(got - ref).max(initial=0.0) <= 1e-12 * np.abs(ref).max(initial=0.0)
    assert not np.triu(got, 1).any()


# --- the 2x2-minor exclusion ----------------------------------------------------------

def test_minor_exclusion_rejects_only_failing_shifts(rng=np.random.RandomState(7)):
    """Every shift the scan rejects by a 2x2 minor (some |c_hat(d + M)| reaches
    |S| - t + MINOR_MARGIN, and no d + M is 0) has lambda_min(G_union) < t, and the
    dense Schur complement of G_E - tI in G_union - tI has no Cholesky factor."""
    cases = [  # (set, union block, new block, target, K)
        (torus.normalize([(0.0, 0.1)]), con.BlockSpec(10, 10, 0),
         con.BlockSpec(11, 11, 0), 0.0275, [1, 2, 3, 4]),
        (torus.normalize([(0.0, 0.05), (0.3, 0.33), (0.6, 0.62)]), con.BlockSpec(12, 6, 0),
         con.BlockSpec(16, 8, 0), 0.0275, [3, 7]),
    ]
    while len(cases) < 12:
        s = random_arc_set(rng)
        n1, n2 = (int(v) for v in rng.randint(3, 9, 2))
        old = con.BlockSpec(int(rng.randint(1, 40)), n1, 0)
        new = con.BlockSpec(int(rng.randint(1, 40)), n2, 0)
        floor = min(lambda_min(s, old.frequencies()), lambda_min(s, new.frequencies()))
        cases.append((s, old, new, rng.uniform(0.9, 0.99) * floor, None))
    checked, multiple = 0, 0
    for s, old, new, target, expected in cases:
        least = s.measure - target + con.MINOR_MARGIN
        if expected is not None:  # |c_hat(k)| <= 3/(pi k) < least for k >= 100
            ks = np.arange(1, 100)
            assert ks[np.abs(torus.fourier_coeff_many(s, ks)) >= least].tolist() == expected
        union, block = old.frequencies(), new.frequencies()
        diffs = np.unique(block[None, :] - union[:, None])
        shifted_union = shifted_gram(s, union, target)
        inblock = shifted_gram(s, block, target)
        failing = set()
        for m in range(-40, 201):
            near = diffs + m
            bad = near[np.abs(torus.fourier_coeff_many(s, near)) >= least]
            if not bad.size or not near.all():
                continue
            failing.update(np.abs(bad).tolist())
            freqs = np.sort(np.concatenate([union, block + m]))
            assert lambda_min(s, freqs) < target
            diff = block[None, :] + m - union[:, None]  # C(M)[i, j] = c_hat(b_j + M - e_i)
            cross = torus.fourier_coeff_many(s, diff.ravel()).reshape(diff.shape)
            schur = inblock - cross.conj().T @ np.linalg.solve(shifted_union, cross)
            assert con._cholesky(schur) is None, (s, old, new, target, m)
            checked += 1
        multiple += len(failing) > 1
    assert multiple >= 4 and checked >= 500


def test_build_thm2_five_blocks_decides_one_candidate_per_placement(monkeypatch):
    # below each accepted shift, every shift meets the union or fails a 2x2 minor,
    # so each placement takes three Choleskys: G_B - tI, G_E - tI and the accepted
    # candidate's Schur complement
    calls, cholesky = [], con._cholesky
    monkeypatch.setattr(con, "_cholesky", lambda a: calls.append(a.shape) or cholesky(a))
    build = con.build_lambda_thm2(ARC03, 5, n_range=(200, 2000))
    assert [b.shift for b in build.blocks] == [0, 401, 20600, 34199, 48274]
    assert min(build.schedule) > build.gamma / 2
    assert len(calls) == 3 * 5


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
            candidate = con.BlockSpec(int(rng.randint(2, 15)), n, 0)
            floor = lambda_min(s, candidate.frequencies())
            if build.blocks:
                floor = min(floor, build.schedule[-1])
            placed = con._place(s, build, union, candidate, 0.6 * floor, scan)
            assert placed is not None
            before = build.frequencies()
            build, union = placed
            freqs = build.frequencies()
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
            assert np.array_equal(g.entries, spectral.gram(s, np.sort(np.concatenate([b.frequencies() for b in build.blocks[:k]]))).entries)
    assert covered == {"interleaved", "negative shift"}


def test_build_thm3_builds_only_block_grams(monkeypatch):
    # each placement builds the Gram of its own unshifted block and eigensolves the
    # grown union once; no Gram of a union of two or more blocks is built
    grams, eigs = [], []
    gram, extreme_eigs = spectral.gram, spectral.extreme_eigs
    monkeypatch.setattr(spectral, "gram", lambda s, freqs: grams.append(freqs.tolist()) or gram(s, freqs))
    monkeypatch.setattr(spectral, "extreme_eigs", lambda g: eigs.append(g.size) or extreme_eigs(g))
    s = torus.normalize([(0.1, 0.3), (0.55, 0.8)])
    build, _ = con.build_lambda_thm3(s, [2.0, 1.5], [[6, 7], [12, 13]])
    assert grams == [replace(b, shift=0).frequencies().tolist() for b in build.blocks]
    assert eigs == np.cumsum([b.length for b in build.blocks]).tolist()


def test_select_shift_precondition():
    with pytest.raises(ValueError):
        con.select_shift(ARC03, empty_build(ARC03), con.BlockSpec(2, 2, 0), 0.29)


# --- step-O(N) assembly ------------------------------------------------------------

def test_build_thm2_full_circle():
    build = con.build_lambda_thm2(FULL, 3, n_range=(1, 10))
    assert [b.length for b in build.blocks] == [1, 2, 3]
    assert build.schedule == (1.0, 1.0, 1.0)
    assert build.gamma == 0.5


def test_build_thm2_arc03_frozen():
    build = con.build_lambda_thm2(ARC03, 3, eps=0.075, n_range=(1, 50))
    assert [(b.length, b.shift) for b in build.blocks] == [(1, 0), (2, 2), (3, 7)]
    assert build.schedule[0] == pytest.approx(0.3, abs=1e-12)
    assert build.schedule[1] == pytest.approx(0.12225192828088652, abs=1e-12)
    assert build.schedule[2] == pytest.approx(0.11558250773488431, abs=1e-12)
    # schedule targets met, nonincreasing, above gamma/2
    for b, cert in zip(build.blocks, build.schedule):
        target = con.thm2_target(build.gamma, b.length)
        assert target == (build.gamma / 2) * (1 + 1 / b.length)  # thm2's schedule_target column
        assert cert >= target - 1e-12
    assert all(b <= a + 1e-12 for a, b in zip(build.schedule, build.schedule[1:]))
    assert all(c >= build.gamma / 2 for c in build.schedule)


def test_build_thm2_structure():
    build = con.build_lambda_thm2(ARC03, 3, eps=0.075, n_range=(1, 50))
    freqs = build.frequencies()
    assert np.unique(freqs).size == freqs.size  # blocks pairwise disjoint
    all_freqs = set(freqs.tolist())
    for b in build.blocks:  # each block is an AP of length n and step n
        ap = [b.shift + b.step * k for k in range(1, b.length + 1)]
        assert b.step == b.length
        assert set(ap) <= all_freqs


def test_build_thm2_eps_boundary_allows_quarter_measure():
    build = con.build_lambda_thm2(ARC03, 2, eps=ARC03.measure / 4.0, n_range=(1, 20))
    assert len(build.blocks) == 2
    with pytest.raises(ValueError):
        con.build_lambda_thm2(ARC03, 2, eps=ARC03.measure / 3.0)


def test_build_thm2_not_enough_blocks():
    with pytest.raises(SearchFailed, match="blocks met their targets"):
        con.build_lambda_thm2(ARC03, 5, eps=0.075, n_range=(1, 2))


def test_build_thm2_refuses_a_union_past_the_gram_size_limit(monkeypatch):
    # blocks of 40, 41 and 42 frequencies would make 123: the third placement is
    # refused before its scan, so no build of more than the limit is ever returned
    monkeypatch.setattr(spectral, "GRAM_SIZE_LIMIT", 100)
    scans, scan = [], con._scan
    monkeypatch.setattr(con, "_scan", lambda *args: scans.append(args) or scan(*args))
    with pytest.raises(ValueError, match="would give the build 123 frequencies, more than 100"):
        con.build_lambda_thm2(ARC03, 3, n_range=(40, 2000))
    assert len(scans) == 2


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
    build, searches = con.build_lambda_thm3(ARC03, [1.5], [[16, 32]])
    assert [(b.length, b.step, b.shift) for b in build.blocks] == [(16, 10, 0), (32, 10, 2)]
    assert [(r.alpha, r.ell) for r in searches] == [(1.5, 10), (1.5, 10)]
    assert build.schedule[0] == pytest.approx(0.3, abs=1e-12)
    assert build.schedule[1] == pytest.approx(0.1381966011250101, abs=1e-12)
    for b, cert in zip(build.blocks, build.schedule):
        assert b.step < b.length ** 1.5
        assert cert >= build.gamma / 2
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
    loaded, set_ref = con.load_build(path), json.loads(path.read_text())["set"]
    assert set_ref == "arc03.json"
    assert loaded.blocks == build.blocks
    assert loaded.schedule == build.schedule
    assert loaded.gamma == build.gamma
    assert loaded.set_digest == build.set_digest == torus.set_digest(ARC03)


def test_builders_return_builds_that_round_trip_and_verify(rng=np.random.RandomState(13)):
    # every build either builder returns reads back from its file object as itself
    for case in range(10):
        s = random_arc_set(rng)
        if case % 2 == 0:
            n0 = int(rng.randint(1, 30))
            build = con.build_lambda_thm2(s, int(rng.randint(2, 5)), n_range=(n0, n0 + 60))
        else:
            n = int(rng.randint(4, 12))
            build, _ = con.build_lambda_thm3(s, [2.0, 1.5], [[n, n + 1], [n + 4]])
        assert con.build_from_dict(json.loads(json.dumps(con.build_to_dict(build)))) == build
        assert all(r.ok for r in con.verify_build(s, build)[0])


def test_build_file_without_digest_round_trips(tmp_path):
    build = con.LambdaBuild((con.BlockSpec(1, 1, 0),), 0.15, (0.3,))
    path = tmp_path / "build.json"
    con.save_build(build, path)
    assert "set_digest" not in json.loads(path.read_text())
    assert con.load_build(path) == build


def test_verify_build_rejects_another_sets_digest():
    build = con.build_lambda_thm2(ARC03, 2, eps=0.075, n_range=(1, 50))
    other = torus.normalize([(0.0, 0.4)])
    with pytest.raises(InputError, match=f"digest {build.set_digest}, .* digest {torus.set_digest(other)}$"):
        con.verify_build(other, build)
    # without a digest the rows are recomputed on the set given, whatever it is,
    # once gamma is that set's |S|/2
    rows, report = con.verify_build(other, replace(build, set_digest="", gamma=other.measure / 2))
    assert [r.index for r in rows] == [1, 2] and report.size == build.frequencies().size


def test_lambda_build_rejects_overlapping_blocks():
    # {1, 2, 3} and {3, 5} share 3
    message = "^build blocks overlap: frequency 3 is in more than one block$"
    with pytest.raises(ValueError, match=message):
        con.LambdaBuild((con.BlockSpec(1, 3, 0), con.BlockSpec(2, 2, 1)), 0.15, (0.1, 0.1))
    build = con.build_lambda_thm2(ARC03, 3, eps=0.075, n_range=(1, 50))
    with pytest.raises(ValueError, match="frequency 4 is in more than one block"):
        replace(build, blocks=build.blocks + (con.BlockSpec(2, 2, 0),))


def test_verify_build_detects_tampering():
    build = con.build_lambda_thm2(ARC03, 3, eps=0.075, n_range=(1, 50))
    assert all(r.ok for r in con.verify_build(ARC03, build)[0])
    doctored = con.LambdaBuild(
        build.blocks,
        build.gamma,
        (build.schedule[0], build.schedule[1] + 0.05, build.schedule[2]),
        build.set_digest,
    )
    assert not all(r.ok for r in con.verify_build(ARC03, doctored)[0])
    # a forged floor: {1..6} and {7..12} state their recomputed certificates, 1.2e-6
    # and 6.5e-14, which clear a stated gamma of 0 though |S|/4 = 0.075
    blocks = (con.BlockSpec(1, 6, 0), con.BlockSpec(1, 6, 6))
    schedule = tuple(lambda_min(ARC03, np.arange(1, n + 1)) for n in (6, 12))
    forged = con.LambdaBuild(blocks, 0.0, schedule, build.set_digest)
    with pytest.raises(InputError, match=r"^build states gamma 0\.0, but \|S\|/2 of the given set is 0\.15$"):
        con.verify_build(ARC03, forged)


@pytest.mark.parametrize("call", [
    lambda: con.build_adversarial_set(0.25, 64.7),
    lambda: spectral.uniform_rayleigh_ap_many(ARC03, 2.5, [4]),
    lambda: spectral.uniform_rayleigh_ap_many(ARC03, 2, [4.5]),
    lambda: con.good_n_search(ARC03, 0.075, (1.5, 4.9)),
    lambda: con.build_lambda_thm3(ARC03, [2.0], [[4.5]]),
    lambda: con.build_lambda_thm2(ARC03, 2.5),
    lambda: con.step_search_alpha(np.zeros(100), 2.0, 4.5),
    lambda: con.step_search_alpha(np.zeros(100), 2.0, 4, 10.5),
    lambda: torus.scale_periodize(0.1, 2.5),
    lambda: numtheory.multiples_block(4.5),
    lambda: spectral.frequency_set([1, 2.5]),
    lambda: spectral.arithmetic_progression(0, 1.5, 3),
    lambda: spectral.frequency_set([False, True, 2]),
    lambda: spectral.frequency_set([np.True_, 2]),
    lambda: spectral.arithmetic_progression(True, True, 3),
    lambda: spectral.arithmetic_progression(0, 1, np.True_),
    lambda: con.BlockSpec(True, 3, 0).frequencies(),
    lambda: torus.scale_periodize(0.1, True),
    lambda: torus.scale_periodize(0.1, np.True_),
    lambda: torus.fourier_coeff_real_ap(ARC03, True, 4),
    lambda: torus.fourier_coeff_real_ap(ARC03, 1, np.True_),
    lambda: torus.quadrature_coeff(ARC03, True, 100),
    lambda: torus.quadrature_coeff(ARC03, 1, np.True_),
    lambda: spectral.uniform_rayleigh_ap_many(ARC03, True, [4]),
    lambda: spectral.uniform_rayleigh_ap_many(ARC03, 2, [np.True_]),
    lambda: con.build_adversarial_set(0.25, True),
    lambda: con.build_adversarial_set(0.25, np.True_),
    lambda: con.good_n_search(ARC03, 0.075, (True, 3)),
    lambda: con.good_n_search(ARC03, 0.075, (1, np.True_)),
    lambda: con.build_lambda_thm2(ARC03, True, eps=0.075),
    lambda: con.build_lambda_thm2(ARC03, np.True_, eps=0.075),
    lambda: con.step_search_alpha(np.zeros(100), 2.0, True),
    lambda: con.step_search_alpha(np.zeros(100), 2.0, 4, np.True_),
    lambda: con.build_lambda_thm3(ARC03, [2.0], [[True]]),
    lambda: con.build_lambda_thm3(ARC03, [2.0], [[4, np.True_]]),
    lambda: numtheory.check_limit(True, 1),
    lambda: numtheory.check_limit(np.True_, 4),
    lambda: numtheory.multiples_block(True),
    lambda: numtheory.multiples_block(np.True_),
    lambda: numtheory.divisor_growth_report(100, 0.5, lo=True),
    lambda: numtheory.divisor_growth_report(100, 0.5, lo=np.True_),
    lambda: con.ScanConfig(start=0.5, cap=1000.5),  # once accepted; the scan then died
    lambda: con.ScanConfig(cap=True),
    lambda: spectral.dirichlet_tail_bound(2.5, 0.1),
    lambda: spectral.dirichlet_tail_bound(True, 0.1),
    lambda: con.DeltaSchedule(0.25).delta(2.5),
    lambda: con.DeltaSchedule(0.25).delta(True),
    lambda: numtheory.is_prime_naive(7.5),  # once True
    lambda: numtheory.divisor_count_naive(6.5),  # once 0
    lambda: con.strict_step_cap(4.5, 2.0),  # once 20
    lambda: con.DeltaSchedule(0.25).delta_array(np.array([1.5, 2.0])),  # once a width for no ell
    lambda: con.DeltaSchedule(0.25).delta_array(np.array([True])),
], ids=["lmax", "rayleigh-step", "rayleigh-length", "good-n-range", "thm3-length",
        "thm2-count", "step-length", "step-cap", "periodize-ell", "multiples", "freqs", "ap-step",
        "freqs-bool", "freqs-numpy-bool", "ap-bool", "ap-numpy-bool", "block-bool",
        "periodize-bool", "periodize-numpy-bool", "real-ap-bool", "real-ap-numpy-bool",
        "quadrature-bool", "quadrature-numpy-bool", "rayleigh-bool", "rayleigh-numpy-bool",
        "lmax-bool", "lmax-numpy-bool", "good-n-bool", "good-n-numpy-bool",
        "thm2-bool", "thm2-numpy-bool", "step-bool", "step-cap-numpy-bool",
        "thm3-bool", "thm3-numpy-bool", "limit-bool", "limit-numpy-bool",
        "multiples-bool", "multiples-numpy-bool", "growth-bool", "growth-numpy-bool",
        "scan-float", "scan-bool", "tail-bound-length", "tail-bound-bool", "delta-ell", "delta-bool",
        "prime-naive", "divisor-naive", "step-cap-length", "delta-array-float", "delta-array-bool"])
def test_integer_parameters_are_never_truncated(call):
    # int() would read 64.7 as 64, 2.5 as 2 and (1.5, 4.9) as (1, 4); operator.index
    # alone would read False and True as 0 and 1, so build_adversarial_set(0.25, True)
    # would build the l_max 1 set and multiples_block(True) return [1]
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: spectral.dirichlet_tail_bound(0, 0.1), "length must be >= 1, got 0"),
    (lambda: spectral.dirichlet_tail_bound(-4, 0.1), "length must be >= 1, got -4"),
    (lambda: con.DeltaSchedule(2.0), "epsilon must lie in (0, 1), got 2.0"),
    (lambda: con.DeltaSchedule(-1.0), "epsilon must lie in (0, 1), got -1.0"),
    (lambda: con.DeltaSchedule(float("nan")), "epsilon must lie in (0, 1), got nan"),
    (lambda: con.good_n_search(ARC03, float("nan"), (1, 50)), "eps must lie in (0, inf), got nan"),
    (lambda: con.thm2_target(0.15, 0), "n must be >= 1, got 0"),
    (lambda: spectral.dirichlet_tail_many([4], float("nan")), "delta must lie in (0, 0.5), got nan"),
    (lambda: torus.scale_periodize(float("nan"), 2), "delta must lie in (0, 0.5), got nan"),
    (lambda: con.DeltaSchedule(0.25).delta_array(np.array([0, 1])), "ell must be >= 1, got 0"),
    (lambda: con.DeltaSchedule(0.25).delta_array(np.array([-3])), "ell must be >= 1, got -3"),
    (lambda: numtheory.divisor_growth_report(100, float("nan")), "exponent must lie in (0, inf), got nan"),
    (lambda: numtheory.divisor_growth_report(100, float("inf")), "exponent must lie in (0, inf), got inf"),
    (lambda: numtheory.divisor_growth_report(100, -1e400), "exponent must lie in (0, inf), got -inf"),
], ids=["tail-bound-0", "tail-bound-negative", "epsilon-2", "epsilon-negative", "epsilon-nan",
        "good-n-eps-nan", "thm2-target-0", "regression-tail-many-nan", "regression-periodize-nan",
        "delta-array-0", "delta-array-negative", "growth-exponent-nan", "growth-exponent-inf",
        "growth-exponent-negative-overflow"])
def test_bounds_refuse_values_outside_the_domain(call, message):
    # each once returned a value or raised an uncaught error: a ZeroDivisionError
    # at length 0 and a negative majorant at -4, delta(3) = 0.0512, -0.0256 and
    # nan, an empty scan, and a ZeroDivisionError; the two regression cases were
    # already refused.  good_n_search raises at the call, before any next()
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: torus.fourier_coeff_real_ap(ARC03, 1, torus.REAL_AP_COUNT_LIMIT + 1),
     "count must be at most 65535, got 65536"),
    (lambda: torus.fourier_coeff_real_ap(ARC03, 3, 10 ** 9), "count must be at most 65535, got 1000000000"),
    (lambda: spectral.uniform_rayleigh_ap_many(ARC03, 1, [4, spectral.RAYLEIGH_LENGTH_LIMIT + 1]),
     "length must be at most 65536, got 65537"),
], ids=["real-ap-count", "real-ap-count-1e9", "rayleigh-length"])
def test_sizes_past_their_limit_are_refused(call, message):
    # the kernel's partials grow with count (two 33 MB arrays per block at
    # 2^22, 8 GB at 10^9), and its buffers would keep them for the thread's
    # life; both limits come from one constant, refused before any work
    assert spectral.RAYLEIGH_LENGTH_LIMIT == torus.REAL_AP_COUNT_LIMIT + 1
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_delta_array_is_delta_at_every_ell():
    sched = con.DeltaSchedule(0.25)
    ells = np.array([1, 2, 7, 64, 10 ** 6], dtype=np.int64)
    assert sched.delta_array(ells).tolist() == pytest.approx([sched.delta(e) for e in ells.tolist()],
                                                             rel=1e-15)
