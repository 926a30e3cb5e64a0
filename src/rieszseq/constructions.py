"""The three constructions: an adversarial arc union that defeats every
frequency set with long small-step progressions, and two block/shift
assemblies that keep a certified lower Riesz bound while embedding
progressions of step O(N) and step O(N^alpha), alpha > 1.

Builders are sequential (each shift depends on the previous partial union)
and share one placement step, whose shift scan decides each candidate by a
Schur-complement Cholesky and whose certificate is a full-union eigensolve.
A builder carries the union's Gram from one placement to the next: each
placement builds only the new block's Gram, takes the accepted shift's cross
block from the scan, and assembles the grown union's Gram from the three.
Verification builds the full union's Gram once and cuts every partial
union's Gram from it.  Both give, entry for entry, the matrices gram() builds.
Searches are deterministic with smallest-index tie-breaking throughout.

Every public call that does dense linear algebra (the two builders,
select_shift and verification) runs its BLAS and LAPACK calls on one thread,
so its decisions and certificates do not depend on OPENBLAS_NUM_THREADS.  A
shift scan whose windows are large enough spreads each window's candidates
over worker threads instead, each also on one BLAS thread; the smallest
accepted shift still wins.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import json
import math
import os
import re
import threading
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from . import numtheory, spectral, torus
from .errors import InputError, PropertyViolation, SearchFailed
from .spectral import FrequencySet, frequency_set
from .torus import IntervalSet

SUBSTITUTION_TOL = 1e-9

# build_adversarial_set merges l_max * (l_max + 1) / 2 raw arcs: 524,800 at
# this cap, which leave about 260,000 arcs (about 0.1 s and a 40 MB peak to
# build on 2 cores; the set then keeps 4 MB)
ADVERSARIAL_LMAX_LIMIT = 1024

# a shift-scan window goes to worker threads when its undecided candidates times
# |E|^2 * n, the multiply-adds of each W = L^{-1} C(M), exceed this.  On 2 cores
# windows of 1.2e9 took 0.49-0.79 of their serial time on 2 workers, and
# windows of 9e6-3e8 took 0.54-1.20 of it, from run to run.  The assembly and
# step_search bench decks scan windows of at most 2.1e8 and stay serial; the
# 4- and 5-block [0, 0.3) builds scan thousands of candidates of 4e6-1.3e8.
# The threshold and the one worker per usable core were validated on 2 cores
# only, windows between 3e8 and 1.07e9 were not timed, and no benchmark
# workload runs the pooled side.
PARALLEL_SCAN_WORK = 2 ** 30

# a build file's set_digest: torus.set_digest's 16 lowercase hex digits
_DIGEST = re.compile("[0-9a-f]{16}")

# -------------------------------------------------------------------------
# width schedule delta(ell) for the adversarial set
# -------------------------------------------------------------------------

_SCHEDULE_PARTIAL_TERMS = 10 ** 6


@functools.cache
def _weight_sum_bound() -> float:
    """Certified upper bound for sum_{ell>=1} 1/(ell * log^2(ell+1)).

    Partial sum plus the integral tail bound 1/log(L), padded by 1e-3 so the
    summability check below stays strictly inside the budget.
    """
    ell = np.arange(1, _SCHEDULE_PARTIAL_TERMS + 1, dtype=np.float64)
    partial = float(np.sum(1.0 / (ell * np.log(ell + 1.0) ** 2)))
    tail = 1.0 / math.log(_SCHEDULE_PARTIAL_TERMS)
    return partial + tail + 1e-3


@dataclass(frozen=True)
class DeltaSchedule:
    """delta(ell) = (epsilon/2) * (1/C0) / (ell * log^2(ell+1)).

    Summable with total < epsilon/2, yet decaying only a log factor faster
    than 1/ell, so delta(ell) * ell^(1/alpha) still grows without bound for
    every alpha in (0, 1).
    """

    epsilon: float
    normalizer: float

    def delta(self, ell: int) -> float:
        if ell < 1:
            raise InputError(f"ell must be >= 1, got {ell}")
        return (self.epsilon / 2.0) / self.normalizer / (ell * math.log(ell + 1.0) ** 2)

    def delta_array(self, ells: np.ndarray) -> np.ndarray:
        ells = np.asarray(ells, dtype=np.float64)
        return (self.epsilon / 2.0) / self.normalizer / (ells * np.log(ells + 1.0) ** 2)


def delta_schedule(epsilon: float) -> DeltaSchedule:
    if not (0.0 < epsilon < 1.0):
        raise InputError(f"epsilon must lie in (0, 1), got {epsilon}")
    return DeltaSchedule(float(epsilon), _weight_sum_bound())


def schedule_condition_a(sched: DeltaSchedule, upto: int = _SCHEDULE_PARTIAL_TERMS):
    """(certified bound for sum of delta(ell), epsilon/2); the bound must be smaller."""
    ells = np.arange(1, upto + 1, dtype=np.float64)
    partial = float(np.sum(sched.delta_array(ells)))
    tail = (sched.epsilon / 2.0) / sched.normalizer / math.log(upto)
    return partial + tail, sched.epsilon / 2.0


def _growth_start_decade(alpha: float) -> int:
    """First power of ten past which ell^(1/alpha - 1)/log^2(ell+1) increases.

    The crossover sits near exp(2*alpha/(1-alpha)); below it the log factor
    still dominates the small polynomial exponent, so a monotonicity check
    must start beyond it.
    """
    crossover = math.exp(2.0 * alpha / (1.0 - alpha))
    return max(1, int(math.ceil(math.log10(crossover))))


def schedule_condition_b(
    sched: DeltaSchedule, alphas: Sequence[float] = (0.5, 0.75, 0.9), decades: int = 5
):
    """Growth surrogate for delta(ell) * ell^(1/alpha) -> infinity.

    For each alpha, samples one point per decade starting past the analytic
    crossover and reports the sampled values plus whether they strictly
    increase.  Returns {alpha: (start_decade, values, increasing)}.
    """
    out = {}
    for alpha in alphas:
        if not (0.0 < alpha < 1.0):
            raise InputError(f"alpha must lie in (0, 1), got {alpha}")
        k0 = _growth_start_decade(alpha)
        ells = [10.0 ** k for k in range(k0, k0 + decades)]
        vals = [
            float(sched.delta_array(np.array([e]))[0] * e ** (1.0 / alpha)) for e in ells
        ]
        increasing = all(b > a for a, b in zip(vals, vals[1:]))
        out[alpha] = (10 ** k0, vals, increasing)
    return out


def schedule_widths_ok(sched: DeltaSchedule, upto: int = 10 ** 5) -> bool:
    """delta decreasing and delta(ell) < 1/(2*ell) over the operating range."""
    ells = np.arange(1, upto + 1, dtype=np.float64)
    d = sched.delta_array(ells)
    return bool(np.all(np.diff(d) < 0.0) and np.all(d < 1.0 / (2.0 * ells)))


# -------------------------------------------------------------------------
# adversarial set and the small-step decay demo
# -------------------------------------------------------------------------

def build_adversarial_set(epsilon: float, l_max: int) -> IntervalSet:
    """Complement of the union over ell <= l_max of periodized width-delta(ell) arcs,
    delta from delta_schedule(epsilon).

    Measure exceeds 1 - epsilon because the removed arcs total less than
    2 * sum delta(ell) < epsilon.  The l_max * (l_max + 1) / 2 raw arcs
    k/ell -+ delta(ell)/ell are built and merged as arrays, bitwise the arcs
    that normalizing them and taking the complement give.
    """
    l_max = int(l_max)
    if not 1 <= l_max <= ADVERSARIAL_LMAX_LIMIT:
        raise InputError(f"l_max must lie in [1, {ADVERSARIAL_LMAX_LIMIT}], got {l_max}")
    sched = delta_schedule(epsilon)
    if sched.delta(l_max) >= 1.0 / (2 * l_max):
        raise InputError(f"delta({l_max}) too wide for disjoint periodization")
    ells = np.arange(1, l_max + 1)
    ell = np.repeat(ells, ells)
    k = np.arange(ell.size) - np.repeat(np.cumsum(ells) - ells, ells)
    # delta(ell) from the scalar formula, so math.log rounds every width
    half = np.repeat([sched.delta(e) / e for e in range(1, l_max + 1)], ells)
    center = k / ell
    removed = torus.merge_arcs(center - half, center + half)
    return torus.from_arrays(*torus.complement_arcs(*removed))


@dataclass(frozen=True)
class Thm1Cell:
    """One grid cell of the small-step decay demo."""

    ell: int
    length: int
    delta: float
    rayleigh_uniform: float
    tail_bound: float


def thm1_cell(s: IntervalSet, sched: DeltaSchedule, ell: int, length: int) -> Thm1Cell:
    """Uniform-coefficient energy of the progression {ell, 2*ell, ..., N*ell} on S.

    The one-length case of thm1_cells.
    """
    return thm1_cells(s, sched, ell, [length])[0]


def thm1_cells(s: IntervalSet, sched: DeltaSchedule, ell: int, lengths) -> list[Thm1Cell]:
    """thm1_cell(s, sched, ell, N) for every N in lengths.

    Each energy must not exceed the Dirichlet tail outside the deleted arc of
    half-width delta(ell) (change of variables tau = ell * x maps the
    quadratic form into that tail), which in turn sits under the closed-form
    cotangent majorant.  Both inequalities are asserted for every cell.  The
    energies come from one kernel pass on S and the tails from one on the
    complement arc, each at the largest N.
    """
    d = sched.delta(ell)
    values = spectral.uniform_rayleigh_ap_many(s, ell, lengths)
    tails = spectral.dirichlet_tail_many(lengths, d)
    cells = []
    for length, value, exact_tail in zip(lengths, values, tails):
        if value > exact_tail + SUBSTITUTION_TOL:
            raise PropertyViolation(
                f"substitution inequality failed: rayleigh {value} > tail {exact_tail}"
            )
        bound = spectral.dirichlet_tail_bound(length, d)
        if exact_tail > bound + SUBSTITUTION_TOL:
            raise PropertyViolation(
                f"tail majorant failed: tail {exact_tail} > bound {bound}"
            )
        cells.append(Thm1Cell(int(ell), int(length), d, value, bound))
    return cells


# -------------------------------------------------------------------------
# multiple blocks, good lengths, and the step-O(N) assembly
# -------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockSpec:
    """A shifted progression {shift + step, shift + 2*step, ..., shift + length*step}."""

    n: int
    step: int
    length: int
    shift: int

    def frequencies(self) -> np.ndarray:
        return self.shift + self.step * np.arange(1, self.length + 1, dtype=np.int64)


@dataclass(frozen=True, kw_only=True)
class ScanConfig:
    """Deterministic shift scan over the consecutive shifts start, start + 1, ..., cap;
    never empty, and every shift is below FREQ_LIMIT in absolute value."""

    start: int = 0
    cap: int = 200_000

    def __post_init__(self):
        if self.start > self.cap:
            raise ValueError(
                f"shift scan needs start <= cap, got start {self.start}, cap {self.cap}"
            )
        if max(abs(self.start), abs(self.cap)) >= spectral.FREQ_LIMIT:
            raise ValueError(
                f"shift scan bounds must satisfy |start|, |cap| < 2^62, "
                f"got start {self.start}, cap {self.cap}"
            )


@dataclass(frozen=True)
class LambdaBuild:
    """An assembled frequency set: shifted blocks plus the certified bound schedule.

    schedule[k] is the eigensolved lower Riesz bound of the union of the first
    k+1 blocks; entries are nonincreasing (unions only grow) and each must
    stay above gamma/2.  Blocks sharing a frequency raise ValueError.
    set_digest is torus.set_digest of the set the build was made for, or ""
    when unknown (build files written before the digest was recorded).
    """

    blocks: tuple[BlockSpec, ...]
    gamma: float
    schedule: tuple[float, ...]
    set_digest: str = ""

    def __post_init__(self):
        freqs = self.frequencies()  # sorted, so a shared frequency repeats in place
        if (repeats := np.flatnonzero(np.diff(freqs) == 0)).size:
            raise ValueError(
                f"build blocks overlap: frequency {freqs[repeats[0]]} is in more than one block"
            )

    def frequencies(self) -> np.ndarray:
        if not self.blocks:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate([b.frequencies() for b in self.blocks]))

    def partial_frequency_set(self, upto: int) -> FrequencySet:
        arrs = [b.frequencies() for b in self.blocks[:upto]]
        return frequency_set(np.concatenate(arrs).tolist())


def good_n_search(s: IntervalSet, eps: float, n_range: tuple[int, int]) -> Iterator[int]:
    """Lazily yield each n in [n_lo, n_hi] with sum_{l=1}^{n} |c_hat(l*n)|^2 < eps/n, ascending.

    Arguments are checked when called; each length n then costs only its n
    coefficients c_hat(n), c_hat(2n), ..., c_hat(n^2), evaluated when the
    caller asks for the next hit, so n_hi bounds how far the scan may go, not
    what it costs.  An exhausted scan is a legitimate outcome of truncating an
    infinitary statement, so callers decide whether it is fatal.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    n_lo, n_hi = int(n_range[0]), int(n_range[1])
    if n_lo < 1 or n_hi < n_lo:
        raise ValueError(f"bad range {n_range}")

    def energy(n: int) -> float:
        return float((np.abs(torus.fourier_coeff_many(s, n * np.arange(1, n + 1))) ** 2).sum())

    return (n for n in range(n_lo, n_hi + 1) if energy(n) < eps / n)


def _lambda_min(s: IntervalSet, freqs: FrequencySet) -> float:
    return spectral.extreme_eigs(spectral.gram(s, freqs))[0]


def _gram(s: IntervalSet, freqs: np.ndarray) -> np.ndarray:
    """gram(S, freqs).entries for strictly increasing freqs."""
    return spectral.gram(s, FrequencySet(tuple(freqs.tolist()))).entries


def _shifted_gram(s: IntervalSet, freqs: np.ndarray, target: float) -> np.ndarray:
    """gram(S, freqs) - target*I for strictly increasing freqs."""
    g = _gram(s, freqs)
    return g - target * np.eye(g.shape[0])


def _cholesky(a: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of a, or None if a is not numerically positive definite."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None


@spectral._one_blas_thread()
def select_shift(
    s: IntervalSet,
    existing: LambdaBuild,
    newblock: BlockSpec,
    target: float,
    scan: ScanConfig = ScanConfig(),
) -> int:
    """Smallest scanned shift M keeping the enlarged union above the target bound.

    Requires that the existing union E and the unshifted block B each already
    meet the target t (shift invariance makes the unshifted check valid).  With
    G_E - tI = L L^H factored once, M is accepted when the Schur complement
    (G_B - tI) - W^H W, W = L^{-1} C(M), has a Cholesky factor; only the cross
    block C(M)[i, j] = c_hat(b_j + M - e_i) depends on M.  A candidate costs
    an |E|^2 n product and an n^3/3 Cholesky, each on one BLAS thread.  The
    test is lambda_min > t up to rounding, so a tie at exactly lambda_min = t
    may fall either way.

    Candidates are taken in windows of consecutive shifts, one shift wide at
    first and doubling after each window, and each window evaluates every
    coefficient it needs once: c_hat(d + M) over the distinct differences d
    and the shifts M in the window.  A scan that accepts its first candidate
    thus evaluates exactly the |D| coefficients of that candidate, and the
    unused tail of the last window bounds the waste.  Each coefficient is
    evaluated on its own, so the values, and hence the decisions, are those
    of a per-candidate evaluation.  An exhausted scan reports how many shifts
    it decided and how many it skipped because they met the union.

    A window whose products add up to more than PARALLEL_SCAN_WORK
    multiply-adds has its undecided candidates split in strides over one
    worker thread per usable core, started with the first such window.  Each
    worker decides its candidates in ascending order and returns its first
    accepted one, and the window's shift is the smallest of those; the
    decisions are the serial scan's, so the shift is too.

    This entry point builds G_B and G_E itself; the builders run the same scan
    on the Grams they carry.
    """
    offsets = newblock.frequencies() - newblock.shift
    inblock = _shifted_gram(s, offsets, target)
    if _cholesky(inblock) is None:
        raise ValueError("new block alone is below the target bound")
    existing_freqs = existing.frequencies()
    shifted = _shifted_gram(s, existing_freqs, target) if existing.blocks else np.eye(0)
    return _scan(s, existing_freqs, shifted, offsets, inblock, target, scan)[0]


def _scan(
    s: IntervalSet,
    existing_freqs: np.ndarray,
    shifted: np.ndarray,
    offsets: np.ndarray,
    inblock: np.ndarray,
    target: float,
    scan: ScanConfig,
) -> tuple[int, np.ndarray]:
    """select_shift's scan on shifted = G_E - tI and inblock = G_B - tI, the
    block already checked; returns the accepted shift M and its cross block C(M)."""
    factor = _cholesky(shifted)
    if factor is None:
        raise ValueError("existing partial union is below the target bound")
    linv = np.linalg.inv(factor)  # once per placement; W = linv @ C(M) per candidate
    # C(M) takes only the values c_hat(d + M) over the distinct differences d, sorted
    diff = offsets[None, :] - existing_freqs[:, None]
    diffs, where = np.unique(diff, return_inverse=True)
    where = where.reshape(diff.shape)  # numpy 1.x returns the inverse flat
    work = existing_freqs.size ** 2 * offsets.size  # per candidate
    workers = _scan_workers()
    hint = _Accepted()
    with contextlib.ExitStack() as stack:
        pool = None
        m, width = scan.start, 1
        while m <= scan.cap:  # the window is m, m + 1, ..., m + width - 1
            width = min(width, scan.cap - m + 1)
            # the block shifted by M meets the union exactly when M = -d for some d
            meets = np.zeros(width, dtype=bool)
            meets[-diffs[(-diffs >= m) & (-diffs < m + width)] - m] = True
            if not meets.all():
                # run i holds c_hat(d_i + M) for M = m, m + 1, ... within the window, cut
                # short where d_i + M reaches d_{i+1} + m, the first key of run i + 1; so
                # c_hat(d_i + M) sits at at[i] + M - m for every M, and no key repeats
                runs = np.minimum(np.diff(diffs, append=diffs[-1:] + width), width)
                at = np.cumsum(runs) - runs
                keys = np.repeat(diffs + m - at, runs) + np.arange(runs.sum())
                vals = torus.fourier_coeff_many(s, keys)
                at = at[where]
                todo = np.flatnonzero(~meets).tolist()
                decide = functools.partial(_first_accepted, vals, at, linv, inblock, hint=hint)
                if workers > 1 and len(todo) > 1 and len(todo) * work > PARALLEL_SCAN_WORK:
                    if pool is None:
                        pool = stack.enter_context(_scan_pool(workers))
                        stack.callback(hint.offer, -1)  # stops every worker before the shutdown
                    found = list(pool.map(decide, [todo[j::workers] for j in range(workers)]))
                else:
                    found = [decide(todo)]
                if (accepted := [t for t in found if t is not None]):
                    t = min(accepted)
                    return m + t, vals[at + t]
            m, width = m + width, 2 * width
    # diffs are distinct, so each -d in range is one shift that meets the union
    met = int(np.count_nonzero((-diffs >= scan.start) & (-diffs <= scan.cap)))
    raise SearchFailed(
        f"no shift in [{scan.start}, {scan.cap}] reached target {target}: "
        f"{scan.cap - scan.start + 1 - met} decided by Cholesky, "
        f"{met} skipped for meeting the union"
    )


class _Accepted:
    """The smallest window index that any worker has accepted: a hint that lets
    the others stop early, never the window's result."""

    def __init__(self):
        self.index = math.inf
        self._lock = threading.Lock()

    def offer(self, t) -> None:
        with self._lock:
            self.index = min(self.index, t)


def _first_accepted(vals, at, linv, inblock, candidates, hint: _Accepted) -> int | None:
    """The first of the ascending window indices `candidates` whose Schur
    complement has a Cholesky factor, or None; gives up at a candidate above
    one that some worker has accepted."""
    for t in candidates:
        if t > hint.index:
            return None
        w = linv @ vals[at + t]
        if _cholesky(inblock - w.conj().T @ w) is not None:
            hint.offer(t)
            return t
    return None


def _scan_workers() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _scan_pool(workers: int) -> concurrent.futures.ThreadPoolExecutor:
    """The shift scan's worker threads, each on one BLAS thread."""
    return concurrent.futures.ThreadPoolExecutor(
        workers, thread_name_prefix="rieszseq-scan",
        initializer=spectral._set_blas_threads, initargs=(1,),
    )


def _place(
    s: IntervalSet,
    build: LambdaBuild,
    union: np.ndarray,
    candidate: BlockSpec,
    target: float,
    scan: ScanConfig,
) -> tuple[LambdaBuild, np.ndarray] | None:
    """`build` plus the unshifted `candidate` at the shift select_shift would
    pick, with the grown union's Gram; None if the block alone misses `target`.

    `union` is gram(S, build.frequencies()).entries, carried over from the
    previous placement, so a placement builds only the block's Gram G_B.  The
    grown union's Gram is [[G_E, C(M)], [C(M)^H, G_B]] with its rows and
    columns put in frequency order: every entry is the value, or the exact
    conjugate, that gram() would compute, so the new schedule entry, an
    eigensolve of that matrix, is the eigensolve of gram() of the whole union.
    """
    offsets = candidate.frequencies()
    block = _gram(s, offsets)
    inblock = block - target * np.eye(block.shape[0])
    if _cholesky(inblock) is None:
        return None
    existing = build.frequencies()
    shifted = union - target * np.eye(union.shape[0])
    shift, cross = _scan(s, existing, shifted, offsets, inblock, target, scan)
    placed = offsets + shift
    freqs = np.sort(np.concatenate([existing, placed]))
    e, b = np.searchsorted(freqs, existing), np.searchsorted(freqs, placed)
    grown = np.empty((freqs.size, freqs.size), dtype=np.complex128)
    grown[np.ix_(e, e)] = union
    grown[np.ix_(e, b)] = cross
    grown[np.ix_(b, e)] = cross.conj().T
    grown[np.ix_(b, b)] = block
    cert = spectral.extreme_eigs(spectral.GramMatrix(grown, build.set_digest))[0]
    blocks = build.blocks + (replace(candidate, shift=shift),)
    return replace(build, blocks=blocks, schedule=build.schedule + (cert,)), grown


@spectral._one_blas_thread()
def build_lambda_thm2(
    s: IntervalSet,
    count: int,
    eps: float | None = None,
    n_range: tuple[int, int] = (1, 2000),
    scan: ScanConfig = ScanConfig(),
) -> LambdaBuild:
    """Assemble `count` shifted multiple-blocks with a certified bound schedule.

    Good block lengths n keep the in-block coefficient energy below eps/n, so
    each block alone clears gamma = |S|/2; shifts are then chosen so the k-th
    partial union stays above (gamma/2) * (1 + 1/n_k).  Every schedule entry
    is an actual eigensolve of the partial union.  Good lengths come from the
    lazy good_n_search, which stops as soon as `count` blocks are placed.
    """
    if s.measure <= 0.0:
        raise InputError("build needs a set of positive measure")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if eps is None:
        eps = s.measure / 4.0
    if not (0.0 < eps <= s.measure / 4.0):
        raise ValueError(f"eps must lie in (0, |S|/4], got {eps}")
    hits = good_n_search(s, eps, n_range)  # checks eps and n_range now, searches lazily
    build = LambdaBuild((), s.measure / 2.0, (), torus.set_digest(s))
    union = np.empty((0, 0), dtype=np.complex128)  # gram of the placed blocks, carried
    for n in hits:
        target = (build.gamma / 2.0) * (1.0 + 1.0 / n)
        placed = _place(s, build, union, BlockSpec(n=n, step=n, length=n, shift=0), target, scan)
        if placed is None:  # good sum, but the block alone misses its target at this scale
            continue
        build, union = placed
        if len(build.blocks) == count:
            return build
    raise SearchFailed(
        f"{len(build.blocks)} of {count} blocks met their targets over {n_range}"
    )


# -------------------------------------------------------------------------
# divisor-averaged step search and the step-O(N^alpha) assembly
# -------------------------------------------------------------------------

@dataclass(frozen=True)
class StepSearchResult:
    """Outcome of one divisor-averaged step search."""

    ell: int
    total: float            # sum_{n<=N} |c_hat(n*ell)|^2 at the chosen step
    grid_sum: float         # sum over all steps l <= L of the above
    divisor_sum: float      # sum_{k<=L*N} d(k) |c_hat(k)|^2, the averaging majorant


def step_search_alpha(
    powers: np.ndarray, alpha: float, length: int, l_cap: int | None = None
) -> StepSearchResult:
    """Step l <= L minimizing sum_{n<=N} |c_hat(n*l)|^2 (ties to the smallest l).

    L is l_cap, by default strict_step_cap(N, alpha), the largest step below N^alpha.
    powers[k] = |c_hat(k)|^2 for k = 0..K, with K >= L*N; a caller running
    several searches computes it once at the largest L*N.
    Each integer k = n*l is hit at most d(k) times across the whole grid, so
    the grid total is bounded by the divisor-weighted coefficient energy; the
    certificate records both sides and fails loudly if the inequality breaks.
    The minimum is at most the grid average, which is what makes small sums
    findable at steps below N^alpha.
    """
    length = int(length)
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if alpha <= 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    if l_cap is None:
        l_cap = strict_step_cap(length, alpha)
    l_cap = int(l_cap)
    if l_cap < 1:
        raise ValueError(f"step cap must be >= 1, got {l_cap}")
    span = l_cap * length
    if powers.shape[0] <= span:
        raise InputError(f"powers cover k <= {powers.shape[0] - 1} < L*N = {span}")
    n = np.arange(1, length + 1, dtype=np.int64)
    sums = powers[np.arange(1, l_cap + 1, dtype=np.int64)[:, None] * n].sum(axis=1)
    best = int(np.argmin(sums))  # first minimum, so smallest step wins ties
    total = float(sums[best])
    grid_sum = float(sums.sum())
    counts = numtheory.sieve_divisors(span)
    divisor_sum = float(np.sum(counts[1 : span + 1] * powers[1 : span + 1]))
    if grid_sum > divisor_sum + 1e-12:
        raise PropertyViolation(
            f"averaging certificate failed: {grid_sum} > {divisor_sum}"
        )
    return StepSearchResult(best + 1, total, grid_sum, divisor_sum)


def strict_step_cap(length: int, alpha: float) -> int:
    """Largest integer strictly below length^alpha."""
    try:
        la = float(length) ** alpha
        cap = int(math.floor(la))
    except (OverflowError, ValueError) as exc:
        raise ValueError(f"N^alpha = {length}^{alpha} is not a finite float") from exc
    if float(cap) == la:
        cap -= 1
    if cap < 1:
        raise ValueError(f"no integer step below {length}^{alpha}")
    return cap


@dataclass(frozen=True)
class Thm3Row:
    alpha: float
    length: int
    ell: int
    total: float
    shift: int
    cert_lambda_min: float


@spectral._one_blas_thread()
def build_lambda_thm3(
    s: IntervalSet,
    alphas: Sequence[float],
    n_ranges: Sequence[Sequence[int]],
    scan: ScanConfig = ScanConfig(),
) -> tuple[LambdaBuild, tuple[Thm3Row, ...]]:
    """Diagonal assembly: for each alpha_k and each covered length N, one block
    of length N whose step is the divisor-averaged search winner below N^alpha_k,
    shifted to keep every partial union above gamma/2 with gamma = |S|/2.

    Each n_ranges[k] holds lengths in any collection that can be iterated more
    than once (a list, a range); only its extremes are read before the sieve
    cap is checked, so an oversized range fails without being expanded.
    Returns the build plus per-block search records for reporting.
    """
    if s.measure <= 0.0:
        raise InputError("build needs a set of positive measure")
    alphas = [float(a) for a in alphas]
    if not alphas or len(alphas) != len(n_ranges):
        raise ValueError("need one length range per alpha")
    if not all(math.isfinite(a) for a in alphas):
        raise ValueError(f"every alpha must be finite, got {alphas}")
    if any(a <= 1.0 for a in alphas):
        raise ValueError("every alpha must exceed 1")
    if any(b >= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be strictly decreasing")
    spans = []
    for alpha, lengths in zip(alphas, n_ranges):
        longest = max(lengths, default=None)
        if longest is None:
            raise ValueError(f"empty length range for alpha={alpha}")
        if (shortest := min(lengths)) < 1:
            raise ValueError(f"lengths must be positive, got {shortest}")
        spans.append(strict_step_cap(int(longest), alpha) * int(longest))
    # every search's divisor sieve covers at most this span (cap(N) * N grows with N);
    # check it before any job, table or coefficient is built
    span = numtheory.check_limit(max(spans), 4)
    jobs = [
        (alpha, int(n), strict_step_cap(int(n), alpha))
        for alpha, lengths in zip(alphas, n_ranges)
        for n in lengths
    ]
    powers = np.abs(torus.fourier_coeff_many(s, np.arange(span + 1))) ** 2
    build = LambdaBuild((), s.measure / 2.0, (), torus.set_digest(s))
    union = np.empty((0, 0), dtype=np.complex128)  # gram of the placed blocks, carried
    target = build.gamma / 2.0
    rows: list[Thm3Row] = []
    for alpha, n, cap in jobs:
        found = step_search_alpha(powers, alpha, n, cap)
        placed = _place(s, build, union, BlockSpec(n=n, step=found.ell, length=n, shift=0), target, scan)
        if placed is None:
            raise SearchFailed(
                f"block of length {n} at step {found.ell} is below gamma/2 = {target}"
            )
        build, union = placed
        shift, cert = build.blocks[-1].shift, build.schedule[-1]
        rows.append(Thm3Row(alpha, n, found.ell, found.total, shift, cert))
    return build, tuple(rows)


# -------------------------------------------------------------------------
# build serialization and certificate re-verification
# -------------------------------------------------------------------------

def build_to_dict(build: LambdaBuild, set_ref: str = "") -> dict:
    """The build file's object; "set_digest" is written when the digest is known."""
    return {
        "gamma": build.gamma,
        "blocks": [
            {
                "n": b.n,
                "step": b.step,
                "length": b.length,
                "shift": b.shift,
                "cert_lambda_min": cert,
            }
            for b, cert in zip(build.blocks, build.schedule)
        ],
        "set": set_ref,
        **({"set_digest": build.set_digest} if build.set_digest else {}),
    }


def _block_from_dict(b: dict) -> BlockSpec:
    """A BlockSpec from integer fields whose frequencies all lie strictly within
    FREQ_LIMIT, so BlockSpec.frequencies and every Gram difference stay in int64."""
    fields = {key: b[key] for key in ("n", "step", "length", "shift")}
    for key, v in fields.items():
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"block {key} must be an integer, got {v!r}")
    spec = BlockSpec(**fields)
    if spec.step < 1 or spec.length < 1:
        raise ValueError(f"block step and length must be positive, got {spec}")
    first, last = spec.shift + spec.step, spec.shift + spec.step * spec.length
    if any(abs(v) >= spectral.FREQ_LIMIT for v in (*fields.values(), first, last)):
        raise ValueError(f"block {spec} has a value or frequency with |f| >= 2^62")
    return spec


def build_from_dict(d: dict) -> tuple[LambdaBuild, str]:
    """Parse a build object; anything but an object with a "blocks" list of
    objects, a block outside int64-safe range, blocks sharing a frequency, or
    a "set_digest" that is not 16 lowercase hex digits raises ValueError.  An
    object without "set_digest" parses with the digest "" (unknown)."""
    raw = d.get("blocks") if isinstance(d, dict) else None
    if not isinstance(raw, list) or not all(isinstance(b, dict) for b in raw):
        raise ValueError('a build must be an object with a "blocks" list of objects')
    blocks = tuple(_block_from_dict(b) for b in raw)
    try:
        schedule = tuple(float(b["cert_lambda_min"]) for b in raw)
        gamma = float(d["gamma"])
    except TypeError as exc:
        raise ValueError(f"gamma and cert_lambda_min must be numbers: {exc}") from exc
    digest = d.get("set_digest", "")
    if "set_digest" in d and not (isinstance(digest, str) and _DIGEST.fullmatch(digest)):
        raise ValueError(f"set_digest must be 16 lowercase hex digits, got {digest!r}")
    return LambdaBuild(blocks, gamma, schedule, digest), str(d.get("set", ""))


def save_build(build: LambdaBuild, path, set_ref: str = "") -> None:
    with open(path, "w") as fh:
        json.dump(build_to_dict(build, set_ref), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_build(path) -> tuple[LambdaBuild, str]:
    with open(path) as fh:
        return build_from_dict(json.load(fh))


@dataclass(frozen=True)
class VerifyRow:
    index: int
    stated: float
    recomputed: float
    ok: bool


def verify_build(s: IntervalSet, build: LambdaBuild, tol: float = 1e-9) -> list[VerifyRow]:
    """Re-derive every partial-union certificate by a fresh eigensolve; a row
    is ok when it matches the stated bound and clears gamma/2, both within tol.
    Disjoint blocks are LambdaBuild's own invariant.

    The full union's Gram is built once, and each partial union's Gram is its
    principal submatrix at that union's frequencies: the matrix gram() builds
    for the partial union, entry for entry.
    """
    return _verify(s, build, tol)[0] if build.blocks else []


def _partial_grams(s: IntervalSet, build: LambdaBuild) -> Iterator[spectral.GramMatrix]:
    """Gram of the union of the first k blocks for k = 1, 2, ..., all cut from
    one gram() of the whole union, which comes last."""
    freqs = build.frequencies()
    g = spectral.gram(s, FrequencySet(tuple(freqs.tolist())))
    owner = np.empty(freqs.size, dtype=np.int64)  # the block each frequency is in
    for k, b in enumerate(build.blocks):
        owner[np.searchsorted(freqs, b.frequencies())] = k
    for k in range(1, len(build.blocks)):
        at = np.flatnonzero(owner < k)
        yield spectral.GramMatrix(g.entries[np.ix_(at, at)], g.set_digest)
    yield g


@spectral._one_blas_thread()
def _verify(
    s: IntervalSet, build: LambdaBuild, tol: float = 1e-9
) -> tuple[list[VerifyRow], spectral.RieszReport]:
    """verify_build's rows plus the whole union's riesz_report, which reuses the
    last row's eigensolve; a build without blocks raises ValueError, and one
    whose recorded set digest is not s's raises InputError before any Gram."""
    if build.set_digest and build.set_digest != (digest := torus.set_digest(s)):
        raise InputError(
            f"build was made for the set with digest {build.set_digest}, "
            f"but the given set has digest {digest}"
        )
    rows = []
    for k, g in enumerate(_partial_grams(s, build), start=1):
        eigs = spectral.extreme_eigs(g)
        lam, stated = eigs[0], build.schedule[k - 1]
        ok = abs(lam - stated) <= tol and lam >= build.gamma / 2.0 - tol
        rows.append(VerifyRow(k, stated, lam, ok))
    return rows, spectral._report(s, g, eigs)
