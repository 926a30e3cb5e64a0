"""The three constructions: an adversarial arc union that defeats every
frequency set with long small-step progressions, and two block/shift
assemblies that keep a certified lower Riesz bound while embedding
progressions of step O(N) and step O(N^alpha), alpha > 1.

Builders are sequential (each shift depends on the previous partial union)
and share one placement step, whose shift scan rejects most candidates by a
2x2 principal minor and decides the rest by a Schur-complement Cholesky, and
whose certificate is a full-union eigensolve.  The minor test evaluates only
the coefficients small enough in |k| to fail it; a decided candidate takes
its own, and the union's Cholesky factor is inverted once per placement, by
halves.
A builder carries the union's Gram from one placement to the next: each
placement builds only the new block's Gram, takes the accepted shift's cross
block from the scan, and assembles the grown union's Gram from the three.
Verification builds the full union's Gram once and cuts every partial
union's Gram from it.  Both give, entry for entry, the matrices gram() builds.
Searches are deterministic with smallest-index tie-breaking throughout.

Every public call that does dense linear algebra (the two builders,
select_shift and verify_build) runs its BLAS and LAPACK calls on one thread,
so its decisions and certificates do not depend on OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from . import numtheory, spectral, torus
from .errors import InputError, PropertyViolation, SearchFailed
# frequency_set is unused here; bench/tests/test_bench.py reaches it as constructions.frequency_set
from .spectral import frequency_set
from .torus import IntervalSet, _at_least, _index, _inside, _number, _one_blas_thread

SUBSTITUTION_TOL = 1e-9

# build_adversarial_set merges l_max * (l_max + 1) / 2 raw arcs: 524,800 at
# this cap, which leave about 260,000 arcs (about 0.1 s and a 40 MB peak to
# build on 2 cores; the set then keeps 4 MB)
ADVERSARIAL_LMAX_LIMIT = 1024

# the shift scan rejects a shift without a Cholesky when it puts into G - tI a
# 2x2 principal minor [[a, c], [conj(c), a]], a = |S| - t, whose eigenvalue
# a - |c| is at most -MINOR_MARGIN.  The margin leaves every closer call, where
# rounding could flip the sign, to the Cholesky, which decides it as before
MINOR_MARGIN = 1e-9

# _lower_inverse hands a triangle of at most this many rows to np.linalg.inv;
# 16 to 64 rows time alike at 295 to 1600 rows
INVERSE_BASE = 32

# verify_build accepts a recomputed certificate within this of the stated one,
# and one at most this below gamma/2
VERIFY_TOL = 1e-9

# a build file's set_digest: torus.set_digest's 16 lowercase hex digits
_DIGEST = re.compile("[0-9a-f]{16}")

# -------------------------------------------------------------------------
# width schedule delta(ell) for the adversarial set
# -------------------------------------------------------------------------

_SCHEDULE_PARTIAL_TERMS = 10 ** 6

# schedule_condition_b samples delta(ell) * ell^(1/alpha) at GROWTH_DECADES
# powers of ten for each of these alpha
GROWTH_ALPHAS = (0.5, 0.75, 0.9)
GROWTH_DECADES = 5

# schedule_widths_ok checks ell = 1..WIDTH_TERMS, past every l_max a set may use
WIDTH_TERMS = 10 ** 5


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
    every alpha in (0, 1).  C0 is _weight_sum_bound(), which makes the sum
    of delta(ell) less than epsilon/2.  epsilon must lie in (0, 1), and is
    stored as a float.
    """

    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _inside(self.epsilon, 0.0, 1.0, "epsilon"))

    @property
    def normalizer(self) -> float:
        return _weight_sum_bound()

    def delta(self, ell: int) -> float:
        ell = _at_least(ell, 1, "ell")
        return (self.epsilon / 2.0) / self.normalizer / (ell * math.log(ell + 1.0) ** 2)

    def half_widths(self, l_max: int) -> list[float]:
        """delta(ell) / ell for ell = 1..l_max, each bitwise delta's scalar value
        divided by ell: the same math.log expression, with ell checked once."""
        scale = (self.epsilon / 2.0) / self.normalizer
        return [scale / (ell * math.log(ell + 1.0) ** 2) / ell for ell in range(1, _index(l_max) + 1)]

    def delta_array(self, ells: np.ndarray) -> np.ndarray:
        """delta(ell) for every ell of an integer array; each ell must be at least 1."""
        ells = np.asarray(ells)
        if ells.dtype.kind not in "iu":  # bool is kind "b", float "f"
            raise TypeError(f"an array of {ells.dtype} cannot be interpreted as an integer array")
        if ells.size and (low := ells.min()) < 1:
            raise InputError(f"ell must be >= 1, got {low}")
        ells = ells.astype(np.float64)
        return (self.epsilon / 2.0) / self.normalizer / (ells * np.log(ells + 1.0) ** 2)


def schedule_condition_a(sched: DeltaSchedule):
    """(certified bound for sum of delta(ell), epsilon/2); the bound must be smaller."""
    ells = np.arange(1, _SCHEDULE_PARTIAL_TERMS + 1, dtype=np.int64)
    partial = float(np.sum(sched.delta_array(ells)))
    tail = (sched.epsilon / 2.0) / sched.normalizer / math.log(_SCHEDULE_PARTIAL_TERMS)
    return partial + tail, sched.epsilon / 2.0


def _growth_start_decade(alpha: float) -> int:
    """First power of ten past which ell^(1/alpha - 1)/log^2(ell+1) increases.

    The crossover sits near exp(2*alpha/(1-alpha)); below it the log factor
    still dominates the small polynomial exponent, so a monotonicity check
    must start beyond it.
    """
    crossover = math.exp(2.0 * alpha / (1.0 - alpha))
    return max(1, int(math.ceil(math.log10(crossover))))


def schedule_condition_b(sched: DeltaSchedule):
    """Growth surrogate for delta(ell) * ell^(1/alpha) -> infinity.

    For each alpha in GROWTH_ALPHAS, samples one point per decade starting
    past the analytic crossover and reports the sampled values plus whether
    they strictly increase.  Returns {alpha: (start_decade, values, increasing)}.
    """
    out = {}
    for alpha in GROWTH_ALPHAS:
        k0 = _growth_start_decade(alpha)
        ells = [10 ** k for k in range(k0, k0 + GROWTH_DECADES)]
        vals = [
            float(sched.delta_array(np.array([e]))[0] * e ** (1.0 / alpha)) for e in ells
        ]
        increasing = all(b > a for a, b in zip(vals, vals[1:]))
        out[alpha] = (10 ** k0, vals, increasing)
    return out


def schedule_widths_ok(sched: DeltaSchedule) -> bool:
    """delta decreasing and delta(ell) < 1/(2*ell) over the operating range."""
    ells = np.arange(1, WIDTH_TERMS + 1, dtype=np.int64)
    d = sched.delta_array(ells)
    return bool(np.all(np.diff(d) < 0.0) and np.all(d < 1.0 / (2.0 * ells)))


# -------------------------------------------------------------------------
# adversarial set and the small-step decay demo
# -------------------------------------------------------------------------

def build_adversarial_set(epsilon: float, l_max: int) -> IntervalSet:
    """Complement of the union over ell <= l_max of periodized width-delta(ell) arcs,
    delta from DeltaSchedule(epsilon).

    Measure exceeds 1 - epsilon because the removed arcs total less than
    2 * sum delta(ell) < epsilon.  The l_max * (l_max + 1) / 2 raw arcs
    k/ell -+ delta(ell)/ell are built and merged as arrays, bitwise the arcs
    that normalizing them and taking the complement give.
    """
    l_max = _index(l_max)
    if not 1 <= l_max <= ADVERSARIAL_LMAX_LIMIT:
        raise InputError(f"l_max must lie in [1, {ADVERSARIAL_LMAX_LIMIT}], got {l_max}")
    sched = DeltaSchedule(epsilon)
    if sched.delta(l_max) >= 1.0 / (2 * l_max):
        raise InputError(f"delta({l_max}) too wide for disjoint periodization")
    ells = np.arange(1, l_max + 1)
    ell = np.repeat(ells, ells)
    k = np.arange(ell.size) - np.repeat(np.cumsum(ells) - ells, ells)
    # delta(ell) from the scalar formula, so math.log rounds every width
    half = np.repeat(sched.half_widths(l_max), ells)
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


def thm1_cells(s: IntervalSet, sched: DeltaSchedule, ell: int, lengths) -> list[Thm1Cell]:
    """Uniform-coefficient energy of the progression {ell, 2*ell, ..., N*ell} on S,
    one cell for every N in lengths.

    Each energy must not exceed the Dirichlet tail outside the deleted arc of
    half-width delta(ell) (change of variables tau = ell * x maps the
    quadratic form into that tail), which in turn sits under the closed-form
    cotangent majorant.  Both inequalities are asserted for every cell.  The
    energies come from one kernel pass on S at the largest N, and the tails
    from the complement arc's closed-form coefficients.
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

    step: int
    length: int
    shift: int

    def frequencies(self) -> np.ndarray:
        return spectral.arithmetic_progression(self.shift, self.step, self.length)


@dataclass(frozen=True, kw_only=True)
class ScanConfig:
    """Deterministic shift scan over the consecutive shifts start, start + 1, ..., cap;
    never empty, and every shift is a Python int below FREQ_LIMIT in absolute value."""

    start: int = 0
    cap: int = 200_000

    def __post_init__(self):
        object.__setattr__(self, "start", _index(self.start))
        object.__setattr__(self, "cap", _index(self.cap))
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
    stay above gamma/2.  More than spectral.GRAM_SIZE_LIMIT frequencies, a block
    that arithmetic_progression refuses, or blocks sharing a frequency raise ValueError.
    set_digest is torus.set_digest of the set the build was made for, or ""
    when unknown (build files written before the digest was recorded).
    """

    blocks: tuple[BlockSpec, ...]
    gamma: float
    schedule: tuple[float, ...]
    set_digest: str = ""

    def __post_init__(self):
        if (size := sum(b.length for b in self.blocks)) > spectral.GRAM_SIZE_LIMIT:
            raise ValueError(f"build has {size} frequencies, more than {spectral.GRAM_SIZE_LIMIT}")
        freqs = self.frequencies()  # sorted, so a shared frequency repeats in place
        if (repeats := np.flatnonzero(np.diff(freqs) == 0)).size:
            raise ValueError(
                f"build blocks overlap: frequency {freqs[repeats[0]]} is in more than one block"
            )

    def frequencies(self) -> np.ndarray:
        parts = [np.empty(0, dtype=np.int64)]
        for k, b in enumerate(self.blocks, start=1):
            try:
                parts.append(b.frequencies())
            except ValueError as exc:  # raised only by __post_init__'s call
                raise ValueError(f"block {k}: {exc}") from None
        return np.sort(np.concatenate(parts))


def good_n_search(s: IntervalSet, eps: float, n_range: tuple[int, int]) -> Iterator[int]:
    """Lazily yield each n in [n_lo, n_hi] with sum_{l=1}^{n} |c_hat(l*n)|^2 < eps/n, ascending.

    Arguments are checked when called; each length n then costs only its n
    coefficients c_hat(n), c_hat(2n), ..., c_hat(n^2), evaluated when the
    caller asks for the next hit, so n_hi bounds how far the scan may go, not
    what it costs.  An exhausted scan is a legitimate outcome of truncating an
    infinitary statement, so callers decide whether it is fatal.
    """
    eps = _inside(eps, 0.0, math.inf, "eps")
    lo, hi = n_range
    n_lo, n_hi = _at_least(lo, 1, "n_lo"), _index(hi)
    if n_hi < n_lo:
        raise ValueError(f"bad range {n_range}")

    def energy(n: int) -> float:
        return float((np.abs(torus.fourier_coeff_many(s, n * np.arange(1, n + 1))) ** 2).sum())

    return (n for n in range(n_lo, n_hi + 1) if energy(n) < eps / n)


def _lambda_min(s: IntervalSet, freqs: np.ndarray) -> float:
    return spectral.extreme_eigs(spectral.gram(s, freqs))[0]


def _cholesky(a: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of a, or None if a is not numerically positive definite."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None


@_one_blas_thread()
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
    block C(M)[i, j] = c_hat(b_j + M - e_i) depends on M.  The test is
    lambda_min > t up to rounding, so a tie at exactly lambda_min = t may fall
    either way.

    Candidates are taken in windows of consecutive shifts, one shift wide at
    first and doubling after each window.  C(M) takes the values c_hat(d + M)
    over the distinct differences d in D.

    Most candidates never reach the Cholesky.  A shift with b_j + M - e_i = k
    for some k in K = {k != 0 : |c_hat(k)| >= |S| - t + MINOR_MARGIN} puts the
    2x2 principal minor [[|S| - t, c_hat(k)], [conj(c_hat(k)), |S| - t]] into
    G - tI, and that minor's eigenvalue |S| - t - |c_hat(k)| is negative, so
    the Cholesky would fail.  K is small, since |c_hat(k)| <= arcs/(pi |k|):
    every k in K has |k| <= near = floor(arcs/(pi (|S| - t + MINOR_MARGIN))
    (1 + 1e-6)) + 1, and on [0, 0.3) K is {-1, 1} for every target in
    [0.043, 0.112].  So each window evaluates only its keys d + M within
    near, picks out the k in K among them and marks the shifts they reject
    at O(|K| |D|).  The candidates left, the survivors, are decided in
    ascending order, each by an |E|^2 n product with L^{-1} and an n^3/3
    Cholesky on one BLAS thread.  L^{-1} is formed once per placement, by
    halves (_lower_inverse).

    The placement's first survivor is decided from its own |D| coefficients,
    so a scan that accepts it evaluates, besides those, only each window's
    keys within near.  Later survivors in a window share one run of
    keys, c_hat(d + M) for M from the first of them to the window's end.  A
    key a window has already evaluated is read, not evaluated again.  Each
    coefficient is evaluated on its own, so the values, and hence the
    decisions, are those of a per-candidate evaluation.  An exhausted scan
    reports how many shifts it decided by Cholesky, how many failed a 2x2
    minor and how many it skipped because they met the union.

    This entry point builds G_E and runs the builders' placement step, _place,
    which also eigensolves the grown union for its certificate.  A target that
    is not finite raises ValueError.
    """
    if not math.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")
    freqs = existing.frequencies()
    union = spectral.gram(s, freqs).entries if existing.blocks else np.empty((0, 0), dtype=np.complex128)
    placed = _place(s, existing, union, replace(newblock, shift=0), target, scan)
    if placed is None:
        raise ValueError("new block alone is below the target bound")
    return placed[0].blocks[-1].shift


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
    linv = _lower_inverse(factor)  # once per placement; W = linv @ C(M) per candidate

    def accepts(cross: np.ndarray) -> bool:
        w = linv @ cross
        return _cholesky(inblock - w.conj().T @ w) is not None

    # C(M) takes only the values c_hat(d + M) over the distinct differences d, sorted
    diff = offsets[None, :] - existing_freqs[:, None]
    diffs, where = np.unique(diff, return_inverse=True)
    where = where.reshape(diff.shape)  # numpy 1.x returns the inverse flat
    least = s.measure - target + MINOR_MARGIN  # the |c_hat| that fails a 2x2 minor
    # |c_hat(k)| <= arcs/(pi |k|) < least for |k| > near, so only keys within near
    # can fail a 2x2 minor; the factor 1 + 1e-6 leaves room for the kernel's rounding
    near = int(len(s.arcs) / (math.pi * least) * (1.0 + 1e-6)) + 1
    met = failed = 0
    first = True  # no survivor decided yet
    m, width = scan.start, 1
    while m <= scan.cap:  # the window is m, m + 1, ..., m + width - 1
        width = min(width, scan.cap - m + 1)
        # the block shifted by M meets the union exactly when d + M = 0 for some d
        meets = _window_marks(-diffs, m, width)
        met += int(np.count_nonzero(meets))
        if not meets.all():
            # the window's keys d + M within near, its runs clipped to [-near, near]
            starts, runs = _runs(diffs, m, width)
            lo, hi = np.maximum(starts, -near), np.minimum(starts + runs, near + 1)
            near_keys = _run_keys(lo, np.maximum(hi - lo, 0))
            near_vals = torus.fourier_coeff_many(s, near_keys)
            # it fails a 2x2 minor when d + M is a key k with |c_hat(k)| >= least
            fails = np.zeros(width, dtype=bool)
            for k in near_keys[np.abs(near_vals) >= least].tolist():
                fails |= _window_marks(k - diffs, m, width)
            fails &= ~meets
            failed += int(np.count_nonzero(fails))
            survivors = np.flatnonzero(~(meets | fails)).tolist()
            known, known_vals = near_keys, near_vals
            if survivors and first:  # the placement's first survivor takes only its |D| values
                first, t = False, survivors.pop(0)
                keys = diffs + (m + t)
                vals = _values(s, keys, known, known_vals)
                if accepts(vals[where]):
                    return m + t, vals[where]
                known = np.concatenate([known, keys])
                order = np.argsort(known, kind="stable")
                known, known_vals = known[order], np.concatenate([known_vals, vals])[order]
            if survivors:  # the window's later survivors share one run of keys from the first on
                starts, runs = _runs(diffs, m + survivors[0], width - survivors[0])
                vals = _values(s, _run_keys(starts, runs), known, known_vals)
                at = (np.cumsum(runs) - runs)[where] - survivors[0]
                for t in survivors:
                    if accepts(vals[at + t]):
                        return m + t, vals[at + t]
        m, width = m + width, 2 * width
    raise SearchFailed(
        f"no shift in [{scan.start}, {scan.cap}] reached target {target}: "
        f"{scan.cap - scan.start + 1 - met - failed} decided by Cholesky, "
        f"{failed} failed a 2x2 minor, {met} skipped for meeting the union"
    )


def _runs(diffs: np.ndarray, m: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The keys d + M over the ascending distinct d and the shifts M = m, m + 1, ...,
    m + width - 1, as runs of consecutive keys: run i starts at d_i + m and is cut
    short where it reaches d_{i+1} + m, the start of run i + 1.  So no key repeats,
    and d_i + M sits at position at_i + M - m of the runs laid end to end, at_i
    the total length of the runs before run i.  Returns (starts, lengths)."""
    return diffs + m, np.minimum(np.diff(diffs, append=diffs[-1:] + width), width)


def _run_keys(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The keys start, start + 1, ..., start + length - 1 of every run, run after run."""
    at = np.cumsum(lengths) - lengths
    return np.repeat(starts - at, lengths) + np.arange(lengths.sum())


def _values(s: IntervalSet, keys: np.ndarray, known: np.ndarray, known_vals: np.ndarray) -> np.ndarray:
    """c_hat at the keys: read from known_vals for the keys in the ascending `known`,
    evaluated in one call for the rest."""
    at = np.searchsorted(known, keys)
    hit = at < known.size
    hit[hit] = known[at[hit]] == keys[hit]
    vals = np.empty(keys.size, dtype=np.complex128)
    vals[hit] = known_vals[at[hit]]
    vals[~hit] = torus.fourier_coeff_many(s, keys[~hit])
    return vals


def _window_marks(points: np.ndarray, m: int, width: int) -> np.ndarray:
    """Marks the shifts in the window m, m + 1, ..., m + width - 1 that are in `points`."""
    marks = np.zeros(width, dtype=bool)
    marks[points[(points >= m) & (points < m + width)] - m] = True
    return marks


def _lower_inverse(lower: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of a lower-triangular matrix with no zero on its diagonal,
    written into `out` (zeros of lower's shape when None) and returned.

    Blockwise, [[A, 0], [B, D]]^-1 = [[A^-1, 0], [-D^-1 B A^-1, D^-1]], so past
    INVERSE_BASE rows the work is matrix products (Du Croz and Higham, IMA J.
    Numer. Anal. 12, 1992); a block of at most INVERSE_BASE rows is inverted by
    np.linalg.inv.  Each block is written in place, so the peak is the result
    and one quarter-size product.  On one BLAS thread of a 2-vCPU machine it
    took 2.2 ms at 295 rows and 54 ms at 1010, against 10.6 and 241 ms for
    np.linalg.inv.
    """
    out = np.zeros_like(lower) if out is None else out
    m = lower.shape[0]
    if m <= INVERSE_BASE:
        out[...] = np.linalg.inv(lower)
        return out
    h = m // 2
    a_inv = _lower_inverse(lower[:h, :h], out[:h, :h])
    d_inv = _lower_inverse(lower[h:, h:], out[h:, h:])
    np.matmul(d_inv, lower[h:, :h] @ a_inv, out=out[h:, :h])
    np.negative(out[h:, :h], out=out[h:, :h])
    return out


def _place(
    s: IntervalSet,
    build: LambdaBuild,
    union: np.ndarray,
    candidate: BlockSpec,
    target: float,
    scan: ScanConfig,
) -> tuple[LambdaBuild, np.ndarray] | None:
    """`build` plus the unshifted `candidate` at the shift select_shift
    describes, with the grown union's Gram; None if the block alone misses
    `target`.

    `union` is gram(S, build.frequencies()).entries, carried over from the
    previous placement, so a placement builds only the block's Gram G_B.  The
    grown union's Gram is [[G_E, C(M)], [C(M)^H, G_B]] with its rows and
    columns put in frequency order: every entry is the value, or the exact
    conjugate, that gram() would compute, so the new schedule entry, an
    eigensolve of that matrix, is the eigensolve of gram() of the whole union.
    A grown union of more than spectral.GRAM_SIZE_LIMIT frequencies raises
    ValueError before any of this.
    """
    if (size := union.shape[0] + candidate.length) > spectral.GRAM_SIZE_LIMIT:
        raise ValueError(
            f"placing a block of length {candidate.length} would give the build {size} "
            f"frequencies, more than {spectral.GRAM_SIZE_LIMIT}"
        )
    offsets = candidate.frequencies()
    block = spectral.gram(s, offsets).entries
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


def thm2_target(gamma: float, n: int) -> float:
    """(gamma/2)(1 + 1/n): build_lambda_thm2's bound for the union as it places block n."""
    return (gamma / 2.0) * (1.0 + 1.0 / _at_least(n, 1, "n"))


@_one_blas_thread()
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
    count = _at_least(count, 1, "count")
    if eps is None:
        eps = s.measure / 4.0
    if not (0.0 < eps <= s.measure / 4.0):
        raise ValueError(f"eps must lie in (0, |S|/4], got {eps}")
    hits = good_n_search(s, eps, n_range)  # checks eps and n_range now, searches lazily
    build = LambdaBuild((), s.measure / 2.0, (), torus.set_digest(s))
    union = np.empty((0, 0), dtype=np.complex128)  # gram of the placed blocks, carried
    for n in hits:
        target = thm2_target(build.gamma, n)
        placed = _place(s, build, union, BlockSpec(step=n, length=n, shift=0), target, scan)
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

    alpha: float
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
    length, alpha = _at_least(length, 1, "length"), _inside(alpha, 1.0, math.inf, "alpha")
    l_cap = strict_step_cap(length, alpha) if l_cap is None else _at_least(l_cap, 1, "step cap")
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
    return StepSearchResult(alpha, best + 1, total, grid_sum, divisor_sum)


def strict_step_cap(length: int, alpha: float) -> int:
    """Largest integer strictly below length^alpha."""
    length = _at_least(length, 1, "length")
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


@_one_blas_thread()
def build_lambda_thm3(
    s: IntervalSet,
    alphas: Sequence[float],
    n_ranges: Sequence[Sequence[int]],
    scan: ScanConfig = ScanConfig(),
) -> tuple[LambdaBuild, tuple[StepSearchResult, ...]]:
    """Diagonal assembly: for each alpha_k and each covered length N, one block
    of length N whose step is the divisor-averaged search winner below N^alpha_k,
    shifted to keep every partial union above gamma/2 with gamma = |S|/2.

    Each n_ranges[k] is an iterable of lengths, read once, in order.  Each
    length's span cap(N) * N is checked against the sieve cap as it is read,
    so a range fails at its first oversized length however long it is.  The
    lengths' sum, the build's size, is then checked against
    spectral.GRAM_SIZE_LIMIT, before any coefficient is computed.
    Returns the build plus each block's step search, in block order.
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
    # every search's divisor sieve covers its span, and the blocks fit one Gram;
    # check both before any table or coefficient is built
    jobs = []
    for alpha, lengths in zip(alphas, n_ranges):
        before = len(jobs)
        for n in map(_index, lengths):
            cap = strict_step_cap(n, alpha)  # refuses n < 1
            numtheory.check_limit(cap * n, 4)
            jobs.append((alpha, n, cap))
        if len(jobs) == before:
            raise ValueError(f"empty length range for alpha={alpha}")
    if (size := sum(n for _, n, _ in jobs)) > spectral.GRAM_SIZE_LIMIT:
        raise ValueError(
            f"the lengths sum to {size} frequencies, more than {spectral.GRAM_SIZE_LIMIT}"
        )
    span = max(cap * n for _, n, cap in jobs)
    powers = np.abs(torus.fourier_coeff_many(s, np.arange(span + 1))) ** 2
    build = LambdaBuild((), s.measure / 2.0, (), torus.set_digest(s))
    union = np.empty((0, 0), dtype=np.complex128)  # gram of the placed blocks, carried
    target = build.gamma / 2.0
    searches = []
    for alpha, n, cap in jobs:
        found = step_search_alpha(powers, alpha, n, cap)
        placed = _place(s, build, union, BlockSpec(step=found.ell, length=n, shift=0), target, scan)
        if placed is None:
            raise SearchFailed(
                f"block of length {n} at step {found.ell} is below gamma/2 = {target}"
            )
        build, union = placed
        searches.append(found)
    return build, tuple(searches)


# -------------------------------------------------------------------------
# build serialization and certificate re-verification
# -------------------------------------------------------------------------

def build_to_dict(build: LambdaBuild, set_ref: str = "") -> dict:
    """The build file's object; "set_digest" is written when the digest is known."""
    return {
        "gamma": build.gamma,
        "blocks": [
            {
                "n": b.length,
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


def build_from_dict(d: dict) -> LambdaBuild:
    """Parse a build object; anything but an object with a "blocks" list of
    objects, a block without one of its five keys (named with the block's
    1-based index), a block field that is not an integer, an "n" other than
    the block's "length", a gamma or cert_lambda_min that is not a number, a
    "set_digest" that is not 16 lowercase hex digits, or a build that
    LambdaBuild refuses raises ValueError.  An object without "set_digest"
    parses with the digest "" (unknown)."""
    raw = d.get("blocks") if isinstance(d, dict) else None
    if not isinstance(raw, list) or not all(isinstance(b, dict) for b in raw):
        raise ValueError('a build must be an object with a "blocks" list of objects')
    for k, b in enumerate(raw, start=1):
        for key in ("n", "step", "length", "shift", "cert_lambda_min"):
            if key not in b:
                raise ValueError(f'block {k} has no "{key}"')
        for key in ("n", "step", "length", "shift"):
            if not isinstance(b[key], int) or isinstance(b[key], bool):
                raise ValueError(f"block {k} {key} must be an integer, got {b[key]!r}")
        if b["n"] != b["length"]:  # "n" is read only to be checked
            raise ValueError(f"block {k} has n {b['n']}, which must equal its length {b['length']}")
    blocks = tuple(BlockSpec(b["step"], b["length"], b["shift"]) for b in raw)
    schedule = tuple(_number(b["cert_lambda_min"], "cert_lambda_min") for b in raw)
    gamma = _number(d.get("gamma"), "gamma")
    digest = d.get("set_digest", "")
    if "set_digest" in d and not (isinstance(digest, str) and _DIGEST.fullmatch(digest)):
        raise ValueError(f"set_digest must be 16 lowercase hex digits, got {digest!r}")
    return LambdaBuild(blocks, gamma, schedule, digest)


def save_build(build: LambdaBuild, path, set_ref: str = "") -> None:
    text = json.dumps(build_to_dict(build, set_ref), sort_keys=True, indent=1) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_build(path) -> LambdaBuild:
    with open(path) as fh:
        return build_from_dict(json.load(fh))


@dataclass(frozen=True)
class VerifyRow:
    index: int
    stated: float
    recomputed: float
    ok: bool


@_one_blas_thread()
def verify_build(s: IntervalSet, build: LambdaBuild) -> tuple[list[VerifyRow], spectral.RieszReport]:
    """Re-derive every partial-union certificate by a fresh eigensolve; a row
    is ok when it matches the stated bound and clears gamma/2, both within
    VERIFY_TOL.
    Returns the rows plus the whole union's riesz_report, which reuses the last
    row's eigensolve.  Disjoint blocks are LambdaBuild's own invariant.

    The full union's Gram is built once, and each partial union's Gram is its
    principal submatrix at that union's frequencies: the matrix gram() builds
    for the partial union, entry for entry.  A build without blocks raises
    ValueError, and one whose recorded set digest is not s's, or whose gamma is
    not |S|/2, the gamma both builders store, raises InputError, all before any
    Gram: a row's floor gamma/2 is s's, not one the build states.
    """
    if not build.blocks:
        raise ValueError("build has no blocks to verify")
    if build.set_digest and build.set_digest != (digest := torus.set_digest(s)):
        raise InputError(
            f"build was made for the set with digest {build.set_digest}, "
            f"but the given set has digest {digest}"
        )
    if build.gamma != (half := s.measure / 2.0):
        raise InputError(f"build states gamma {build.gamma!r}, but |S|/2 of the given set is {half!r}")
    rows = []
    for k, g in enumerate(_partial_grams(s, build), start=1):
        eigs = spectral.extreme_eigs(g)
        lam, stated = eigs[0], build.schedule[k - 1]
        ok = abs(lam - stated) <= VERIFY_TOL and lam >= build.gamma / 2.0 - VERIFY_TOL
        rows.append(VerifyRow(k, stated, lam, ok))
    return rows, spectral._report(s, g, eigs)


def _partial_grams(s: IntervalSet, build: LambdaBuild) -> Iterator[spectral.GramMatrix]:
    """Gram of the union of the first k blocks for k = 1, 2, ..., all cut from
    one gram() of the whole union, which comes last."""
    freqs = build.frequencies()
    g = spectral.gram(s, freqs)
    owner = np.empty(freqs.size, dtype=np.int64)  # the block each frequency is in
    for k, b in enumerate(build.blocks):
        owner[np.searchsorted(freqs, b.frequencies())] = k
    for k in range(1, len(build.blocks)):
        at = np.flatnonzero(owner < k)
        yield spectral.GramMatrix(g.entries[np.ix_(at, at)], g.set_digest)
    yield g
