"""Finite arc unions on the circle and exact Fourier coefficients of their indicators.

The circle is normalized to [0, 1) with total measure 1, and frequencies pair
with e^{2*pi*i*k*x}.  Arcs are half-open [start, end); an arc crossing the
wrap point is stored split, which makes the canonical form unique and set
equality testable.  A set keeps its arcs as one read-only (n, 2) array of
[start, end) rows, which every kernel reads column by column; arrays in,
arrays out, with no object per arc.  All values are immutable after
construction and every operation is a pure function.

Every coefficient comes from the closed form, one complex exponential per
arc endpoint and frequency (`fourier_coeff_many`), evaluated at exactly the
frequencies a caller asks for; no coefficient is kept between calls.  Where
only Re c_hat along a progression d*step, d = 1..N, is needed,
`fourier_coeff_real_ap` splits each phase as d = q*B + r with B ~ sqrt(N),
so each endpoint needs about 2*sqrt(N) table rows.  Each table is split once
more, and its rows are complex products of the rows of two short tables,
which are themselves angle sums of one base phase each, so an endpoint costs
four sine/cosine pairs per call.  Its products are summed by batched matrix
products over chunks of SPLIT_CHUNK endpoints, and the chunk partials in
numpy's pairwise order: short GEMM sums plus a pairwise sum over chunks keep
the accuracy of a pairwise sum over all endpoints, which one GEMM over all of
them loses.  The chunks of each block of endpoints are split into contiguous
runs, one per CPU the process may run on, each computed on its own thread
with one BLAS thread; the partials are summed in one fixed order, so no value
depends on the number of CPUs.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import ctypes
import functools
import glob
import hashlib
import json
import math
import operator
import os
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError

MEASURE_TOL = 1e-12

# rows times arcs per chunk of fourier_coeff_many; each row is reduced on its
# own, so the chunk bounds the temporaries (about 1 MB each) and not the values
COEFF_BLOCK = 1 << 16

# elements per sine/cosine table of fourier_coeff_real_ap; small enough to
# stay in cache, which makes the block's several passes cheap
SPLIT_BLOCK = 1 << 16

# endpoints per GEMM in fourier_coeff_real_ap.  This is an accuracy choice,
# not a speed one: a GEMM sums its 2*SPLIT_CHUNK products in its own, near
# sequential order, whose error bound grows with the length of the sum, while
# a pairwise sum's grows with its logarithm (Higham, "Accuracy and Stability
# of Numerical Algorithms", 2nd ed., ch. 4).  Short GEMMs whose partials are
# summed pairwise keep the pairwise error.  Per-coefficient max abs error
# against a long-double oracle on S_0.25 at count 4095, l_max 96, step 1: an
# elementwise pairwise sum 4.7e-15, one GEMM over all endpoints 8.5e-14,
# 64 endpoints per GEMM 1.9e-14, and 32 per GEMM, summed pairwise, 8.3e-15
SPLIT_CHUNK = 32

# a block's chunks are split over the CPUs only into runs of at least this many
# chunk partial entries (chunks x q rows x B): a smaller run loses more to the
# thread hand-off and the shared memory bandwidth than the second CPU gives.
# On 2 vCPUs (in-process medians of 61, one run per block against two): count
# 255 on S_0.25 at l_max 96, blocks of 128 chunks, 1.19 against 1.33 ms;
# count 1023 at l_max 48, one block of 38 chunks, 0.75 against 0.96 ms; and at
# l_max 64, a block of 64 chunks, 1.91 against 1.71 ms
SPLIT_RUN_MIN = 1 << 15

# where numpy's wheels bundle OpenBLAS (Linux, Windows, macOS), and the names
# its openblas_set_num_threads_local has had, plain or with a 64-bit-integer suffix
_OPENBLAS_FILES = (
    "numpy.libs/*openblas*.so*",
    "numpy.libs/*openblas*.dll",
    "numpy/.dylibs/*openblas*.dylib",
)
_SET_THREADS_LOCAL = (
    "openblas_set_num_threads_local",
    "scipy_openblas_set_num_threads_local64_",
    "openblas_set_num_threads_local64_",
)


@functools.cache
def _blas_thread_setter():
    """openblas_set_num_threads_local of the OpenBLAS that numpy bundles, or None.

    It sets the calling thread's BLAS thread count and returns the previous
    one.  None where numpy bundles no OpenBLAS (a build against another BLAS),
    or an older OpenBLAS without the symbol.
    """
    site = Path(np.__file__).resolve().parent.parent
    for path in sorted(p for pattern in _OPENBLAS_FILES for p in glob.glob(str(site / pattern))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _SET_THREADS_LOCAL:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
                return setter
    return None


def _set_blas_threads(count: int) -> int | None:
    """Set the calling thread's BLAS thread count; the previous count, or None
    (and nothing set) when there is no setter."""
    setter = _blas_thread_setter()
    return None if setter is None else setter(count)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body's BLAS and LAPACK calls on one thread of the calling thread,
    restoring its previous count on the way out; a no-op without a setter.

    On 2 cores a 2-thread split of small products, Choleskys and eigensolves
    stalls whenever another thread holds a core, and a factorization's results
    depend on the thread count in the last bits.  Each public call of the
    constructions that does dense linear algebra enters this once, so every
    decision and every certificate comes from the same single-thread calls;
    each run of fourier_coeff_real_ap enters it too, so its runs do not
    compete with BLAS threads of their own for the cores.
    """
    previous = _set_blas_threads(1)
    try:
        yield
    finally:
        if previous is not None:
            _set_blas_threads(previous)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity (macOS, Windows)
        return os.cpu_count() or 1


@functools.cache
def _kernel_pool() -> concurrent.futures.ThreadPoolExecutor:
    """The threads that run all but the first run of fourier_coeff_real_ap's blocks.

    One pool per process, of one thread per CPU past the first, whatever the
    number of runs a block splits into.  Made on first use, never at import.
    A fork child has none of its parent's threads, so the cache is cleared in
    the child, which makes its own pool.
    """
    return concurrent.futures.ThreadPoolExecutor(
        max(1, _cpu_count() - 1), thread_name_prefix="rieszseq-kernel"
    )


if hasattr(os, "register_at_fork"):  # every platform with fork has it
    os.register_at_fork(after_in_child=_kernel_pool.cache_clear)


@dataclass(frozen=True, eq=False)
class IntervalSet:
    """Disjoint arcs sorted by start, with their total length cached.

    `arcs` is one read-only (n, 2) float64 array whose rows are [start, end)
    with 0 <= start < end <= 1; `measure` is the correctly rounded sum of the
    lengths, as math.fsum gives it.  Build it with from_arrays (or normalize), which checks both.
    May be empty (measure 0); constructors that reject degenerate input do so
    explicitly, the type itself allows it so complements are closed.
    Equality is exact: the same endpoints, bit for bit, and the same measure.
    """

    arcs: np.ndarray
    measure: float

    def __eq__(self, other):
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self.measure == other.measure and np.array_equal(self.arcs, other.arcs)


def _index(v) -> int:
    """operator.index(v), refusing a bool as it refuses a float: True is not 1 here."""
    if isinstance(v, (bool, np.bool_)):
        raise TypeError("'bool' object cannot be interpreted as an integer")
    return operator.index(v)


def _number(v, what: str) -> float:
    """float(v), or InputError naming `what` for a bool, a string or a value float() refuses."""
    if not isinstance(v, (bool, np.bool_, str, bytes)):
        try:
            return float(v)
        except (TypeError, OverflowError):  # None, a list; an int past float range
            pass
    raise InputError(f"{what} must be a number, got {v!r}")


def _at_least(v, least: int, what: str) -> int:
    """_index(v), or InputError naming `what` if it is below `least`."""
    v = _index(v)
    if v < least:
        raise InputError(f"{what} must be >= {least}, got {v}")
    return v


def _inside(v, lo: float, hi: float, what: str) -> float:
    """_number(v, what), or InputError naming `what` unless lo < v < hi, which NaN is not."""
    x = _number(v, what)
    if not lo < x < hi:
        raise InputError(f"{what} must lie in ({lo:g}, {hi:g}), got {x}")
    return x


def normalize(raw_arcs: Iterable[Sequence[float]]) -> IntervalSet:
    """Canonicalize raw (start, end) pairs into a disjoint sorted arc union.

    Coordinates are taken mod 1; a pair runs counterclockwise from start to
    end, so its length is end - start and must lie in (0, 1].  Wrap-crossing
    pairs are split, overlapping or touching pairs are merged.  Endpoints must
    be numbers: a bool or a string is rejected, never converted.  Pairs that
    are already canonical (sorted, within [0, 1], separated by gaps) are kept
    bit for bit, so normalize is idempotent and a saved set loads as itself;
    merge_arcs would recompute each end as start + length, which can move an
    end whose start came from another pair by an ulp.
    """
    try:
        pairs = [(_number(a, "arc endpoint"), _number(b, "arc endpoint")) for a, b in raw_arcs]
    except (TypeError, ValueError) as exc:
        raise InputError(f"arcs must be (start, end) pairs of numbers: {exc}") from exc
    if not pairs:
        raise InputError("no arcs given")
    total = 0.0
    for a, b in pairs:
        if not (math.isfinite(a) and math.isfinite(b)):
            raise InputError(f"arc ({a}, {b}) has a non-finite endpoint")
        length = b - a
        if length <= 0.0:
            raise InputError(f"arc ({a}, {b}) reduces to a point or runs backwards")
        if length > 1.0 + MEASURE_TOL:
            raise InputError(f"arc ({a}, {b}) is longer than the circle")
        total += length
    if total > 1.0 + MEASURE_TOL:
        raise InputError(f"total raw length {total} exceeds the circle")
    a, b = np.array(pairs, dtype=np.float64).T
    canonical = (a >= 0.0) & ~np.signbit(a) & (b <= 1.0)  # -0.0 would keep its sign
    if canonical.all() and np.all(a[1:] > b[:-1]):
        return from_arrays(a, b)
    return from_arrays(*merge_arcs(a, b))


def merge_arcs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of the canonical union of the pairs (a[i], b[i]).

    Each pair must run counterclockwise with length b - a in (0, 1]; `normalize`
    checks that, and callers that build pairs themselves must guarantee it.
    Coordinates are taken mod 1, a pair of length >= 1 is the whole circle, a
    wrap-crossing pair is split at 0, and overlapping or touching pieces merge.
    The result is sorted by start, disjoint, and bitwise the same whatever the
    order of the pairs.
    """
    length = b - a
    full = length >= 1.0
    s = a - np.floor(a)
    s[s >= 1.0] = 0.0  # float guard: a barely below an integer
    s[full] = 0.0
    e = s + length
    e[full] = 1.0
    wrap = e > 1.0  # then 0 < e - 1 <= 1 exactly
    starts = np.concatenate([s, np.zeros(np.count_nonzero(wrap))])
    ends = np.concatenate([np.minimum(e, 1.0), e[wrap] - 1.0])
    # sorted by start; a piece opens a new arc when it starts past the reach of
    # every piece before it, and each arc ends at its pieces' largest end.  The
    # order of equal starts cannot matter: only the first of them can open an
    # arc, since each earlier one ends at or after that start, and every one
    # lands in the same arc, whose end is a maximum
    order = np.argsort(starts)
    starts, ends = starts[order], ends[order]
    opens = np.flatnonzero(np.concatenate(([True], starts[1:] > np.maximum.accumulate(ends)[:-1])))
    return starts[opens], np.maximum.reduceat(ends, opens)


def complement_arcs(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of the gaps of sorted disjoint arcs, within [0, 1]."""
    gap_starts = np.concatenate(([0.0], ends))
    gap_ends = np.concatenate((starts, [1.0]))
    keep = gap_starts < gap_ends
    return gap_starts[keep], gap_ends[keep]


def from_arrays(starts: np.ndarray, ends: np.ndarray) -> IntervalSet:
    """The IntervalSet of sorted disjoint arcs given by their starts and ends.

    Every arc must be in canonical form (checked first, naming the first bad
    arc), and the arcs sorted by start and disjoint; the endpoints are copied.
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    lengths = ends - starts
    ok = (starts >= 0.0) & (lengths > 0.0) & (ends <= 1.0)  # NaN fails too
    if not ok.all():
        i = int(np.argmin(ok))
        raise InputError(f"arc ({starts[i].item()}, {ends[i].item()}) is not in canonical form")
    if np.any(starts[1:] < ends[:-1]):
        raise InputError("arcs must be disjoint and sorted by start")
    arcs = np.column_stack((starts, ends))
    arcs.flags.writeable = False
    return IntervalSet(arcs, math.fsum(lengths.tolist()))


def complement(s: IntervalSet) -> IntervalSet:
    """Complement within the circle; may be empty."""
    return from_arrays(*complement_arcs(*s.arcs.T))


def scale_periodize(delta: float, ell: int) -> IntervalSet:
    """Union of ell arcs of half-width delta/ell centered at k/ell, k = 0..ell-1.

    This is the 1/ell-scaled periodization of the arc (-delta, delta); its
    measure is exactly 2*delta.  Copies must stay disjoint, which needs
    delta < 1/(2*ell).
    """
    ell, delta = _at_least(ell, 1, "ell"), _inside(delta, 0.0, 0.5, "delta")
    if delta >= 1.0 / (2 * ell):
        raise InputError(f"delta = {delta} >= 1/(2*{ell}); periodized copies would overlap")
    half = delta / ell
    raw = [(k / ell - half, k / ell + half) for k in range(ell)]
    return normalize(raw)


def contains(s: IntervalSet, x: float) -> bool:
    """Membership of x mod 1, with the half-open [start, end) convention."""
    xm = x - math.floor(x)
    if xm >= 1.0:
        xm = 0.0
    starts, ends = s.arcs.T
    if starts.size == 0:
        return False
    i = bisect_right(starts, xm) - 1
    return i >= 0 and xm < ends[i]


def _frac(p: np.ndarray) -> np.ndarray:
    """p mod 1 for phases p >= 0, in place, as p - floor(p).

    The difference is exact: floor(p) is 0, or p and floor(p) lie within a
    factor of 2 of each other (Sterbenz).  So it is bitwise np.mod(p, 1.0),
    which is also exact, at about half the cost.
    """
    p -= np.floor(p)
    return p


def fourier_coeff_many(s: IntervalSet, ks) -> np.ndarray:
    """Vectorized c_hat(k) = sum over arcs of (e^{-2pi i k a} - e^{-2pi i k b}) / (2pi i k).

    Exact closed form, no quadrature; c_hat(0) is the measure.  The phase
    |k|*x is reduced mod 1 before exponentiating, so endpoints at exact
    rationals (full circle, half circle) yield exact zeros; the reduction
    p - floor(p) is exact for p >= 0 (see _frac).  Evaluation is chunked over
    k, so no temporary but the result grows with len(ks).
    """
    ks = np.atleast_1d(np.asarray(ks, dtype=np.int64))
    out = np.empty(ks.shape[0], dtype=np.complex128)
    starts, ends = s.arcs.T
    if starts.size == 0:
        out.fill(0.0)
        out[ks == 0] = s.measure
        return out
    chunk = max(1, COEFF_BLOCK // starts.size)
    for i in range(0, ks.shape[0], chunk):
        kc = ks[i : i + chunk]
        k_abs = np.abs(kc.astype(np.float64))
        block = np.exp((-2j * np.pi) * _frac(k_abs[:, None] * starts[None, :]))
        block -= np.exp((-2j * np.pi) * _frac(k_abs[:, None] * ends[None, :]))
        res = out[i : i + chunk]
        with np.errstate(divide="ignore", invalid="ignore"):  # k = 0 is set below
            np.divide(block.sum(axis=1), 2j * np.pi * k_abs, out=res)
        # evaluated at |k| and conjugated, so c_hat(-k) == conj(c_hat(k)) bitwise
        np.conjugate(res, out=res, where=kc < 0)
        res[kc == 0] = s.measure
    return out


def _angle_sums(phase: np.ndarray, n: int) -> np.ndarray:
    """Rows k = 0..n-1 of e^{i k phase} = cos(k phase) + i sin(k phase), complex, of shape (n, *phase.shape).

    np.cos and np.sin run on row 1 only.  Row 0 is exactly 1 + 0i.  The other
    rows are angle sums, complex products, filled level by level: at level
    h = 2, 4, 8, ..., row h is row h/2 times row h/2, then rows h+1..2h-1 are
    rows 1..h-1 times row h, in one call.  Row k goes through at most
    2 log2(k) products, each a few roundings.
    """
    rows = np.empty((max(n, 2),) + phase.shape, dtype=np.complex128)
    rows[0] = 1.0
    rows[1].real, rows[1].imag = np.cos(phase), np.sin(phase)
    h = 2
    while h < n:
        np.multiply(rows[h // 2], rows[h // 2], out=rows[h])
        top = min(2 * h, n)
        np.multiply(rows[1 : top - h], rows[h], out=rows[h + 1 : top])
        h *= 2
    return rows[:n]


def _split(n: int) -> int:
    """R = isqrt(n - 1) + 1, the fine table's length when rows 0..n-1 are written i = i1*R + i0."""
    return math.isqrt(n - 1) + 1


def _angle_table(coarse: np.ndarray, fine: np.ndarray, n: int, w=None) -> np.ndarray:
    """Rows i = 0..n-1 of w e^{i i t x} for endpoints x, as a complex array of shape (n, endpoints).

    coarse and fine are _angle_sums rows at the phases R t x and t x,
    R = _split(n), and w = 1 if w is None.  Row i = i1*R + i0 is coarse row
    i1, weighted by w, times fine row i0: one complex product, 4 multiplies
    and 2 adds, over all the endpoints at once.  Row 0 is exactly w + (w 0.0)i,
    the sign of each zero included.
    """
    r = _split(n)
    n1 = -(-n // r)
    coarse = coarse[:n1]
    if w is not None:
        # weighted part by part, each w times a real, so that each zero keeps its sign
        coarse = (coarse.view(np.float64) * np.repeat(w, 2)).view(np.complex128)
    table = np.empty((n, coarse.shape[-1]), dtype=np.complex128)
    full = n // r
    np.multiply(coarse[:full, None], fine[None, :r], out=table[: full * r].reshape(full, r, -1))
    if full < n1:
        np.multiply(coarse[full], fine[: n - full * r], out=table[full * r :])
    return table


def _chunk_partials(x: np.ndarray, w: np.ndarray, step: int, out: np.ndarray) -> None:
    """One run of fourier_coeff_real_ap: write the partials of the chunks of
    endpoints x, weights w, both of shape (chunks, g), into out, of shape
    (chunks, q rows, B), on one BLAS thread."""
    chunks, rows, b = out.shape
    g = x.shape[1]
    rq, rr = _split(rows), _split(b)
    with _one_blas_thread():
        # the four base phases of both tables' short tables, in one array
        units = np.array([rq * b * step, b * step, rr * step, step], dtype=np.float64)
        phase = _frac(units[:, None] * x.reshape(1, -1))
        phase *= 2 * np.pi
        short = _angle_sums(phase, max(-(-rows // rq), rq, -(-b // rr), rr))
        left = _angle_table(short[:, 0], short[:, 1], rows, w.reshape(-1))
        right = _angle_table(short[:, 2], short[:, 3], b)
        # each chunk's GEMM pairs [w cos(hi), w sin(hi)] with [sin(lo), cos(lo)]
        # per endpoint.  The q table goes to it as a strided view per chunk; the
        # r table is copied into the GEMM's (2g, r) layout, its pairs turned: a
        # transposed operand is summed in another order by BLAS, and is no
        # faster than the copy
        left = left.view(np.float64).reshape(rows, chunks, 2 * g).transpose(1, 0, 2)
        right = right.view(np.float64).reshape(b, chunks, g, 2)[..., ::-1].transpose(1, 2, 3, 0)
        np.matmul(left, np.ascontiguousarray(right).reshape(chunks, 2 * g, b), out=out)


def _pairwise_sum(parts: np.ndarray) -> np.ndarray:
    """The sum of parts over axis 0 in numpy's pairwise order, from whole-row passes; overwrites parts.

    numpy sums an axis of k <= 128 terms in 8 running sums, each over every
    8th term, combined pairwise, and splits a longer axis into halves of a
    multiple of 8 terms; fewer than 8 terms it sums in turn.  Here each step
    of that order is one elementwise pass over whole rows, so the result is
    bitwise np.sum over a contiguous chunk axis, but for the sign of a zero,
    at a third of its cost: on a block at count 65535 (8 chunks of 256 x 256),
    the one-output-at-a-time sum over a contiguous chunk axis took 1.5 ms, and
    these passes 0.5 ms.
    """
    k = parts.shape[0]
    if k > 128:
        half = k // 2 - k // 2 % 8
        return _pairwise_sum(parts[:half]) + _pairwise_sum(parts[half:])
    if k < 8:
        for i in range(1, k):
            parts[0] += parts[i]
        return parts[0]
    sums, top = parts[:8], k - k % 8
    for i in range(8, top, 8):
        sums += parts[i : i + 8]
    sums = sums[0::2] + sums[1::2]
    total = (sums[0] + sums[1]) + (sums[2] + sums[3])
    for i in range(top, k):
        total += parts[i]
    return total


def fourier_coeff_real_ap(s: IntervalSet, step: int, count: int) -> np.ndarray:
    """Re c_hat(d*step) for d = 1..count, from a split-phase sine sum.

    Re c_hat(k) = sum over endpoints x of w_x sin(2pi k x) / (2pi k), with
    w = -1 at arc starts and +1 at arc ends.  Writing d = q*B + r with
    B = isqrt(count) + 1 splits the phase: sin(2pi d step x) =
    cos(2pi qB step x) sin(2pi r step x) + sin(2pi qB step x) cos(2pi r step x).
    One table row per q and one per r, about 2*sqrt(count) rows per endpoint
    instead of count complex exponentials.  Each table is built by
    _angle_table from two short tables of about sqrt(rows) rows, and the four
    short tables of a run come from one _angle_sums call on their four base
    phases, 2pi frac(u x) for u = R_q B step, B step, R_r step and step
    (R = _split of each table's length).  So np.sin and np.cos run four times
    per endpoint, and every other entry is an angle sum: row k of a short
    table carries about k times the rounding of its float64 base phase t, and
    stays within 2k units of 2^-53 of e^{ikt}.

    The products are summed by BLAS, SPLIT_CHUNK endpoints at a time: for each
    chunk, the (q rows) x (2 SPLIT_CHUNK) factor of [w cos(hi), w sin(hi)]
    pairs times the (2 SPLIT_CHUNK) x (r rows) factor of [sin(lo), cos(lo)]
    pairs is one GEMM of a batched matmul.  A GEMM sums in its kernel's own
    order, whose error grows with the length of the sum, so the chunk keeps
    each sum short; the chunk partials are then combined in numpy's pairwise
    order (_pairwise_sum), and the blocks of endpoints accumulated in turn.
    Tables are built per block of about SPLIT_BLOCK / B endpoints, so each
    holds about 2*SPLIT_BLOCK doubles and the block's chunk partials about
    B/SPLIT_CHUNK times SPLIT_BLOCK; the last chunk is padded with weight-0
    endpoints, which add exact zeros.

    A block's chunks are split into one contiguous run per CPU the process may
    run on (at most one per chunk, and none of fewer than SPLIT_RUN_MIN
    partial entries).  Each run builds its own tables and GEMMs
    on one BLAS thread, the first on the calling thread and the others on a
    pool of threads made on first use; numpy releases the interpreter lock in
    all of them.  A chunk's partial does not depend on the run that computes
    it, and the partials are summed in the same order, block after block,
    whatever the runs, so every value is bitwise the same on any number of CPUs.
    """
    step, count = _at_least(step, 1, "step"), _index(count)
    if count < 1:
        return np.empty(0, dtype=np.float64)
    g = SPLIT_CHUNK
    starts, ends = s.arcs.T
    pad = -(starts.size + ends.size) % g
    xs = np.concatenate([starts, ends, np.zeros(pad)])
    ws = np.concatenate([-np.ones_like(starts), np.ones_like(ends), np.zeros(pad)])
    b = math.isqrt(count) + 1
    rows = count // b + 1
    acc = np.zeros((rows, b), dtype=np.float64)
    width = g * max(1, SPLIT_BLOCK // (b * g))
    cpus = _cpu_count()
    for j in range(0, xs.size, width):
        x = xs[j : j + width].reshape(-1, g)
        w = ws[j : j + width].reshape(-1, g)
        chunks = x.shape[0]
        parts = max(1, min(cpus, chunks, chunks * rows * b // SPLIT_RUN_MIN))
        cuts = [chunks * i // parts for i in range(parts + 1)]
        stacked = np.empty((chunks, rows, b))
        runs = [(x[lo:hi], w[lo:hi], step, stacked[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        others = [_kernel_pool().submit(_chunk_partials, *run) for run in runs[1:]]
        _chunk_partials(*runs[0])
        for future in others:
            future.result()
        acc += _pairwise_sum(stacked)
    k = np.arange(1, count + 1, dtype=np.float64) * float(step)
    return acc.ravel()[1 : count + 1] / ((2 * np.pi) * k)


def quadrature_coeff(s: IntervalSet, k: int, points_per_unit: int) -> complex:
    """Composite-midpoint approximation of c_hat(k); error O(points_per_unit^-2).

    Test oracle for the closed form.  Requires points_per_unit >= 10*|k| + 10
    so the grid resolves the oscillation.
    """
    k, points_per_unit = _index(k), _index(points_per_unit)
    if points_per_unit < 10 * abs(k) + 10:
        raise InputError(
            f"points_per_unit = {points_per_unit} < 10*|k|+10 = {10 * abs(k) + 10}"
        )
    total = 0.0 + 0.0j
    for start, end in s.arcs.tolist():
        length = end - start
        n = max(1, int(math.ceil(length * points_per_unit)))
        h = length / n
        mids = start + (np.arange(n) + 0.5) * h
        total += complex(np.exp((-2j * np.pi * k) * mids).sum()) * h
    return complex(total)


def set_digest(s: IntervalSet) -> str:
    """Short stable hash of the canonical arc list."""
    payload = json.dumps(s.arcs.tolist()).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def from_dict(d: dict) -> IntervalSet:
    if not isinstance(d, dict) or "arcs" not in d:
        raise InputError('a set must be an object with an "arcs" list')
    return normalize(d["arcs"])


def save_set(s: IntervalSet, path) -> None:
    """Write the canonical {"arcs": [[a, b], ...]} JSON form."""
    text = json.dumps({"arcs": s.arcs.tolist()}, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_set(path) -> IntervalSet:
    """Read a set file; arbitrary [0, 1] coordinates are normalized on load."""
    with open(path) as fh:
        return from_dict(json.load(fh))
