"""Gram matrices of finite exponential systems on a set, and their Riesz bounds.

For frequencies L = {l_1 < ... < l_m} and a set S, the Gram matrix of
{e^{2*pi*i*l*x}} in L^2(S) is G[j][k] = c_hat(l_k - l_j), Hermitian with
diagonal |S|.  Its extreme eigenvalues are the numerical lower/upper Riesz
bounds of the finite system.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from . import torus
from .errors import InputError
from .torus import IntervalSet

# every |frequency| stays below this, so all pairwise differences fit in int64
FREQ_LIMIT = 2 ** 62

# arithmetic_progression builds at most this many frequencies: the m x m complex
# Gram of a longer one would take more than 16 * m^2 bytes = 1 GiB
AP_LENGTH_LIMIT = 2 ** 13

# uniform_rayleigh_ap_many takes lengths up to this: its kernel work grows as
# arc endpoints times length (0.85-0.87 s per step at l_max 256, 33,000
# endpoints, on 2 cores)
RAYLEIGH_LENGTH_LIMIT = 2 ** 16


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

    On 2 cores a 2-thread split of the small products, Choleskys and
    eigensolves of the constructions stalls whenever another thread holds a
    core, and its results depend on the thread count in the last bits.  Each
    public call that does dense linear algebra enters this once, so every
    decision and every certificate comes from the same single-thread calls.
    """
    previous = _set_blas_threads(1)
    try:
        yield
    finally:
        if previous is not None:
            _set_blas_threads(previous)


def _check_range(lowest: int, highest: int) -> None:
    if not -FREQ_LIMIT < lowest <= highest < FREQ_LIMIT:
        raise ValueError(f"frequencies must satisfy |f| < 2^62, got {lowest}..{highest}")


@dataclass(frozen=True)
class FrequencySet:
    """Strictly increasing, nonempty tuple of integer frequencies with |f| < FREQ_LIMIT."""

    freqs: tuple[int, ...]

    def __post_init__(self):
        if not self.freqs:
            raise ValueError("frequency set must be nonempty")
        if any(b <= a for a, b in zip(self.freqs, self.freqs[1:])):
            raise ValueError("frequencies must be strictly increasing")
        _check_range(self.freqs[0], self.freqs[-1])

    def __len__(self) -> int:
        return len(self.freqs)

    def array(self) -> np.ndarray:
        return np.array(self.freqs, dtype=np.int64)


def frequency_set(values: Iterable[int]) -> FrequencySet:
    """Sort and deduplicate integers into a FrequencySet."""
    return FrequencySet(tuple(sorted({int(v) for v in values})))


def arithmetic_progression(shift: int, step: int, length: int) -> FrequencySet:
    """The progression {shift + step, shift + 2*step, ..., shift + length*step}.

    Its extremes and its length are checked before any element is built, so
    an out-of-range or overlong progression fails at once however long it is.
    """
    shift, step, length = int(shift), int(step), int(length)  # exact, never int64
    if step < 1 or length < 1:
        raise ValueError("step and length must be positive")
    _check_range(shift + step, shift + step * length)
    if length > AP_LENGTH_LIMIT:
        raise ValueError(f"progression length must be at most {AP_LENGTH_LIMIT}, got {length}")
    return FrequencySet(tuple(shift + step * k for k in range(1, length + 1)))


@dataclass(frozen=True)
class GramMatrix:
    entries: np.ndarray
    set_digest: str

    @property
    def size(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class RieszReport:
    """Extreme eigenvalues plus the Cauchy-Schwarz floor for one (S, L) pair."""

    lower: float
    upper: float
    cs_lower: float
    offdiag_energy: float
    size: int


def gram(s: IntervalSet, freqs: FrequencySet) -> GramMatrix:
    """Gram matrix with entries G[j][k] = c_hat(l_k - l_j), Hermitian by construction."""
    if s.measure <= 0.0:
        raise InputError("gram matrix needs a set of positive measure")
    f = freqs.array()
    diff = f[None, :] - f[:, None]
    # one lookup per matrix: ks[0] == 0 is the diagonal, |S|; ks[1:] are the
    # distinct positive differences, each evaluated once
    ks, where = np.unique(np.abs(diff), return_inverse=True)
    vals = np.concatenate(([s.measure], torus.fourier_coeff_many(s, ks[1:])))
    coeff = vals[where.reshape(diff.shape)]  # numpy 1.x returns the inverse flat
    entries = np.where(diff >= 0, coeff, np.conj(coeff))
    return GramMatrix(entries, torus.set_digest(s))


def extreme_eigs(g: GramMatrix) -> tuple[float, float]:
    """(lambda_min, lambda_max) via a dense Hermitian eigensolve; deterministic."""
    try:
        w = np.linalg.eigvalsh(g.entries)
    except np.linalg.LinAlgError as exc:
        raise InputError(f"eigensolver failed on size {g.size}: {exc}") from exc
    return float(w[0]), float(w[-1])


def offdiag_energy(g: GramMatrix) -> float:
    """Sum of |c_hat(mu - lambda)|^2 over distinct frequency pairs."""
    off = g.entries.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.sum(np.abs(off) ** 2))


def rayleigh(g: GramMatrix, c) -> float:
    """Rayleigh quotient (c* G c) / (c* c); the energy of the combination sum c_l e_l."""
    c = np.asarray(c, dtype=np.complex128)
    if c.ndim != 1 or c.shape[0] != g.size:
        raise InputError(f"vector length {c.shape} does not match size {g.size}")
    den = float(np.sum(np.abs(c) ** 2))
    if den == 0.0:
        raise ValueError("rayleigh quotient of the zero vector")
    num = complex(np.vdot(c, g.entries @ c))
    return num.real / den


@_one_blas_thread()
def riesz_report(s: IntervalSet, freqs: FrequencySet) -> RieszReport:
    g = gram(s, freqs)
    return _report(s, g, extreme_eigs(g))


def _report(s: IntervalSet, g: GramMatrix, eigs: tuple[float, float]) -> RieszReport:
    """riesz_report of the frequencies whose Gram is g, given extreme_eigs(g)."""
    lo, hi = eigs
    energy = offdiag_energy(g)
    return RieszReport(
        lower=lo,
        upper=hi,
        cs_lower=s.measure - math.sqrt(energy),
        offdiag_energy=energy,
        size=g.size,
    )


def uniform_rayleigh_ap(s: IntervalSet, step: int, length: int) -> float:
    """Rayleigh quotient of the all-ones vector on gram(S, {step, 2*step, ..., length*step}).

    The one-length case of uniform_rayleigh_ap_many.  Shift-invariant, so no
    shift argument.
    """
    return uniform_rayleigh_ap_many(s, step, [length])[0]


def uniform_rayleigh_ap_many(s: IntervalSet, step: int, lengths) -> list[float]:
    """uniform_rayleigh_ap(s, step, N) for every N in lengths, from one kernel pass.

    Uses the Toeplitz structure: |S| + (2/N) * sum_{d=1}^{N-1} (N-d) Re c_hat(d*step),
    so only the real part of one coefficient per off-diagonal stripe is needed,
    never the N x N matrix.  The values for the largest N come from one
    torus.fourier_coeff_real_ap call, which splits d = q*B + r with
    B = isqrt(max N - 1) + 1 and builds each of its two tables of about
    sqrt(N) rows from two shorter ones, so it needs about 4*N^(1/4)
    sine/cosine pairs per arc endpoint instead of N complex exponentials;
    every shorter N reads their prefix.  A prefix is split with the largest
    N's B, so it may differ in the last bits from a call with that N alone.
    The kernel sums endpoints by GEMMs over torus.SPLIT_CHUNK of them and
    pairwise across those; the stripe sums here are numpy pairwise sums.
    """
    if s.measure <= 0.0:
        raise InputError("rayleigh quotient needs a set of positive measure")
    step, lengths = int(step), [int(n) for n in lengths]
    if step < 1 or not lengths or min(lengths) < 1:
        raise ValueError("step and length must be positive")
    top = max(lengths)
    if top > RAYLEIGH_LENGTH_LIMIT:
        raise ValueError(f"length must be at most {RAYLEIGH_LENGTH_LIMIT}, got {top}")
    re = torus.fourier_coeff_real_ap(s, step, top - 1)
    d = np.arange(1, top, dtype=np.int64)
    return [
        float(s.measure + (2.0 / n) * np.sum((n - d[: n - 1]) * re[: n - 1])) for n in lengths
    ]


def dirichlet_tail(length: int, delta: float) -> float:
    """Energy of the normalized Dirichlet polynomial outside the arc of half-width delta at 0.

    The one-length case of dirichlet_tail_many.
    """
    return dirichlet_tail_many([length], delta)[0]


def dirichlet_tail_many(lengths, delta: float) -> list[float]:
    """dirichlet_tail(N, delta) for every N in lengths, from one kernel pass.

    Exact closed-form evaluation: the uniform-vector Rayleigh quotient of the
    Gram matrix of {1..N} on the complement arc.  Equals 1 minus the energy
    inside the deleted arc.
    """
    if not (0.0 < delta < 0.5):
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    outside = torus.complement(torus.normalize([(-delta, delta)]))
    return uniform_rayleigh_ap_many(outside, 1, lengths)


def dirichlet_tail_bound(length: int, delta: float) -> float:
    """Closed-form majorant (2/(pi*N)) * cot(pi*delta) for the Dirichlet tail.

    Comes from |P_N(x)|^2 <= 1/(N sin^2(pi x)) integrated over the complement;
    the sup-bound constant 1 is sharp enough for every grid cell we test.
    """
    if not (0.0 < delta < 0.5):
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    return 2.0 / (math.pi * length * math.tan(math.pi * delta))
