"""Gram matrices of finite exponential systems on a set, and their Riesz bounds.

For frequencies L = {l_1 < ... < l_m} and a set S, the Gram matrix of
{e^{2*pi*i*l*x}} in L^2(S) is G[j][k] = c_hat(l_k - l_j), Hermitian with
diagonal |S|.  Its extreme eigenvalues are the numerical lower/upper Riesz
bounds of the finite system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import torus
from .errors import InputError
from .torus import IntervalSet, _at_least, _index, _inside, _one_blas_thread

# every |frequency| stays below this, so all pairwise differences fit in int64
FREQ_LIMIT = 2 ** 62

# every Gram has at most this many frequencies: the m x m complex Gram of a
# larger set would take more than 16 * m^2 bytes = 1 GiB
GRAM_SIZE_LIMIT = 2 ** 13

# uniform_rayleigh_ap_many takes lengths up to this: its kernel work grows as
# arc endpoints times length (0.28-0.37 s per step at this length, l_max 256,
# 33,000 endpoints, steps 2 and 8, with the kernel's runs on 2 cores)
RAYLEIGH_LENGTH_LIMIT = 2 ** 16


def _check_size(count: int) -> None:
    if count < 1:
        raise ValueError("frequency set must be nonempty")
    if count > GRAM_SIZE_LIMIT:
        raise ValueError(f"frequency set must have at most {GRAM_SIZE_LIMIT} frequencies, got {count}")


def _check_range(lowest: int, highest: int) -> None:
    if not -FREQ_LIMIT < lowest <= highest < FREQ_LIMIT:
        raise ValueError(f"frequencies must satisfy |f| < 2^62, got {lowest}..{highest}")


def _check_frequencies(f: np.ndarray) -> None:
    """ValueError unless f is a 1-D integer array of 1 to GRAM_SIZE_LIMIT strictly
    increasing frequencies, each with |f| < FREQ_LIMIT."""
    if f.ndim != 1 or f.dtype.kind not in "iu":  # bool is kind "b", float "f"
        raise ValueError(f"frequencies must be a 1-D integer array, got {f.ndim}-D {f.dtype}")
    _check_size(f.size)
    if np.any(f[1:] <= f[:-1]):
        raise ValueError("frequencies must be strictly increasing")
    _check_range(int(f[0]), int(f[-1]))


def frequency_set(values: Iterable[int]) -> np.ndarray:
    """The integers in values, sorted and deduplicated, checked, then cast to int64."""
    freqs = sorted({_index(v) for v in values})
    _check_size(len(freqs))
    _check_range(freqs[0], freqs[-1])
    return np.array(freqs, dtype=np.int64)


def arithmetic_progression(shift: int, step: int, length: int) -> np.ndarray:
    """{shift + step, shift + 2*step, ..., shift + length*step} as an int64 array.

    Its extremes and its length are checked before any element is built, so
    an out-of-range or overlong progression fails at once however long it is.
    Elements are exact integers first: a length-1 progression's step may pass int64.
    """
    shift, step, length = _index(shift), _at_least(step, 1, "step"), _at_least(length, 1, "length")
    _check_range(shift + step, shift + step * length)
    if length > GRAM_SIZE_LIMIT:
        raise ValueError(f"progression length must be at most {GRAM_SIZE_LIMIT}, got {length}")
    return np.array([shift + step * k for k in range(1, length + 1)], dtype=np.int64)


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


def gram(s: IntervalSet, freqs: np.ndarray) -> GramMatrix:
    """Gram matrix with entries G[j][k] = c_hat(l_k - l_j), Hermitian by construction."""
    f = np.asarray(freqs)
    _check_frequencies(f)
    if s.measure <= 0.0:
        raise InputError("gram matrix needs a set of positive measure")
    f = f.astype(np.int64, copy=False)
    # one lookup per matrix over the strict upper triangle, whose differences
    # are positive (f increases): each distinct one is evaluated once.  The
    # lower triangle is its conjugate transpose and the diagonal is |S|
    rows, cols = np.triu_indices(f.size, 1)
    ks, where = np.unique(f[cols] - f[rows], return_inverse=True)
    entries = np.empty((f.size, f.size), dtype=np.complex128)
    entries[rows, cols] = torus.fourier_coeff_many(s, ks)[where]
    entries[cols, rows] = np.conjugate(entries[rows, cols])
    np.fill_diagonal(entries, s.measure)
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
    off = np.abs(g.entries)
    np.fill_diagonal(off, 0.0)
    return float(np.sum(np.square(off, out=off)))


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
def riesz_report(s: IntervalSet, freqs: np.ndarray) -> RieszReport:
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


def _lengths(lengths) -> tuple[list[int], int]:
    """The lengths as ints, each in [1, RAYLEIGH_LENGTH_LIMIT], and the largest;
    ValueError for none."""
    lengths = [_at_least(n, 1, "length") for n in lengths]
    if not lengths:
        raise ValueError("need at least one length")
    top = max(lengths)
    if top > RAYLEIGH_LENGTH_LIMIT:
        raise ValueError(f"length must be at most {RAYLEIGH_LENGTH_LIMIT}, got {top}")
    return lengths, top


def _toeplitz_quotients(measure: float, re: np.ndarray, lengths: list[int]) -> list[float]:
    """|S| + (2/N) * sum_{d=1}^{N-1} (N-d) re[d-1] for every N in lengths.

    The all-ones Rayleigh quotient of the Toeplitz Gram of {1..N} with
    diagonal |S| = measure and stripes Re c_hat(d) = re[d-1]; each stripe
    sum is a numpy pairwise sum.
    """
    d = np.arange(1, re.size + 1, dtype=np.int64)
    return [float(measure + (2.0 / n) * np.sum((n - d[: n - 1]) * re[: n - 1])) for n in lengths]


def uniform_rayleigh_ap_many(s: IntervalSet, step: int, lengths) -> list[float]:
    """Rayleigh quotient of the all-ones vector on gram(S, {step, 2*step, ..., N*step})
    for every N in lengths, from one kernel pass.  Shift-invariant, so no shift
    argument.

    Uses the Toeplitz structure (_toeplitz_quotients), so only the real part
    of one coefficient per off-diagonal stripe is needed, never the N x N
    matrix.  The values for the largest N come from one
    torus.fourier_coeff_real_ap call, which splits d = q*B + r with
    B = isqrt(max N - 1) + 1 and builds each of its two tables of about
    sqrt(N) rows from short tables by angle sums, so it evaluates four
    sine/cosine pairs per arc endpoint instead of N complex exponentials;
    every shorter N reads their prefix.  A prefix is split with the largest
    N's B, so it may differ in the last bits from a call with that N alone.
    The kernel sums endpoints by GEMMs over torus.SPLIT_CHUNK of them and
    pairwise across those.
    """
    if s.measure <= 0.0:
        raise InputError("rayleigh quotient needs a set of positive measure")
    step = _at_least(step, 1, "step")
    lengths, top = _lengths(lengths)
    return _toeplitz_quotients(s.measure, torus.fourier_coeff_real_ap(s, step, top - 1), lengths)


def dirichlet_tail_many(lengths, delta: float) -> list[float]:
    """Energy of the normalized Dirichlet polynomial of length N outside the arc
    of half-width delta at 0, for every N in lengths.

    Exact closed-form evaluation: the uniform-vector Rayleigh quotient of the
    Gram matrix of {1..N} on the complement arc, of measure 1 - 2 delta and
    Re c_hat(d) = -sin(2 pi d delta) / (pi d), the phase d delta reduced
    mod 1 exactly (torus._frac).  Equals 1 minus the energy inside the
    deleted arc.
    """
    delta = _inside(delta, 0.0, 0.5, "delta")
    lengths, top = _lengths(lengths)
    d = np.arange(1, top, dtype=np.float64)
    re = np.sin((2 * np.pi) * torus._frac(d * delta)) / (-np.pi * d)
    return _toeplitz_quotients(1.0 - 2.0 * delta, re, lengths)


def dirichlet_tail_bound(length: int, delta: float) -> float:
    """Closed-form majorant (2/(pi*N)) * cot(pi*delta) for the Dirichlet tail.

    Comes from |P_N(x)|^2 <= 1/(N sin^2(pi x)) integrated over the complement;
    the sup-bound constant 1 is sharp enough for every grid cell we test.
    """
    length, delta = _at_least(length, 1, "length"), _inside(delta, 0.0, 0.5, "delta")
    return 2.0 / (math.pi * length * math.tan(math.pi * delta))
