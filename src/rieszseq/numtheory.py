"""Prime and divisor-function machinery for the block constructions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .torus import _at_least, _index, _inside

# hard cap on sieve size; beyond this we error instead of silently crawling
SIEVE_LIMIT = 10 ** 7


def check_limit(limit: int, bytes_per_entry: int, what: str = "sieve limit") -> int:
    """limit as an int, or InputError naming `what` if that many entries exceed SIEVE_LIMIT."""
    limit = _index(limit)
    if limit > SIEVE_LIMIT:
        raise InputError(
            f"{what} {_short(limit)} exceeds cap {SIEVE_LIMIT} "
            f"(~{_short((bytes_per_entry * limit + 500_000) // 10 ** 6)} MB)"
        )
    return limit


def _short(n: int) -> str:
    """n in full up to 15 digits, else rounded down to 4 significant digits, as 1.234e+20."""
    digits = str(n)
    if len(digits) <= 15:
        return digits
    return f"{digits[0]}.{digits[1:4]}e+{len(digits) - 1}"


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, by the classic sieve."""
    limit = check_limit(_at_least(limit, 2, "limit"), 1)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def sieve_divisors(limit: int) -> np.ndarray:
    """counts[k] = d(k), the exact divisor count, for k <= limit (counts[0] = 0).

    Divisors of k pair up as i * (k/i) with i <= sqrt(k), so each i <= sqrt(limit)
    marks its multiples from i^2 on twice, and the square i^2 once.
    """
    limit = check_limit(_at_least(limit, 1, "limit"), 4)
    counts = np.zeros(limit + 1, dtype=np.int32)
    for i in range(1, math.isqrt(limit) + 1):
        counts[i * i :: i] += 2
        counts[i * i] -= 1
    return counts


def is_prime_naive(n: int) -> bool:
    """Trial division; oracle for the sieve."""
    n = _index(n)
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def divisor_count_naive(n: int) -> int:
    """Count divisors by trial division; oracle for the sieve."""
    n = _at_least(n, 1, "n")
    count = 0
    f = 1
    while f * f <= n:
        if n % f == 0:
            count += 2 if f * f != n else 1
        f += 1
    return count


def multiples_block(n: int) -> np.ndarray:
    """The integers {n, 2n, ..., n^2}."""
    n = _at_least(n, 1, "n")
    return n * np.arange(1, n + 1, dtype=np.int64)


def block_intersection(m: int, n: int) -> list[int]:
    """Common elements of the multiple blocks of m and n, sorted."""
    return sorted(set(multiples_block(m).tolist()) & set(multiples_block(n).tolist()))


def prime_blocks_disjoint(limit: int):
    """Brute-force pairwise disjointness of the multiple blocks over primes <= limit.

    Returns (True, None) or (False, (p, q, witness)): the first pair p < q whose
    blocks meet, and their least common element.  The sum(p) block entries are
    checked against the sieve cap, then sorted once, so a shared element repeats;
    the first pair is the least of the first two blocks each shared element is in.
    """
    primes = sieve_primes(_at_least(limit, 3, "limit"))
    total = check_limit(int(primes.sum()), 8, "prime-block entry total sum(p) =")
    values = np.empty(total, dtype=np.int64)
    for p, end in zip(primes.tolist(), np.cumsum(primes).tolist()):
        values[end - p : end] = multiples_block(p)
    values.sort()
    shared = np.unique(values[1:][values[1:] == values[:-1]]).tolist()
    firsts = [(*primes[(v % primes == 0) & (v <= primes * primes)][:2].tolist(), v) for v in shared]
    return (False, min(firsts)) if firsts else (True, None)


@dataclass(frozen=True)
class GrowthReport:
    max_ratio: float
    argmax: int


def divisor_growth_report(limit: int, exponent: float, lo: int = 1) -> GrowthReport:
    """max of d(n)/n^exponent over lo <= n <= limit.

    Small n dominate any fixed exponent (d(12)/sqrt(12) > 1.7), so callers can
    exclude a prefix via lo.  The underlying o(n^eps) claim is asymptotic and
    only this finite scan is reported.
    """
    limit, exponent = _at_least(limit, 10, "limit"), _inside(exponent, 0.0, math.inf, "exponent")
    lo = max(1, _index(lo))
    if lo > limit:
        raise ValueError(f"lo = {lo} exceeds limit = {limit}")
    counts = sieve_divisors(limit)
    n = np.arange(lo, limit + 1, dtype=np.float64)
    ratios = counts[lo:] / n ** exponent
    i = int(np.argmax(ratios))
    return GrowthReport(float(ratios[i]), lo + i)


def divisor_sum_identity(limit: int) -> tuple[int, int]:
    """Both sides of sum_{k<=K} d(k) = sum_{l<=K} floor(K/l); exact integers."""
    counts = sieve_divisors(limit)
    lhs = int(counts[1:].sum())
    rhs = sum(limit // ell for ell in range(1, limit + 1))
    return lhs, rhs
