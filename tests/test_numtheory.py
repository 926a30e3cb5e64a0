import numpy as np
import pytest

from rieszseq import numtheory
from rieszseq.errors import InputError, RieszSeqError


def test_sieve_primes_small():
    assert numtheory.sieve_primes(10).tolist() == [2, 3, 5, 7]
    assert numtheory.sieve_primes(2).tolist() == [2]


def test_prime_count_to_a_million():
    # well-known count, re-checked below against trial division on a sample
    primes = numtheory.sieve_primes(10 ** 6)
    assert len(primes) == 78498
    rng = np.random.RandomState(0)
    prime_set = set(primes.tolist())
    for n in rng.randint(2, 10 ** 6, 200):
        assert (int(n) in prime_set) == numtheory.is_prime_naive(int(n))


def test_sieve_vs_trial_division_exact():
    primes = set(numtheory.sieve_primes(10 ** 4).tolist())
    counts = numtheory.sieve_divisors(10 ** 4)
    for n in range(1, 10 ** 4 + 1):
        assert (n in primes) == numtheory.is_prime_naive(n)
        assert int(counts[n]) == numtheory.divisor_count_naive(n)



def test_sieve_divisors_whole_table_vs_trial_division():
    # limits on both sides of perfect squares, where the sqrt loop changes length
    for limit in (1, 2, 3, 4, 5, 8, 9, 10, 99, 100, 101, 2000):
        counts = numtheory.sieve_divisors(limit)
        assert counts.shape == (limit + 1,) and counts[0] == 0
        assert counts[1:].tolist() == [numtheory.divisor_count_naive(n) for n in range(1, limit + 1)]

def test_divisor_values():
    counts = numtheory.sieve_divisors(12)
    assert int(counts[12]) == 6
    assert int(counts[1]) == 1
    # 720720 = 2^4 * 3^2 * 5 * 7 * 11 * 13 -> 5*3*2*2*2*2 = 240 divisors
    assert numtheory.divisor_count_naive(720720) == 240
    assert int(numtheory.sieve_divisors(720720)[720720]) == 240


def test_hyperbola_identity():
    for cap in (10, 100, 1000):
        lhs, rhs = numtheory.divisor_sum_identity(cap)
        assert lhs == rhs


def test_prime_blocks_disjoint():
    ok, witness = numtheory.prime_blocks_disjoint(100)
    assert ok and witness is None


def _first_meeting_blocks(numbers):
    """The pairwise search over the multiple blocks: oracle for the sorted one."""
    for i, p in enumerate(numbers):
        for q in numbers[i + 1 :]:
            common = set(range(p, p * p + 1, p)) & set(range(q, q * q + 1, q))
            if common:
                return False, (p, q, min(common))
    return True, None


def test_prime_blocks_disjoint_names_the_first_meeting_pair(monkeypatch):
    # with 4 passed off as a prime, B_2 = {2, 4} and B_4 = {4, 8, 12, 16} share 4
    monkeypatch.setattr(numtheory, "sieve_primes", lambda limit: np.array([2, 3, 4]))
    assert numtheory.prime_blocks_disjoint(100) == (False, (2, 4, 4))


@pytest.mark.parametrize("numbers", [
    [2, 3, 5, 7],
    [4, 6, 8, 9],  # B_4 and B_6 meet first, at 12, though 8 (B_4 and B_8) is the least shared
    [5, 6, 9, 10, 15, 21],
    [7, 11, 13, 49],
    list(range(2, 40)),
])
def test_prime_blocks_disjoint_matches_the_pairwise_search(monkeypatch, numbers):
    monkeypatch.setattr(numtheory, "sieve_primes", lambda limit: np.array(numbers))
    assert numtheory.prime_blocks_disjoint(100) == _first_meeting_blocks(numbers)


def test_prime_blocks_disjoint_bounds_the_blocks_first():
    # the blocks {p, 2p, ..., p^2} of the primes up to 10^5 hold 4.5e8 entries
    message = r"^prime-block entry total sum\(p\) = 454396537 exceeds cap 10000000 \(~3635 MB\)$"
    with pytest.raises(InputError, match=message):
        numtheory.prime_blocks_disjoint(10 ** 5)


def test_block_intersection_examples():
    assert numtheory.block_intersection(2, 3) == []
    assert numtheory.block_intersection(2, 4) == [4]  # primality is necessary


def test_divisor_growth_report():
    # frozen from a full scan of d(n)/sqrt(n) over [1e5, 1e6]
    rep = numtheory.divisor_growth_report(10 ** 6, 0.5, lo=10 ** 5)
    assert rep.argmax == 110880
    assert rep.max_ratio == pytest.approx(0.4324499820938683, rel=1e-12)
    assert rep.max_ratio < 0.5
    # small n exceed 1, which is why the prefix is excludable
    small = numtheory.divisor_growth_report(100, 0.5)
    assert small.max_ratio > 1.7


def test_sieve_limit_guard():
    with pytest.raises(RieszSeqError):
        numtheory.sieve_primes(10 ** 7 + 1)
    with pytest.raises(ValueError):
        numtheory.sieve_divisors(0)


def test_check_limit_message_keeps_normal_sizes_exact():
    with pytest.raises(InputError, match=r"^sieve limit 10000001 exceeds cap 10000000 \(~40 MB\)$"):
        numtheory.check_limit(10 ** 7 + 1, 4)
    with pytest.raises(InputError, match=r"^sieve limit 999999999999999 exceeds"):
        numtheory.check_limit(10 ** 15 - 1, 1)
    # longer numbers keep 4 digits, rounded down, whatever their size
    with pytest.raises(InputError, match=r"^sieve limit 1\.999e\+15 exceeds cap 10000000 \(~2000000000 MB\)$"):
        numtheory.check_limit(2 * 10 ** 15 - 1, 1)
    with pytest.raises(InputError, match=r"^sieve limit 1\.000e\+700 exceeds"):
        numtheory.check_limit(10 ** 700, 1)
