#!/usr/bin/env python3
"""The arithmetic facts behind the block constructions, checked brutally.

Multiple blocks {p, 2p, ..., p^2} over distinct primes never collide (a common
element m*p = k*q with k <= q would need q | m, impossible for m < q), and the
divisor function grows slower than any power, which is what makes the
step-search averaging win.
"""

from rieszseq import numtheory

print("== prime blocks are pairwise disjoint ==")
ok, witness = numtheory.prime_blocks_disjoint(100)
print("all primes up to 100:", "disjoint" if ok else f"violation {witness}")
print("primality is necessary: B_2 & B_4 =", numtheory.block_intersection(2, 4))

print("\n== divisor counts ==")
counts = numtheory.sieve_divisors(10 ** 4)
sample = [1, 12, 64, 720, 1000, 1024, 5040, 9240]
print({n: int(counts[n]) for n in sample})
mismatches = sum(
    int(counts[n]) != numtheory.divisor_count_naive(n) for n in range(1, 10 ** 4 + 1)
)
print("sieve vs trial division mismatches up to 1e4:", mismatches)

print("\n== hyperbola identity: sum d(k) = sum floor(K/l) ==")
for cap in (10, 100, 1000):
    lhs, rhs = numtheory.divisor_sum_identity(cap)
    print(f"K={cap}: {lhs} == {rhs}")

print("\n== d(n) = o(n^eps), finite window ==")
for lo, hi in ((1, 100), (10 ** 3, 10 ** 4), (10 ** 5, 10 ** 6)):
    rep = numtheory.divisor_growth_report(hi, 0.5, lo=lo)
    print(f"max d(n)/sqrt(n) on [{lo}, {hi}]: {rep.max_ratio:.4f} at n = {rep.argmax}")
print("the ratio keeps falling with the window, as the power always wins eventually")
