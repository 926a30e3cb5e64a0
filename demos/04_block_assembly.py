#!/usr/bin/env python3
"""Step-O(N) assembly: long progressions that stay a Riesz sequence.

For a given set S, block lengths n whose sampled coefficient energy
sum_{l<=n} |c_hat(l n)|^2 falls below eps/n give blocks {n, 2n, ..., n^2}
(progressions of length n and step n) with a healthy lower bound.  Shifting
blocks far apart keeps their union certified: each partial-union bound below
is an actual eigensolve.
"""

from itertools import islice

from rieszseq import constructions as con, torus

s = torus.normalize([(0.0, 0.3)])
print("set: single arc, measure", s.measure)

hits = con.good_n_search(s, eps=0.075, n_range=(1, 40))  # lazy: only the first 12 are scanned
print("good block lengths up to 40:", list(islice(hits, 12)), "...")

build = con.build_lambda_thm2(s, count=3, eps=0.075, n_range=(1, 40))
print("\nassembled build, gamma = |S|/2 =", build.gamma)
print(f"{'k':>2} {'n':>3} {'shift':>6} {'cert lambda_min':>16} {'target':>10}")
for k, (b, cert) in enumerate(zip(build.blocks, build.schedule), start=1):
    target = con.thm2_target(build.gamma, b.length)
    print(f"{k:>2} {b.length:>3} {b.shift:>6} {cert:>16.10f} {target:>10.6f}")

print("\nthe union contains an AP of length n and step n for each chosen n:")
for b in build.blocks:
    print(f"  n={b.length}: {b.frequencies().tolist()}")

rows, rep = con.verify_build(s, build)
print("\nre-verification from scratch:", "all ok" if all(r.ok for r in rows) else "MISMATCH")
print(f"whole system of size {rep.size}: lower {rep.lower:.6f}, upper {rep.upper:.6f}")
