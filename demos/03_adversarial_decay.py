#!/usr/bin/env python3
"""The adversarial set: one arc union that defeats every small-step progression.

Remove, for every step ell, the 1/ell-scaled periodization of a tiny arc whose
width delta(ell) is summable yet decays almost like 1/ell.  What remains has
measure > 1 - epsilon, but the uniform-coefficient energy of any progression
{ell, 2*ell, ..., N*ell} on it collapses as N grows: the progression's
Dirichlet kernel concentrates exactly on the deleted arcs.
"""

from rieszseq import constructions as con

EPSILON = 0.25
L_MAX = 64

sched = con.DeltaSchedule(EPSILON)
print("width schedule: delta(ell) = (eps/2C0) / (ell log^2(ell+1)), C0 =", sched.normalizer)
bound, budget = con.schedule_condition_a(sched)
print(f"summability: certified total {bound:.6f} < eps/2 = {budget}")
for alpha, (start, vals, inc) in con.schedule_condition_b(sched).items():
    print(f"growth of delta(ell)*ell^(1/{alpha}): sampled from {start}, increasing = {inc}")

s = con.build_adversarial_set(EPSILON, L_MAX)
print(f"\nadversarial set: {len(s.arcs)} arcs, measure {s.measure:.6f} > {1 - EPSILON}")

print("\nuniform-vector energy of {ell, 2 ell, ..., N ell} on S, with its bound:")
print(f"{'ell':>4} {'N':>6} {'energy':>12} {'bound':>12}")
for ell in (2, 4, 8):
    for cell in con.thm1_cells(s, sched, ell, [256, 1024, 4096]):
        print(f"{ell:>4} {cell.length:>6} {cell.rayleigh_uniform:>12.6f} {cell.tail_bound:>12.6f}")
print("\nevery column decays ~1/N: no frequency set containing arbitrarily long")
print("progressions of step O(N^alpha), alpha < 1, keeps a positive lower bound on S")
