#!/usr/bin/env python3
"""Numerical Riesz bounds of finite exponential systems restricted to a set.

The Gram matrix of {e^{2 pi i l x}} on S has entries c_hat(l_k - l_j); its
extreme eigenvalues are the sharp lower/upper bounds for the finite system,
and |S| - sqrt(off-diagonal energy) is the cheap Cauchy-Schwarz floor.
"""

import numpy as np

from rieszseq import spectral, torus

half = torus.normalize([(0.0, 0.5)])
full = torus.normalize([(0.0, 1.0)])

print("== full circle: exponentials are orthonormal ==")
rep = spectral.riesz_report(full, spectral.frequency_set([3, 7, 20]))
print("lower =", rep.lower, " upper =", rep.upper)

print("\n== half circle, frequencies {0, 1} ==")
rep = spectral.riesz_report(half, spectral.frequency_set([0, 1]))
print("lower  =", rep.lower, " (= 1/2 - 1/pi =", 0.5 - 1 / np.pi, ")")
print("upper  =", rep.upper)
print("cs floor =", rep.cs_lower, " (= 1/2 - sqrt(2)/pi)")

print("\n== half circle, frequencies {0, 2}: the coefficient at 2 vanishes ==")
rep = spectral.riesz_report(half, spectral.frequency_set([0, 2]))
print("lower = upper =", rep.lower)

print("\n== shifting all frequencies changes nothing ==")
g0 = spectral.gram(half, spectral.frequency_set([0, 1, 5]))
g1 = spectral.gram(half, spectral.frequency_set([1000, 1001, 1005]))
print("entrywise equal:", np.array_equal(g0.entries, g1.entries))

print("\n== Dirichlet tail: energy escaping a deleted arc ==")
lengths = (1, 16, 256, 4096)
for n, tail in zip(lengths, spectral.dirichlet_tail_many(lengths, 0.01)):
    bound = spectral.dirichlet_tail_bound(n, 0.01)
    print(f"N={n:5d}: tail {tail:.6f} <= (2/(pi N)) cot(pi delta) = {bound:.6f}")
print("the tail is the uniform-vector Rayleigh quotient on the complement arc,")
print("so concentrating more terms pushes the energy into the deleted arc at rate ~1/N")
