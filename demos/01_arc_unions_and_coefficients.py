#!/usr/bin/env python3
"""Arc unions on the circle and the exact coefficients of their indicators.

Walks through canonical forms (wrap splitting, overlap merging), complements,
periodized arc families, and the closed-form Fourier coefficients with their
quadrature cross-check.
"""

import numpy as np

from rieszseq import torus

print("== canonical arc unions ==")
s = torus.normalize([(0.9, 1.2), (0.05, 0.25), (0.2, 0.3)])
print("input  : [(0.9, 1.2), (0.05, 0.25), (0.2, 0.3)]")
print("canonical arcs:", [(a, b) for a, b in s.arcs.tolist()])
print("measure:", s.measure)

c = torus.complement(s)
print("complement arcs:", [(round(a, 3), round(b, 3)) for a, b in c.arcs.tolist()])
print("measures add to 1:", s.measure + c.measure)

print("\n== periodized small arcs ==")
p = torus.scale_periodize(0.05, 4)
print("half-width 0.05/4 copies at k/4:", [(a, b) for a, b in p.arcs.tolist()])
print("measure = 2*delta:", p.measure)

print("\n== closed-form coefficients vs quadrature ==")
half = torus.normalize([(0.0, 0.5)])
exacts = torus.fourier_coeff_many(half, [0, 1, 2, 3]).tolist()
for k, exact in enumerate(exacts):
    approx = torus.quadrature_coeff(half, k, 10 ** 5)
    print(f"k={k}: closed {exact:.12f}   quadrature {approx:.12f}   |diff| {abs(exact - approx):.2e}")
print("magnitude of c_hat(1) is 1/pi:", abs(exacts[1]), "=", 1 / np.pi)

print("\n== coefficient invariants ==")
c = dict(zip(range(-16, 17), torus.fourier_coeff_many(s, np.arange(-16, 17))))
print("c_hat(0) equals the measure:", c[0])
print("conjugate symmetry at k=7:", c[-7], "=conj=", c[7].conjugate())
energy = abs(c[0]) ** 2 + 2 * sum(abs(c[k]) ** 2 for k in range(1, 17))
print(f"partial coefficient energy {energy:.6f} <= measure {s.measure:.6f}")
