#!/usr/bin/env python3
"""Step-O(N^alpha) assembly: a progression of EVERY length, alpha > 1.

For each length N, average the sampled coefficient energy over all steps
l <= N^alpha.  Each integer k = n*l is hit at most d(k) times, so the grid
total is bounded by the divisor-weighted energy, and the best step must beat
the average.  Diagonal over a decreasing alpha sequence, every partial union
stays above gamma/2.
"""

import numpy as np

from rieszseq import constructions as con, torus

s = torus.normalize([(0.0, 0.3)])
alpha = 1.5
print("set: single arc, measure", s.measure, "   alpha =", alpha)

span = max(con.strict_step_cap(n, alpha) * n for n in (16, 32))
powers = np.abs(torus.fourier_coeff_many(s, np.arange(span + 1))) ** 2  # |c_hat(k)|^2, k <= L*N
print(f"\n{'N':>4} {'step cap':>9} {'best ell':>9} {'best sum':>12} {'grid sum':>10} {'divisor bound':>14}")
for n in (16, 32):
    cap = con.strict_step_cap(n, alpha)
    res = con.step_search_alpha(powers, alpha, n, cap)
    print(f"{n:>4} {cap:>9} {res.ell:>9} {res.total:>12.3e} {res.grid_sum:>10.6f} {res.divisor_sum:>14.6f}")

build, _ = con.build_lambda_thm3(s, [alpha], [[16, 32]])
print("\nassembled build, gamma/2 target =", build.gamma / 2)
for b, cert in zip(build.blocks, build.schedule):
    print(
        f"  N={b.length:>3} step={b.step:>3} (< N^{alpha} = {b.length ** alpha:.1f}) "
        f"shift={b.shift} cert lambda_min={cert:.10f}"
    )
ok = all(r.ok for r in con.verify_build(s, build)[0])
print("re-verification from scratch:", "all ok" if ok else "MISMATCH")
