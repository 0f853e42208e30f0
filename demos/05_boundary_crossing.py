#!/usr/bin/env python3
"""Order-statistic boundary probabilities and constrained simplex volumes.

P(U_(j) >= c_j for all j) is the chance that n sorted uniforms stay above
a staircase.  The exact conditioning recursion handles any non-decreasing
boundary; a Monte Carlo that draws batch i from SFC64 seeded with
SeedSequence((seed, i)) cross-checks it (its estimates differ from 0.1.0's
Philox stream at the same seed); and the special line boundary
c_j = (j - u)/(n + w - u) admits the classic approximation 1 - exp(-2uw/n).  The same probability, scaled by N^n / n!, is the volume
of the ordered region {0 <= x_1 <= ... <= x_n <= N, x_j >= alpha j - beta},
and a closed-form envelope pins that volume within [X/4, 3X] once the
slack parameters are large enough.
"""

import math

from multable.smirnov import (
    SmirnovBoundary,
    volume_sandwich,
    noncrossing_probability_exact,
    noncrossing_probability_mc,
    q_n,
    region_volume,
)

b = SmirnovBoundary.from_values([0.1, 0.25, 0.3, 0.6])
exact = noncrossing_probability_exact(b)
est, se = noncrossing_probability_mc(b, 10**6, seed=42)
print(f"staircase (0.1, 0.25, 0.3, 0.6): exact {exact:.6f}, MC {est:.6f} +- {se:.6f}")

print("\nline boundary, n = 100: exact vs 1 - exp(-2uw/n):")
for u, w in [(2, 2), (5, 5), (10, 5), (10, 20)]:
    v = q_n(u, w, 100)
    approx = 1 - math.exp(-2 * u * w / 100)
    print(f"  u={u:>2} w={w:>2}: exact {v:.4f}  approx {approx:.4f}  "
          f"scaled gap {abs(v - approx) * 100 / (u + w):.3f}")

print("\nordered-region volumes:")
print(f"  full simplex n=3, N=1: {region_volume(3, 1, 0.0, 0.0):.6f} (= 1/6)")
print(f"  n=2, N=1, alpha=0.3, beta=0.1: {region_volume(2, 1, 0.3, 0.1):.6f}")

print("\nvolume envelope on a slack grid (alpha = log 4):")
a = math.log(4)
for n in (50, 100, 200):
    for beta_mult, w_alpha in [(8, 16), (16, 64)]:
        beta = beta_mult * a
        N = a * n - beta + w_alpha * a
        r = volume_sandwich(n, N, a, beta)
        verdict = "within [X/4, 3X]" if (
            r.lower_applicable and r.factor / 4 <= r.probability <= 3 * r.factor
        ) else "upper bound only"
        print(f"  n={n:>3} u={beta_mult:>2} w={w_alpha:>2}: P = {r.probability:.4f} "
              f"uw/n = {r.factor:.3f} -> {verdict}")
