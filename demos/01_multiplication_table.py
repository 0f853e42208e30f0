#!/usr/bin/env python3
"""How many distinct products does an N x N multiplication table hold?

The exact count is computed by marking achieved products in a dense bit
array, row by row.  The interesting quantity is the normalized ratio

    count * (log N)^(2 theta) * (log log N)^(3/2) / N^2

with theta = 1 - (1 + log log 4)/log 4 ~ 0.0430: the count is known to
grow like N^2 divided by those log factors, so the ratio should hover
around a constant while N doubles.  We print the ratio across a range of
sizes and cross-check the small counts against the three product-set
strategies.
"""

from multable.energy import product_set
from multable.experiments import THETA, normalized_ratio, table_count

print(f"theta = {THETA.theta:.6f}, 2*theta = {THETA.two_theta:.6f}\n")

print(f"{'N':>6} {'distinct':>12} {'ratio':>8}")
for e in range(2, 15):
    N = 1 << e
    count = table_count(N)
    r = normalized_ratio(N, count)
    print(f"{N:>6} {count:>12} {r:>8.4f}")

print("\nsmall-N cross-check against the product-set strategies:")
for N in (4, 10, 32):
    r = list(range(1, N + 1))
    counts = {s: len(product_set(r, r, s)) for s in ("bitset", "hash", "merge")}
    assert set(counts.values()) == {table_count(N)}
    print(f"  N={N:>3}: {table_count(N)} (all strategies agree)")
