#!/usr/bin/env python3
"""Prime statistics along progressions and factorization-constrained counts.

Four vignettes:
  * Mertens: sum of 1/p tracks log log x with an almost constant gap;
  * prime counting in progressions against the density floor
    dL / (2 phi(d) log L);
  * the constrained sets N_k: square-free n with omega(n) = k whose j-th
    smallest prime clears log log p_j >= alpha j - beta, with the
    prefix-times-prime witness construction as a lower bound;
  * short-interval means of z^omega(n) against their envelope.
"""

import math

from multable.primestats import (
    NkQuery,
    ShiuQuery,
    nk_last_prime_extension,
    nk_set,
    prime_count_ap,
    shiu_mean,
    totient,
)
from multable.progressions import ArithmeticProgression as AP
from multable.sieve import build_table, mertens_sum

print("Mertens gap sum(1/p) - loglog x:")
for x in (10**3, 10**4, 10**5, 10**6):
    print(f"  x = 10^{round(math.log10(x))}: {mertens_sum(x) - math.log(math.log(x)):.4f}")

print("\nprimes in progressions vs the density floor:")
for a, d, L in [(100003, 1, 10**4), (200003, 3, 10**4), (5000011, 5, 10**5)]:
    count = prime_count_ap(AP(a, d, L))
    floor = d * L / (2 * totient(d) * math.log(L))
    print(f"  ({a}, {d}, {L}): {count} primes >= floor {floor:.0f}")

print("\nconstrained square-free counts over {1..100000} (alpha = log 4):")
table = build_table(1, 10**5 + 1)
dom = tuple(range(1, 10**5 + 1))
for beta in (1.0, 5.0):
    counts = [len(nk_set(NkQuery(math.log(4), beta, k, elements=dom), table)) for k in range(1, 6)]
    print(f"  beta = {beta}: counts by k = {counts}")
print("  (raising beta relaxes the floor on each prime, so deeper k survive)")

print("\nwitness construction (prefix product < sqrt(a), last prime from the quotient progression):")
ap = AP(8009, 1, 3000)
for k in (1, 2, 3):
    q = NkQuery(0.0, 10.0, k, ap=ap)
    tot = len(nk_set(q, table))
    wit = nk_last_prime_extension(q, tot)
    print(f"  k = {k}: witness {wit} <= exact {tot}")

print("\nwindow means of z^omega(n) vs envelope, n = 1 mod 3 in [10^6, 2*10^6):")
for z in (0.5, 1.0, 2.0):
    exact, bound = shiu_mean(ShiuQuery(2 * 10**6, 10**6, 3, 1, z))
    print(f"  z = {z}: exact {exact:14.1f}  envelope {bound:14.1f}  ratio {exact / bound:.3f}")
