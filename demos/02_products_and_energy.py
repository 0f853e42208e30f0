#!/usr/bin/env python3
"""Product sets and multiplicative energy of arithmetic progressions.

The multiplicative energy E(A) counts quadruples with a1*b1 = a2*b2; it is
large exactly when the product set is small, and the Cauchy-Schwarz floor
|A|^4 / E(A) <= |A.A| makes that quantitative.  Three progressions with
the same length behave very differently:

  * {1..64}: dense products, high energy;
  * a progression with a huge first term: essentially all products
    distinct, energy near its 2L^2 - L floor;
  * a geometric set (not a progression): maximal energy for its size.
"""

from math import log

from multable.energy import energy, product_set, random_energy_subset
from multable.progressions import ArithmeticProgression as AP
from multable.reduction import large_a_energy_bound

L = 64
cases = {
    "interval {1..64}": AP(1, 1, L).elements(),
    "first term 10^9": AP(10**9, 1, L).elements(),
    "step 1000 from 7": AP(7, 1000, L).elements(),
    "geometric 2^j": [2**j for j in range(L // 4)],
}

for name, A in cases.items():
    rep = energy(A)  # checks the Cauchy-Schwarz floor against |A.A| exactly
    pa = len(product_set(A, A))
    print(f"{name:>18}: |A|={len(A):>3} E(A)={rep.energy:>8} |A.A|={pa:>5} CS floor={rep.cs_floor:8.1f}")

print("\nenergy cap for progressions with a coprime large first term:")
for a in (10**3, 10**5, 10**9):
    ap = AP(a, 1, L)
    e = energy(ap.elements()).energy
    cap = large_a_energy_bound(ap)
    print(f"  a={a:>10}: E = {e:>6} <= {cap:10.1f}")

print("\nextracting a low-energy subset from {1..200} by random thinning:")
A = list(range(1, 201))
eA = energy(A).energy
sub = random_energy_subset(A, seed=0)
eS = energy(sub).energy
print(f"  |A| = {len(A)}, E(A) = {eA}")
print(f"  kept {len(sub)} elements, E = {eS} <= 4|A'|^2 = {4 * len(sub) ** 2}")
print(f"  size floor |A|^3 / (2 E(A)) = {len(A) ** 3 / (2 * eA):.1f}")
