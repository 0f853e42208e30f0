#!/usr/bin/env python3
"""Walking dense subsets of progressions down to the essential case.

The pipeline mirrors negative sets, divides out gcd(a, d), narrows to a
dyadic index block where the density at most halves, bails out with a
certified energy bound once the first term reaches L log L, and otherwise
pigeonholes the block onto a common largest square divisor to produce a
square-free core B with m * B inside the original set.

Each run prints its trace: exact rational densities, lengths, and the
outcome (DirectBound = subset + proven energy cap, Reduced = square-free
core + enclosing progression + dilation factor).
"""

import random
from fractions import Fraction

from multable.energy import energy
from multable.progressions import ArithmeticProgression as AP
from multable.reduction import DirectBound, Reduced, reduce

rnd = random.Random(1)


def show(title, A, ap, delta):
    print(f"--- {title}")
    trace = reduce(A, ap, delta)
    for s in trace.steps:
        print(f"  {s.step:<16} density {s.density_before} -> {s.density_after}"
              f"  length {s.length_after}  {s.note}")
    out = trace.outcome
    if isinstance(out, DirectBound):
        exact = energy(out.subset).energy
        print(f"  DirectBound: |subset| = {len(out.subset)}, "
              f"E = {exact} <= {out.energy_value:.1f}\n")
    elif isinstance(out, Reduced):
        print(f"  Reduced: square-free core of {len(out.B)} elements inside "
              f"({out.P_prime.a}, {out.P_prime.d}, {out.P_prime.L}), m = {out.m}\n")


ap = AP(2, 2, 64)
show("all even, full density", ap.elements(), ap, 1)

ap = AP(10**9, 1, 100)
show("huge first term", ap.elements(), ap, 1)

ap = AP(-4000, 3, 900)
A = sorted(rnd.sample(ap.elements(), 450))
show("mostly negative, half density", A, ap, Fraction(1, 2))

ap = AP(1, 1, 4096)
A = sorted(rnd.sample(ap.elements(), 2458))
show("dense subset of {1..4096}", A, ap, Fraction(3, 5))
