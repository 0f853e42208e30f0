"""Reduction of a dense subset of a progression to the essential case.

Five steps: restrict to positives (mirroring first when fewer than a third
of the elements are positive), divide out gcd(a, d), select a dyadic index
block where the set keeps at least half its density, bail out with the
universal energy bound when the first term dominates L log L, and finally
extract a square-free core by pigeonholing on the largest square divisor.

The set becomes one sorted array at entry (``int_array``: int64 while it and
the progression's ends and step lie below 2^62 in magnitude, else Python
ints), which every step slices, divides or searches; only the public results
are lists.

Every step keeps exact rational density bookkeeping, and the outcome is
either ``DirectBound`` (a subset together with a proven upper bound on its
multiplicative energy) or ``Reduced`` (a square-free set B, its enclosing
progression, and the dilation factor m with m*B inside the original set).
At desk scale the asymptotic pigeonhole arguments can run out of room (a
singleton block, a small L); those paths fall back to DirectBound, which is
valid unconditionally, and the trace notes say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import numpy as np

from .errors import InternalCheckError, PreconditionError
from .progressions import ArithmeticProgression, int_array
from .sieve import hull_table

# "L large" has no content at desk scale; the universal bound needs none.
EXTREMAL_FLAG_FACTOR = 2.0


def large_a_energy_bound(ap: ArithmeticProgression, subset_size: int | None = None) -> float:
    """Energy cap 2|A|^2 + 4 (L^3/a)(1 + log L) for subsets of ap.

    Valid for any subset whenever gcd(a, d) = 1 and a, d > 0; with no
    subset size given the full length L is used for the 2|A|^2 term.
    """
    if ap.a <= 0 or gcd(ap.a, ap.d) != 1:
        raise PreconditionError("bound needs a > 0 and gcd(a, d) = 1")
    size = ap.L if subset_size is None else subset_size
    return 2.0 * size * size + 4.0 * ap.L**3 / ap.a * (1.0 + math.log(ap.L))


def _square_class(A: np.ndarray, T: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Largest class of sorted A sharing one largest square divisor t^2 <= T^2.

    Returns arrays (B0, t, B) with B = B0 / t^2 square-free; among equally
    large classes the smallest t wins.  Elements whose largest square divisor
    exceeds T^2 are discarded before classing.  Square divisors come from
    ``hull_table`` over A, then over B for its check, so A's hull must fit the
    ``sieve`` budget, or BudgetError (as for A = [2, 3, 2**30], T = 2).
    """
    if not A.size or A[0] < 1 or A[-1] >= 2**63:
        raise PreconditionError("needs positive integers below 2^63")
    table, at = hull_table(A, factor_lists=False)
    sq = table.square_divisor_array[at]
    del table, at  # freed before B's table is built
    small = sq <= T * T
    if not small.any():
        raise PreconditionError(f"every element has a square divisor above T^2 = {T * T}")
    # np.unique sorts, so the first largest count belongs to the smallest t
    classes, counts = np.unique(sq[small], return_counts=True)
    best_sq = int(classes[np.argmax(counts)])
    B0 = A[sq == best_sq]
    B = B0 // best_sq
    table, at = hull_table(B, factor_lists=False)
    if np.any(table.square_divisor_array[at] != 1):
        raise InternalCheckError("divided class is not square-free")
    return B0, math.isqrt(best_sq), B


def _within(values: np.ndarray, original: np.ndarray) -> bool:
    """Whether every element of the sorted array ``values`` is in ``original``."""
    at = np.searchsorted(original, values)
    return not at.size or (at[-1] < original.size and np.array_equal(original[at], values))


def _hull_prefix(B, d: int) -> int:
    """Length of the longest prefix of the sorted set B (at least 1) whose
    hull B[0] + d*i, i < span, keeps B[0] > d*span."""
    return max(1, int(np.searchsorted(B, B[0] + d * (-(-B[0] // d) - 1))))


@dataclass
class ReductionStep:
    step: str
    density_before: Fraction
    density_after: Fraction
    length_after: int
    note: str = ""


@dataclass
class DirectBound:
    """A subset of the original set with a certified energy upper bound."""

    subset: list[int]
    energy_value: float


@dataclass
class Reduced:
    """Square-free core B inside progression P_prime; m * B lies in the input."""

    B: list[int]
    P_prime: ArithmeticProgression
    m: int


@dataclass
class ReductionTrace:
    steps: list[ReductionStep] = field(default_factory=list)
    outcome: DirectBound | Reduced | None = None


def reduce(A, ap: ArithmeticProgression, delta) -> ReductionTrace:
    """Run the five-step pipeline on (A, ap) with density at least delta."""
    delta = Fraction(delta)
    A = original = int_array(A, ap.a, ap.last, ap.d)
    if not A.size or A[0] < ap.a or A[-1] > ap.last or np.any((A - ap.a) % ap.d):
        raise PreconditionError("A must be a nonempty subset of ap")
    if len(A) < delta * ap.L:
        raise PreconditionError(f"|A| = {len(A)} below delta * L = {float(delta * ap.L)}")

    trace = ReductionTrace()
    density = Fraction(len(A), ap.L)

    # Step 1: positivity, mirroring if fewer than 1/3 of elements are positive
    sign = 1
    note = ""
    if 3 * (len(A) - int(np.searchsorted(A, 0, side="right"))) < len(A):
        sign = -1
        A = -A[::-1]
        ap = ap.negated()
        note = "mirrored to -A (fewer than 1/3 positive)"
    A1 = A[np.searchsorted(A, 0, side="right"):]
    P1 = ap.positive_part()
    if not A1.size or P1 is None:
        raise PreconditionError("no positive elements on either side")
    d1 = Fraction(len(A1), P1.L)
    trace.steps.append(ReductionStep("Positivity", density, d1, P1.L, note))
    if 3 * d1 <= delta:
        raise InternalCheckError("positivity step lost more than two thirds of density")

    # Step 2: divide out gcd(a, d)
    P2, g = P1.normalize_gcd()
    A2 = A1 // g
    d2 = Fraction(len(A2), P2.L)
    trace.steps.append(ReductionStep("GcdNormalize", d1, d2, P2.L, f"g={g}"))

    def direct(subset_norm: np.ndarray, prog: ArithmeticProgression, why: str) -> ReductionTrace:
        bound = large_a_energy_bound(prog, subset_size=len(subset_norm))
        back = (subset_norm * (sign * g))[::sign]  # ascending again
        if not _within(back, original):
            raise InternalCheckError("bounded subset escapes the original set")
        trace.steps.append(
            ReductionStep("ExtremalCheck", trace.steps[-1].density_after,
                          trace.steps[-1].density_after, prog.L, why)
        )
        trace.outcome = DirectBound(subset=back.tolist(), energy_value=bound)
        return trace

    # Step 3: dyadic block selection over indices 1..L-1
    if P2.L < 2:
        return direct(A2, P2, "singleton progression; universal bound")
    blocks = P2.dyadic_index_blocks()
    # A2 lies in P2, so the elements with index in [lo, hi) start at a + d*lo
    ends = np.array([[P2.a + P2.d * lo, P2.a + P2.d * hi] for _, lo, hi in blocks], dtype=A2.dtype)
    cuts = np.searchsorted(A2, ends).tolist()
    counts = [j - i for i, j in cuts]
    lengths = [hi - lo for _, lo, hi in blocks]
    total = P2.L - 1
    # smallest t0 whose tail mass fits inside half the set's index mass
    tail = total
    t0 = 0
    while tail > d2 * total / 2 and t0 < len(blocks):
        tail -= lengths[t0]
        t0 += 1
    qualifying = [i for i in range(t0) if 2 * counts[i] >= d2 * lengths[i]]
    if not qualifying:
        return direct(A2, P2, "no dyadic block kept half density at this scale")
    t1 = max(qualifying, key=lambda i: (counts[i], -i))
    _, lo, hi = blocks[t1]
    P3 = ArithmeticProgression(P2.a + lo * P2.d, P2.d, hi - lo)
    first, end = cuts[t1]
    A3 = A2[first:end]
    d3 = Fraction(len(A3), P3.L)
    if 2 * d3 < d2:
        raise InternalCheckError("selected block density below half")
    if P3.a <= P3.d * P3.L:
        raise InternalCheckError("dyadic block lost the a > dL guarantee")
    trace.steps.append(
        ReductionStep("DyadicSelect", d2, d3, P3.L, f"t1={blocks[t1][0]}, indices [{lo},{hi})")
    )

    # Step 4: first term large enough for the universal bound to win outright
    threshold = P3.L * math.log(P3.L)
    band = ""
    if P3.L >= 3:
        half = 0.5 * P3.L * math.sqrt(math.log(P3.L))
        if half <= P3.a <= 2 * half:
            # the narrowing constant is ambiguous in this band; record it
            band = "; a between (1/2) L sqrt(log L) and L sqrt(log L)"
    if P3.a >= threshold:
        why = "a >= L log L; universal bound"
        if P3.a < EXTREMAL_FLAG_FACTOR * threshold:
            why += " (within factor 2 of threshold)"
        return direct(A3, P3, why + band)

    # Step 5: square-free core via the largest-square-divisor pigeonhole
    room = d3 * d3 / 9 * P3.L * P3.L
    if P3.a + P3.d * P3.L >= room or P3.d > P3.L:
        return direct(
            A3, P3,
            "square-free pigeonhole lacks room at this scale; universal bound",
        )
    # the lemma: under the room bound and d <= L some class keeps |B0| >= delta^2 L / 18
    B0, t, B = _square_class(A3, math.ceil(3 / d3))
    if 18 * len(B0) < d3 * d3 * P3.L:
        floor = float(d3 * d3 * P3.L / 18)
        raise InternalCheckError(f"pigeonhole class size {len(B0)} below delta^2 L / 18 = {floor:.4g}")
    note5 = f"t={t}, |B0|={len(B0)}" + band
    keep = _hull_prefix(B, P3.d)
    if keep < len(B):
        note5 += f", trimmed {len(B) - keep} for the hull guarantee"
        B = B[:keep]
    span = int(B[-1] - B[0]) // P3.d + 1
    P5 = ArithmeticProgression(int(B[0]), P3.d, span)
    # room and a > dL give 2L < delta^2 L^2/9, so L > 18/delta^2 > T^2 = ceil(3/delta)^2
    # and B[0] >= a/T^2 > d; _hull_prefix keeps b < B[0] + d(ceil(B[0]/d) - 1): d*span < B[0]
    if P5.a <= P5.d * P5.L:
        raise InternalCheckError("square-free hull lost the a > dL guarantee")
    m = sign * g * t * t
    if not _within((B * m)[::sign], original):
        raise InternalCheckError("dilated square-free core escapes the original set")
    d5 = Fraction(len(B), P5.L)
    trace.steps.append(ReductionStep("SquarefreeReduce", d3, d5, P5.L, note5))
    trace.outcome = Reduced(B=B.tolist(), P_prime=P5, m=m)
    return trace
