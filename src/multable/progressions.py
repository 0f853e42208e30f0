"""Arithmetic progressions and the elementary transformations used by the
reduction pipeline: negation, positivity restriction, gcd normalization and
dyadic partition.

A progression is the triple (a, d, L) representing {a + i*d : 0 <= i < L}
with d >= 1 and L >= 1, so elements are strictly increasing.  Generic
integer sets are plain sorted, duplicate-free lists of Python ints
(``intset``) or one sorted array (``int_array``), int64 only where no sum or
difference of two elements overflows.  Progression arithmetic is exact; the
energy module guards its fixed-width fast paths separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import index

import numpy as np

from .errors import PreconditionError

IntSet = list[int]


def intset(values) -> IntSet:
    """Integers as a sorted, duplicate-free list of Python ints, or PreconditionError."""
    try:
        return sorted(set(map(index, values)))
    except TypeError:
        raise PreconditionError("needs integers") from None


def int_array(values, *bounds: int) -> np.ndarray:
    """The integers ``values`` as one sorted, duplicate-free array: int64 when
    they and every one of ``bounds`` (a progression's ends and step) lie below
    2^62 in magnitude, so a sum or difference of two fits, else Python ints in
    an object array; anything but integers is refused.  A strictly increasing
    array is not sorted again."""
    v = np.array(values)
    if v.dtype.kind != "i" or v.ndim != 1:  # past int64, an iterable, or not integers
        try:
            v = np.fromiter(map(index, values), dtype=object)
        except TypeError:
            raise PreconditionError("needs integers") from None
    v = v if (v[1:] > v[:-1]).all() else np.unique(v)
    fits = all(-(1 << 62) < x < 1 << 62 for x in (*bounds, *v[:1], *v[-1:]))
    return v.astype(np.int64 if fits else object, copy=False)


@dataclass(frozen=True)
class ArithmeticProgression:
    """The progression {a + i*d : 0 <= i < L}; immutable."""

    a: int
    d: int
    L: int

    def __post_init__(self):
        try:  # Python ints, so nothing wraps as numpy scalars would
            for name in ("a", "d", "L"):
                object.__setattr__(self, name, index(getattr(self, name)))
        except TypeError:
            raise PreconditionError("a, d and L must be integers") from None
        if self.d < 1:
            raise PreconditionError(f"common difference must be >= 1, got {self.d}")
        if self.L < 1:
            raise PreconditionError(f"length must be >= 1, got {self.L}")

    @property
    def last(self) -> int:
        return self.a + (self.L - 1) * self.d

    def elements(self) -> IntSet:
        """All L elements in increasing order."""
        return list(range(self.a, self.a + self.L * self.d, self.d))

    def __contains__(self, n: int) -> bool:
        if (n - self.a) % self.d:
            return False
        return 0 <= (n - self.a) // self.d < self.L

    def negated(self) -> "ArithmeticProgression":
        """The progression whose element set is {-x : x in self}."""
        return ArithmeticProgression(-self.last, self.d, self.L)

    def positive_part(self) -> "ArithmeticProgression | None":
        """Maximal suffix with all elements > 0, or None if no element is positive.

        Positivity is monotone along the progression, so the positive part
        is exactly a suffix.
        """
        if self.last <= 0:
            return None
        if self.a > 0:
            return self
        # smallest i with a + i*d > 0
        i0 = (-self.a) // self.d + 1
        return ArithmeticProgression(self.a + i0 * self.d, self.d, self.L - i0)

    def normalize_gcd(self) -> tuple["ArithmeticProgression", int]:
        """Divide through by g = gcd(a, d); returns the reduced progression and g.

        Requires all elements positive.  Dilating the result by g recovers
        the original progression exactly.
        """
        if self.a <= 0:
            raise PreconditionError("normalize_gcd requires all elements positive")
        g = gcd(self.a, self.d)
        return ArithmeticProgression(self.a // g, self.d // g, self.L), g

    def dyadic_index_blocks(self) -> list[tuple[int, int, int]]:
        """Index ranges (t, lo, hi) with ceil(L/2^(t+1)) <= i < ceil(L/2^t).

        The half-open ranges [lo, hi) partition {1, ..., L-1}: ceiling
        rounding makes consecutive blocks abut exactly, and the singleton
        index 0 is excluded by construction.  Empty ranges are dropped.
        """
        if self.L < 2:
            raise PreconditionError("dyadic partition needs L >= 2")
        blocks = []
        t = 0
        while True:
            hi = -(-self.L // (1 << t))       # ceil(L / 2^t)
            lo = -(-self.L // (1 << (t + 1)))
            if hi <= 1:
                break
            blocks.append((t, lo, hi))
            t += 1
        return blocks

