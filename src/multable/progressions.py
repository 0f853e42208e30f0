"""Arithmetic progressions and the elementary transformations used by the
reduction pipeline: negation, positivity restriction, gcd normalization and
dyadic partition.

A progression is the triple (a, d, L) representing {a + i*d : 0 <= i < L}
with d >= 1 and L >= 1, so elements are strictly increasing.  Any iterable
of integers is a set: the library reads it once, with ``int_array``, into
one sorted, duplicate-free array, int64 only where no sum or difference of
two elements overflows (``exact_dtype``); only results are lists.  The
energy kernel's products and quotient keys take their dtype by that rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import index

import numpy as np

from .errors import PreconditionError


def _integers(values) -> np.ndarray:
    """``values`` in their order as one flat array: as numpy reads them when
    that gives signed integers (an integer array is not copied), else Python
    ints in an object array; anything but integers is refused."""
    v = np.asarray(values)
    if v.dtype.kind != "i" or v.ndim != 1:  # past int64, an iterable, or not integers
        try:
            v = np.fromiter(map(index, values), dtype=object)
        except TypeError:
            raise PreconditionError("needs integers") from None
    return v


def _integer(name: str, v) -> int:
    """``v`` as a Python int, so nothing wraps as numpy scalars would or
    rounds as floats would; anything else is refused."""
    try:
        return index(v)
    except TypeError:
        raise PreconditionError(f"{name} must be an integer") from None


def _set_integers(obj, *names: str) -> None:
    """Turn the named fields of the frozen dataclass ``obj`` into Python ints."""
    for name in names:
        object.__setattr__(obj, name, _integer(name, getattr(obj, name)))


def exact_dtype(*values: int):
    """int64 when every value is below 2^62 in magnitude, so sums and differences
    of two fit, else object.  The sieve's int64 tables stay below 2^48 by budget."""
    return np.int64 if all(-(1 << 62) < x < 1 << 62 for x in values) else object


def int_array(values, *bounds: int) -> np.ndarray:
    """The integers ``values`` as one sorted, duplicate-free array in the
    ``exact_dtype`` of its ends and ``bounds``; non-integers are refused.  A
    strictly increasing array is not sorted again, nor returned itself."""
    v = _integers(values)
    v = v if (v[1:] > v[:-1]).all() else np.unique(v)
    return v.astype(exact_dtype(*bounds, *v[:1], *v[-1:]), copy=v is values)


@dataclass(frozen=True)
class ArithmeticProgression:
    """The progression {a + i*d : 0 <= i < L}; immutable."""

    a: int
    d: int
    L: int

    def __post_init__(self):
        _set_integers(self, "a", "d", "L")
        if self.d < 1:
            raise PreconditionError(f"common difference must be >= 1, got {self.d}")
        if self.L < 1:
            raise PreconditionError(f"length must be >= 1, got {self.L}")

    @property
    def last(self) -> int:
        return self.a + (self.L - 1) * self.d

    def elements(self) -> list[int]:
        """All L elements in increasing order."""
        return list(range(self.a, self.a + self.L * self.d, self.d))

    def array(self, idx=None) -> np.ndarray:
        """The elements a + d*i at the sorted indices ``idx`` (all when None), in
        their ``exact_dtype``; np.arange(a, last + 1, d) would count in floats."""
        dtype = exact_dtype(self.a, self.last, self.d)
        v = np.arange(self.L, dtype=dtype) if idx is None else np.array(idx, dtype=dtype)
        return np.add(np.multiply(v, self.d, out=v), self.a, out=v)

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

