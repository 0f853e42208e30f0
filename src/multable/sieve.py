"""Prime tables and segmented factorization over arithmetic progressions.

``FactorizationTable`` holds per-element arithmetic data for the L
elements a + d*i of a progression: number of distinct prime factors,
largest square divisor, and the ascending distinct prime factors.  An
interval [lo, hi) is the case d = 1 (``build_table``); ``progression_table``
is the general case.  Both sieve in index space with the primes up to the
square root of the last element, in two regimes: primes below 2^10 that
hit several elements, and primes dividing d, walk the elements by strides
for p, p^2, p^3, ...; all other primes go in batches of (position, prime)
pairs, so no Python loop runs per prime.  The sieve divides no element:
each smooth part (sieving-prime powers) is multiplied up, and element //
smooth, if not 1, is one more prime.  Factors go straight into their CSR
slots (one int64 array plus offsets): a table peaks at about its arrays
plus one int64 per element.  Budgets count elements sieved, not the
interval around them.

Tables are the library's one source of prime factors, nothing trial-divides:
``hull_table`` sieves the shortest progression through a set.  The one
primality sieve, ``prime_flags``, runs in index space over the elements of a
progression too; the one prime list, ``primes_upto``, is a cache that grows
through it; ``fits`` is the sieve's reach.  Also here: ``mertens_sum``, the
sum of 1/p over primes up to x.
"""

from __future__ import annotations

from math import gcd, isqrt

import numpy as np

from .errors import BUDGETS, PreconditionError, check_budget
from .progressions import ArithmeticProgression, _integers, int_array

_STRIDE_SPLIT = 1 << 10  # primes below this are sieved by stride
_PAIR_BATCH = 1 << 22  # max (position, prime) pairs held at once


# (bound, every prime up to it); primes_upto grows it through prime_flags
_prime_cache = (47, np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47], dtype=np.int64))
_prime_cache[1].flags.writeable = False


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit, ascending: a read-only int64 view of one module
    cache, which a larger limit grows to at least twice its bound through
    ``prime_flags``.  A limit above the ``sieve`` budget raises
    ``BudgetError`` before anything is allocated."""
    global _prime_cache
    check_budget("sieve", limit)
    bound, primes = _prime_cache
    if limit > bound:
        bound = min(max(limit, 2 * bound), BUDGETS["sieve"])
        primes = np.flatnonzero(prime_flags(ArithmeticProgression(2, 1, bound - 1))) + 2
        primes.flags.writeable = False
        _prime_cache = bound, primes
    return primes[: np.searchsorted(primes, limit, side="right")]


class FactorizationTable:
    """Per-element factorization data over the progression lo + d*i,
    lo <= lo + d*i < hi, built by sieving its elements.

    ``omega_array`` and ``square_divisor_array`` hold omega and the largest
    square divisor of element i at index i.  ``factors`` is None or the pair
    (flat, offsets): the prime factors of element i, ascending, are
    ``flat[offsets[i]:offsets[i + 1]]``.
    """

    def __init__(self, ap: ArithmeticProgression, omega, square_divisor, factors):
        self.lo, self.d, self.hi = ap.a, ap.d, ap.a + ap.d * ap.L
        self.omega_array = omega
        self.square_divisor_array = square_divisor
        self._factors = factors

    # scalar twin of positions, kept for prime_factors: through positions a
    # call took 10.5 us instead of 1.0, and summaries make one per element
    def _index(self, n: int) -> int:
        i, r = divmod(n - self.lo, self.d)
        if r or not self.lo <= n < self.hi:
            raise PreconditionError(f"{n} not among the table's elements {self.lo} + {self.d}i < {self.hi}")
        return i

    def positions(self, values) -> np.ndarray:
        """Index of each value among the table's elements, in the order given,
        as an int64 array; ``PreconditionError`` if any value is not an
        element, or not an integer."""
        try:
            v = _integers(values).astype(np.int64, copy=False)
        except OverflowError:
            raise PreconditionError("value outside int64 is not an element of the table") from None
        pos, rem = np.divmod(v - self.lo, self.d)
        off = (v < self.lo) | (v >= self.hi) | (rem != 0)
        if off.any():
            self._index(int(v[off][0]))  # raises, naming the first such value
        return pos

    def prime_factors(self, n: int) -> list[int]:
        flat, offsets = self.factor_arrays
        i = self._index(n)
        return flat[offsets[i] : offsets[i + 1]].tolist()

    @property
    def factor_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(flat, offsets): the prime factors of every element, flat (CSR)."""
        if self._factors is None:
            raise PreconditionError("table was built with factor_lists=False")
        return self._factors


def fits(ap: ArithmeticProgression) -> bool:
    """Whether a sieve over ap's elements stays within the ``sieve`` budget,
    at most 2^24 elements and sieving primes up to 2^24 (ap.last below about
    2^48): where ``progression_table`` and ``prime_flags`` refuse nothing."""
    return max(ap.L, isqrt(max(ap.last, 0))) <= BUDGETS["sieve"]


def _sieving_primes(ap: ArithmeticProgression) -> np.ndarray:
    """Primes up to sqrt(ap.last) for sieving ap's elements; ``BudgetError``
    where ap does not ``fits``, before anything is allocated."""
    check_budget("sieve", ap.L)
    return primes_upto(isqrt(max(ap.last, 0)))


def _offsets(a: int, d: int, primes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per prime p, the first index i < n with p | a + d*i (n if none) and
    the step to the next: p from -a d^-1 (mod p), every d^-1 = d^(p - 2)
    mod p at once by square-and-multiply; for p | d, 1 from 0 or none."""
    am = (-a) % primes
    if d == 1:
        return am, primes
    dp = d % primes
    inv, base, e = np.ones_like(primes), dp, primes - 2
    while e.any():
        inv = np.where(e & 1, inv * base % primes, inv)
        base = base * base % primes
        e >>= 1
    off = np.where((dp == 0) & (am != 0), n, am * inv % primes)
    return off, np.where(dp == 0, 1, primes)


def _hit_batches(off: np.ndarray, length: int, primes: np.ndarray):
    """Every index off + p*j < length of each prime, as (position, prime)
    int64 arrays in batches of at most _PAIR_BATCH pairs, primes ascending."""
    hit = np.flatnonzero(off < length)
    primes, off = primes[hit], off[hit]
    cnt = (length - 1 - off) // primes + 1
    ends = np.cumsum(cnt)
    b0 = 0
    while b0 < primes.size:
        base = int(ends[b0 - 1]) if b0 else 0
        b1 = max(int(np.searchsorted(ends, base + _PAIR_BATCH, side="right")), b0 + 1)
        c = cnt[b0:b1]
        p = np.repeat(primes[b0:b1], c)
        pos = np.arange(p.size, dtype=np.int64)
        pos -= np.repeat(ends[b0:b1] - c - base, c)  # hit number within its prime
        pos *= p
        pos += np.repeat(off[b0:b1], c)
        yield pos, p
        b0 = b1


def _sieve(ap: ArithmeticProgression, primes: np.ndarray, factor_lists: bool):
    """omega, largest square divisor and (if asked) CSR prime factors of the
    elements of ap (all positive), sieved by smooth parts with ``primes`` (all
    primes up to sqrt(ap.last)); a second pass writes the factors in place."""
    a, d, length = ap.a, ap.d, ap.L
    omega = np.zeros(length, dtype=np.int16)
    sqdiv = np.ones(length, dtype=np.int64)
    smooth = np.ones(length, dtype=np.int64)
    strided = []  # (p, first index, step) of each stride prime that divides an element

    stride = (primes < min(_STRIDE_SPLIT, length)) | (d % primes == 0)
    for p in primes[stride].tolist():
        # the multiples of q = p^k are the indices -(a/g) (d/g)^-1 (mod q/g), g = gcd(d, q),
        # or none if g does not divide a: their smooth parts gain p, at even k sqdiv p^2
        q, k = p, 1
        while a % (g := gcd(d, q)) == 0:
            m = q // g
            first = -(a // g) * pow(d // g, -1, m) % m
            if first >= length:
                break
            if k == 1:
                omega[first::m] += 1
                strided.append((p, first, m))
            smooth[first::m] *= p
            if k % 2 == 0:
                sqdiv[first::m] *= p * p
            q, k = q * p, k + 1

    batched = primes[~stride]  # none divides d
    off = _offsets(a, d, batched, length)[0]
    for pos, p in _hit_batches(off, length, batched):
        omega += np.bincount(pos, minlength=length).astype(np.int16)
        # round k takes the pairs whose element p^k divides (.at: several primes can
        # share a position) and tests p^(k+1) on the element, then on its quotient
        k = 1
        while pos.size:
            np.multiply.at(smooth, pos, p)
            if k % 2 == 0:
                np.multiply.at(sqdiv, pos, p * p)
            live = (a + d * pos) % (p * p) == 0 if k == 1 else (a + d * pos) // smooth[pos] % p == 0
            pos, p, k = pos[live], p[live], k + 1

    cofactor = ap.array()  # the elements, for now
    omega += cofactor > smooth  # one prime above sqrt(ap.last)
    if not factor_lists:
        return omega, sqdiv, None
    cofactor = np.floor_divide(cofactor, smooth, out=smooth)  # 1 where none, in place of smooth
    del smooth
    offsets = np.empty(length + 1, dtype=np.int64)
    offsets[0], offsets[1:] = -1, omega
    np.cumsum(offsets, out=offsets)  # each element's last slot, for now
    flat = np.empty(int(offsets[-1]) + 1, dtype=np.int64)
    # the last slot of every element but 1 takes its cofactor, or a 1 that its
    # largest sieving prime overwrites below
    flat[offsets[1 + int(a == 1) :]] = cofactor[int(a == 1) :]
    offsets += 1
    del cofactor

    # each element's next free slot takes its primes in ascending order, so a stride
    # prime waits for the batched ones below it; the last, empty entry writes the rest
    cursor = offsets[:-1]
    cuts = np.searchsorted(batched, [p for p, _, _ in strided]).tolist() + [batched.size]
    for (p, first, m), lo, hi in zip(strided + [(0, length, 1)], [0] + cuts, cuts):
        for pos, q in _hit_batches(off[lo:hi], length, batched[lo:hi]) if lo < hi else ():
            # sorted (position, index) keys group pairs by position, primes ascending;
            # pair j goes to max(cursor[pos] - j) up to j, plus j, as each position's
            # pairs fit below the next position's free slot
            bits = pos.size.bit_length()
            pos <<= bits
            pos |= np.arange(pos.size)
            pos.sort()
            q = q[pos & ((1 << bits) - 1)]
            pos >>= bits
            slot = cursor[pos]
            slot -= np.arange(pos.size)
            np.maximum.accumulate(slot, out=slot)
            slot += np.arange(pos.size)
            flat[slot] = q
            np.add.at(cursor, pos, 1)
        flat[cursor[first::m]] = p
        cursor[first::m] += 1
    offsets[0], offsets[1:] = 0, omega
    np.cumsum(offsets, out=offsets)
    return omega, sqdiv, (flat, offsets)


def progression_table(ap: ArithmeticProgression, factor_lists: bool = True) -> FactorizationTable:
    """Factorization table over the L elements a + d*i of ap; requires a >= 1.

    Sieves in index space with every prime up to sqrt(ap.last), by the smooth
    parts and in the two regimes of the module docstring; ``factor_lists``
    writes the prime factors in place (CSR), peaking at about the returned
    arrays plus one int64 per element.  Raises ``BudgetError`` where ap
    does not ``fits`` the sieve.
    """
    if ap.a < 1:
        raise PreconditionError(f"needs positive elements, got first element {ap.a}")
    if ap.L == 1:  # any step will do, and 1 keeps the index arithmetic in int64
        ap = ArithmeticProgression(ap.a, 1, 1)
    primes = _sieving_primes(ap)
    return FactorizationTable(ap, *_sieve(ap, primes, factor_lists))


def build_table(lo: int, hi: int, factor_lists: bool = True) -> FactorizationTable:
    """Factorization table for the interval [lo, hi), the progression
    AP(lo, 1, hi - lo) of ``progression_table``; requires 1 <= lo < hi."""
    if lo < 1 or hi <= lo:
        raise PreconditionError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    return progression_table(ArithmeticProgression(lo, 1, hi - lo), factor_lists)


def hull_table(values, factor_lists: bool = True) -> tuple[FactorizationTable, np.ndarray]:
    """Table over the hull of sorted distinct positives, and each value's
    index in it.  The hull is the shortest progression through them (step:
    the gcd of the gaps), so a progression is its own hull.  It counts against
    the ``sieve`` budget: ``BudgetError`` past 2^24 numbers or a last one
    above about 2^48.  Cost follows the hull, not the values: [2, 3, 2**22 + 1]
    sieves 2^22 numbers, at about 30 traced bytes each (50 with factor lists)."""
    v = int_array(values)
    step = int(np.gcd.reduce(np.diff(v))) or 1
    hull = ArithmeticProgression(int(v[0]), step, int(v[-1] - v[0]) // step + 1)
    table = progression_table(hull, factor_lists)  # refuses first: positivity, budget
    return table, ((v - v[0]) // step).astype(np.int64, copy=False)  # members by construction


def prime_flags(ap: ArithmeticProgression) -> np.ndarray:
    """Bool array over the elements of ap: True exactly at primes.

    Eratosthenes in index space: for a prime p not dividing d, the
    elements divisible by p are the indices i = -a d^-1 (mod p), one
    strided slice.  Elements below 2 are False.  An interval [lo, hi) is
    AP(lo, 1, hi - lo).  Raises ``BudgetError`` where ap does not ``fits``.
    """
    primes = _sieving_primes(ap)
    flags = np.zeros(ap.L, dtype=bool)
    i0 = 0 if ap.a >= 2 else min(ap.L, -(-(2 - ap.a) // ap.d))  # first element >= 2
    live = flags[i0:]
    live[:] = True
    n = live.size  # n < 2: at most the last element is left, and any step will do
    a, d = (ap.a + i0 * ap.d, ap.d) if n > 1 else (max(ap.last, 2), 1)
    off, step = _offsets(a, d, primes, n)
    many = off + step < n  # two hits or more: one strided slice each
    live[off[(off < n) & ~many]] = False  # one hit: all of them at once
    for r, s in zip(off[many].tolist(), step[many].tolist()):
        live[r::s] = False
    own = (primes - a) // d  # set back the sieving primes that are elements
    live[own[(primes >= a) & ((primes - a) % d == 0) & (own < n)]] = True
    return flags


def mertens_sum(x: int) -> float:
    """Sum of 1/p over primes p <= x, correctly rounded like ``math.fsum``, by
    an exact integer sum of the mantissas of the 1/p in runs of one exponent;
    x above the ``sieve`` budget raises ``BudgetError``.

    Tracks log log x to within a bounded constant (about 0.2615 plus a
    small positive remainder for x in the desk range)."""
    if x < 2:
        raise PreconditionError("mertens_sum needs x >= 2")
    m, e = np.frexp(1.0 / primes_upto(x))  # e <= 0, falling as p grows
    mant = np.ldexp(m, 53).astype(np.int64)  # 1/p = mant * 2^(e - 53)
    runs = np.flatnonzero(np.diff(e, prepend=1))  # in 26-bit halves a run's sum fits int64
    hi, lo = (np.add.reduceat(h, runs).tolist() for h in (mant >> 26, mant & (1 << 26) - 1))
    total = sum(((h << 26) + l) << k for h, l, k in zip(hi, lo, (e[runs] - e[-1]).tolist()))
    return total / (1 << (53 - int(e[-1])))
