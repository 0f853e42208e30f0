"""Prime tables and segmented factorization over integer intervals.

``FactorizationTable`` holds per-element arithmetic data for a half-open
interval [lo, hi): number of distinct prime factors, square-free flag,
largest square divisor, and the sorted list of distinct prime factors.
It is built by sieving the interval with primes up to sqrt(hi); whatever
cofactor survives is itself prime and recorded as such.

Also here: one-off factorization helpers (numpy-assisted trial division,
deterministic Miller-Rabin), vectorized largest-square-divisor extraction
for arbitrary integer arrays, interval primality bitmaps, and the
prime-reciprocal sum used as an empirical Mertens check.
"""

from __future__ import annotations

import math
from math import gcd, isqrt

import numpy as np

from .errors import BudgetError, InternalCheckError, PreconditionError
from .progressions import ArithmeticProgression

SEGMENT_BUDGET = 1 << 24  # max elements per built interval


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (Eratosthenes on a bool array)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for all n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_prime_cache = sieve_primes(1 << 10)


def _primes_upto(limit: int) -> np.ndarray:
    """Cached, growing prime array for the trial-division helpers."""
    global _prime_cache
    if limit > int(_prime_cache[-1]):
        _prime_cache = sieve_primes(max(limit, 2 * int(_prime_cache[-1])))
    return _prime_cache[: np.searchsorted(_prime_cache, limit, side="right")]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by trial division up to sqrt(n).

    The remainder scan over the cached prime array is vectorized, so this
    stays usable up to n around 1e13 or so.
    """
    if n < 1:
        raise PreconditionError("factorize needs n >= 1")
    if n == 1:
        return {}
    root = isqrt(n)
    primes = _primes_upto(root)
    hits = primes[n % primes == 0] if len(primes) else primes
    fac: dict[int, int] = {}
    m = n
    for p in hits.tolist():
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        fac[p] = e
    if m > 1:
        # any prime factor <= sqrt(n) of m would already have been a hit
        fac[m] = 1
    return dict(sorted(fac.items()))


def divisors(n: int) -> list[int]:
    """Sorted list of all positive divisors of n."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def square_part(n: int) -> int:
    """The largest square divisor of a single integer n >= 1."""
    return int(square_parts(np.array([n], dtype=np.int64))[0])


def square_parts(values: np.ndarray) -> np.ndarray:
    """Largest square divisor of each entry of an int64 array of positives.

    Trial-divides by primes up to cbrt(max); the surviving cofactor is
    1, p, p^2, or pq with p, q distinct primes above the cube root, and of
    those only a perfect square p^2 contributes to the square part.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        return np.ones(0, dtype=np.int64)
    if values.min() < 1:
        raise PreconditionError("square_parts needs positive integers")
    residual = values.copy()
    sq = np.ones_like(values)
    top = int(values.max())
    cbrt = int(round(top ** (1 / 3))) + 2
    for p in _primes_upto(cbrt).tolist():
        sel = np.nonzero(residual % p == 0)[0]
        if sel.size == 0:
            continue
        e = np.ones(sel.size, dtype=np.int64)
        residual[sel] //= p
        live = np.nonzero(residual[sel] % p == 0)[0]
        while live.size:
            pos = sel[live]
            residual[pos] //= p
            e[live] += 1
            live = live[residual[pos] % p == 0]
        k = e >> 1
        big = k > 0
        if big.any():
            sq[sel[big]] *= np.int64(p) ** (2 * k[big])
    r = residual
    s = np.floor(np.sqrt(r.astype(np.float64)) + 0.5).astype(np.int64)
    s = np.where(s * s > r, s - 1, s)
    s = np.where((s + 1) * (s + 1) <= r, s + 1, s)
    is_sq = (s * s == r) & (r > 1)
    sq[is_sq] *= r[is_sq]
    return sq


class FactorizationTable:
    """Per-element factorization data over [lo, hi), built by interval sieve."""

    def __init__(self, lo, hi, omega, square_divisor, factor_lists):
        self.lo = lo
        self.hi = hi
        self._omega = omega
        self._sqdiv = square_divisor
        self._factors = factor_lists

    def _index(self, n: int) -> int:
        if not self.lo <= n < self.hi:
            raise PreconditionError(f"{n} outside table interval [{self.lo}, {self.hi})")
        return n - self.lo

    def omega(self, n: int) -> int:
        return int(self._omega[self._index(n)])

    def largest_square_divisor(self, n: int) -> int:
        return int(self._sqdiv[self._index(n)])

    def is_squarefree(self, n: int) -> bool:
        return int(self._sqdiv[self._index(n)]) == 1

    def squarefree_part(self, n: int) -> int:
        return n // self.largest_square_divisor(n)

    def prime_factors(self, n: int) -> list[int]:
        if self._factors is None:
            raise PreconditionError("table was built with factor_lists=False")
        return list(self._factors[self._index(n)])

    @property
    def omega_array(self) -> np.ndarray:
        return self._omega

    @property
    def square_divisor_array(self) -> np.ndarray:
        return self._sqdiv

    @property
    def squarefree_array(self) -> np.ndarray:
        return self._sqdiv == 1


def build_table(lo: int, hi: int, factor_lists: bool = True) -> FactorizationTable:
    """Factorization table for [lo, hi); requires 1 <= lo < hi.

    Primes up to sqrt(hi) are applied in two regimes: primes below the
    interval length are sieved with stride indexing (several multiples
    each), larger primes hit at most one element and are located in a
    single vectorized pass.  Leftover cofactors above sqrt(hi) are prime.
    """
    if lo < 1 or hi <= lo:
        raise PreconditionError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    length = hi - lo
    if length > SEGMENT_BUDGET:
        raise BudgetError(f"interval length {length} exceeds budget {SEGMENT_BUDGET}")
    if hi > 1 << 62:
        raise BudgetError("interval endpoint too large for int64 sieving")

    omega = np.zeros(length, dtype=np.int16)
    sqdiv = np.ones(length, dtype=np.int64)
    residual = np.arange(lo, hi, dtype=np.int64)
    factors: list[list[int]] | None = [[] for _ in range(length)] if factor_lists else None

    primes = _primes_upto(isqrt(hi - 1))
    split = int(np.searchsorted(primes, length, side="right"))

    for p in primes[:split].tolist():
        first = -(-lo // p) * p
        pos = np.arange(first - lo, length, p)
        if pos.size == 0:
            continue
        omega[pos] += 1
        if factors is not None:
            for i in pos.tolist():
                factors[i].append(p)
        e = np.ones(pos.size, dtype=np.int64)
        residual[pos] //= p
        live = np.nonzero(residual[pos] % p == 0)[0]
        while live.size:
            at = pos[live]
            residual[at] //= p
            e[live] += 1
            live = live[residual[at] % p == 0]
        k = e >> 1
        big = k > 0
        if big.any():
            sqdiv[pos[big]] *= np.int64(p) ** (2 * k[big])

    large = primes[split:]
    if large.size:
        first = -(-lo // large) * large
        off = first - lo
        sel = off < length
        for p, i in zip(large[sel].tolist(), off[sel].tolist()):
            m = int(residual[i])
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            residual[i] = m
            omega[i] += 1
            if factors is not None:
                factors[i].append(p)
            if e >= 2:
                sqdiv[i] *= p ** (2 * (e // 2))

    left = np.nonzero(residual > 1)[0]
    omega[left] += 1
    if factors is not None:
        for i in left.tolist():
            factors[i].append(int(residual[i]))

    return FactorizationTable(lo, hi, omega, sqdiv, factors)


def prime_flags_interval(lo: int, hi: int) -> np.ndarray:
    """Bool array over [lo, hi): True exactly at primes."""
    if hi <= lo:
        raise PreconditionError("empty interval")
    if hi - lo > SEGMENT_BUDGET:
        raise BudgetError(f"interval length {hi - lo} exceeds budget {SEGMENT_BUDGET}")
    flags = np.ones(hi - lo, dtype=bool)
    for n in range(lo, min(hi, 2)):
        flags[n - lo] = False
    for p in _primes_upto(isqrt(hi - 1)).tolist():
        start = max(p * p, -(-lo // p) * p)
        if start < hi:
            flags[start - lo :: p] = False
    return flags


def count_large_square_divisible(ap: ArithmeticProgression, T: int) -> int:
    """How many elements of ap are divisible by some square exceeding T^2.

    Requires gcd(a, d) = 1 and positive a, d; in that range the count is
    provably at most sqrt(a + dL) + L/T, which is re-checked on every call.
    """
    if T < 1:
        raise PreconditionError("T must be >= 1")
    if ap.a <= 0 or gcd(ap.a, ap.d) != 1:
        raise PreconditionError("requires a > 0 and gcd(a, d) = 1")
    vals = np.array(ap.elements(), dtype=np.int64)
    count = int((square_parts(vals) > T * T).sum())
    bound = math.sqrt(ap.a + ap.d * ap.L) + ap.L / T
    if count > bound:
        raise InternalCheckError(
            f"square-divisible count {count} exceeds sqrt(a+dL) + L/T = {bound}"
        )
    return count


def mertens_sum(x: int) -> float:
    """Sum of 1/p over primes p <= x, accumulated with compensated summation.

    Tracks log log x to within a bounded constant (about 0.2615 plus a
    small positive remainder for x in the desk range).
    """
    if x < 2:
        raise PreconditionError("mertens_sum needs x >= 2")
    return math.fsum(1.0 / p for p in sieve_primes(x).tolist())
