"""Prime statistics in arithmetic progressions.

Covers the constrained square-free sets N_k (elements with exactly k
distinct prime factors whose j-th smallest prime p_j satisfies
log log p_j >= alpha*j - beta), exact prime counting along progressions
with its density floor, the constructive last-prime witness for N_k built
on one depth-first walk over admissible prime tuples, and short-interval
means of z^omega(n) compared against their multiplicative-function envelope.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, log

import numpy as np

from .errors import BUDGETS, InternalCheckError, PreconditionError, check_budget
from .progressions import ArithmeticProgression, _set_integers, int_array
from .sieve import (
    FactorizationTable,
    mertens_sum,
    prime_flags,
    primes_upto,
    progression_table,
)

PRIME_BOUND_MIN_LENGTH = 10**4  # below this the density floor is only reported


def totient(n: int) -> int:
    """Euler's phi from the primes in a one-element table (n below about 2^48)."""
    result = n
    for p in progression_table(ArithmeticProgression(n, 1, 1)).prime_factors(n):
        result -= result // p
    return result


@dataclass(frozen=True)
class NkQuery:
    """Parameters (alpha, beta, k) over a progression or an explicit set.

    ``elements`` is kept as ``int_array`` reads it, a sorted tuple of
    distinct Python ints, so a query hashes and compares by its set."""

    alpha: float
    beta: float
    k: int
    ap: ArithmeticProgression | None = None
    elements: tuple[int, ...] | None = None

    def __post_init__(self):
        _set_integers(self, "k")
        if self.k < 0:
            raise PreconditionError("k must be >= 0")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise PreconditionError("alpha, beta must be finite")
        if (self.ap is None) == (self.elements is None):
            raise PreconditionError("give exactly one of ap or elements")
        if self.elements is not None:
            object.__setattr__(self, "elements", tuple(int_array(self.elements).tolist()))

    def domain(self) -> np.ndarray:
        """The explicit set, or the progression's positive part (all of it when none), sorted."""
        return int_array(self.elements) if self.ap is None else (self.ap.positive_part() or self.ap).array()


def _loglog(p: np.ndarray) -> np.ndarray:
    """math.log(math.log(p)) for each entry: the floats scalar code gives."""
    return np.fromiter(map(log, map(log, p.tolist())), np.float64, p.size)


def nk_set(q: NkQuery, table: FactorizationTable) -> list[int]:
    """Members of the query's domain that are square-free with omega = k and
    whose j-th smallest prime factor clears log log p_j >= alpha*j - beta.

    log log p is an ordinary real (negative at p = 2), so the constraint is
    evaluated directly; no positivity is implied.  Every member >= 1 of
    the domain must be an element of the table.
    """
    vals = q.domain()
    pos = table.positions(vals[np.searchsorted(vals, 1):])
    pos = pos[(table.square_divisor_array[pos] == 1) & (table.omega_array[pos] == q.k)]
    if q.k and pos.size:
        # the candidates' prime factors as a (candidates x k) gather from the
        # flat arrays, and log log p once per distinct prime
        flat, offsets = table.factor_arrays
        primes, idx = np.unique(flat[offsets[pos, None] + np.arange(q.k)], return_inverse=True)
        loglog = _loglog(primes)[idx].reshape(-1, q.k)
        bounds = np.array([q.alpha * j - q.beta for j in range(1, q.k + 1)])
        pos = pos[(loglog >= bounds).all(axis=1)]
    return (table.lo + table.d * pos).tolist()


def prime_count_ap(ap: ArithmeticProgression) -> int:
    """Exact number of primes among the elements of ap (elements < 2 skipped).

    When the density-floor regime holds (0 < dL < a < 10 L sqrt(log L),
    gcd(a, d) = 1, L >= 10^4) the count is re-checked against
    dL / (2 phi(d) log L).
    """
    a, d, L = ap.a, ap.d, ap.L
    count = int(prime_flags(ap).sum())
    if (
        L >= PRIME_BOUND_MIN_LENGTH
        and 0 < d * L < a < 10 * L * math.sqrt(log(L))
        and gcd(a, d) == 1
    ):
        floor = d * L / (2 * totient(d) * log(L))
        if count < floor:
            raise InternalCheckError(
                f"prime count {count} below density floor {floor:.1f} for {ap}"
            )
    return count


def _admissible_tuples(m: int, d: int, alpha: float, beta: float, limit: int, visit) -> None:
    """Depth-first, call visit(product, largest prime) for each ascending m-tuple
    of primes not dividing d with log log p_j >= alpha*j - beta and product <
    limit (visit(1, 1) once at m = 0); BudgetError past the ``dfs_nodes`` budget."""
    if m == 0:
        visit(1, 1)
        return
    if m >= limit.bit_length():  # m distinct primes multiply to at least 2^m >= limit
        return
    primes = [p for p in primes_upto(limit - 1).tolist() if d % p != 0]
    # log log is increasing, so the admissible primes at each depth are a suffix
    start_at = [bisect_left(primes, alpha * j - beta, key=lambda p: log(log(p)))
                for j in range(1, m + 1)]
    nodes, max_nodes = 0, BUDGETS["dfs_nodes"]

    def walk(depth: int, first_idx: int, prod: int):
        nonlocal nodes
        for i in range(max(first_idx, start_at[depth]), len(primes)):
            p = primes[i]
            new = prod * p
            if new >= limit:
                return
            nodes += 1
            if nodes > max_nodes:
                check_budget("dfs_nodes", nodes)
            if depth + 1 == m:
                visit(new, p)
            else:
                walk(depth + 1, i + 1, new)

    walk(0, 0, 1)


@dataclass(frozen=True)
class ShiuQuery:
    """Short-interval mean of z^omega(n) over n = a (mod k) in [x-y, x)."""

    x: int
    y: int
    k: int
    a: int
    z: float

    def __post_init__(self):
        _set_integers(self, "x", "y", "k", "a")
        if not 0 < self.y <= self.x:
            raise PreconditionError("need 0 < y <= x")
        if not 0 < self.z <= 2:
            raise PreconditionError("need z in (0, 2]")
        if self.k < 1:
            raise PreconditionError("need k >= 1")
        if gcd(self.a, self.k) != 1:
            raise PreconditionError("need gcd(a, k) = 1")


def shiu_mean(q: ShiuQuery) -> tuple[float, float]:
    """Exact window sum of z^omega(n) and its multiplicative-function envelope.

    The envelope is (y/phi(k)) (1/log x) exp(sum_{p <= x, p not | k} z/p);
    the exact/envelope ratio is expected to stay below a fixed constant in
    the regime k < sqrt(y), sqrt(x) < y <= x.
    """
    x, y, k, a, z = q.x, q.y, q.k, q.a, q.z
    if not (k < math.sqrt(y) and math.sqrt(x) < y):
        raise PreconditionError("regime requires k < sqrt(y) and sqrt(x) < y")
    check_budget("reciprocal_x", x)
    lo = x - y
    first = lo + ((a - lo) % k)
    if first < 1:
        first += k
    ap = ArithmeticProgression(first, k, len(range(first, x, k)))
    # z^omega takes one value per class omega = w: the exact sum of
    # count_w * z^w, rounded once, is the correctly rounded window sum
    counts = np.bincount(progression_table(ap, factor_lists=False).omega_array)
    powers = np.power(z, np.arange(counts.size, dtype=np.float64)).tolist()
    exact = float(sum(Fraction(c) * Fraction(v) for c, v in zip(counts.tolist(), powers) if c))

    k_primes = progression_table(ArithmeticProgression(k, 1, 1)).prime_factors(k)
    prime_cut = z * mertens_sum(x) - sum(z / p for p in k_primes)
    bound = (y / totient(k)) * (1.0 / log(x)) * math.exp(prime_cut)
    return exact, bound


def nk_last_prime_extension(q: NkQuery, members: int) -> int:
    """Constructive lower-bound witness for |N_k|: count members q*p where
    q = p_1 ... p_{k-1} < sqrt(a) is an admissible prefix and p is a prime
    in the quotient progression {(a + i0 d)/q + j d}.

    Every witness is a genuine member, so the count is re-checked against
    ``members``, the caller's |N_k| = len(nk_set(q, table)).
    """
    if q.ap is None:
        raise PreconditionError("needs an arithmetic progression domain")
    ap = q.ap
    a, d, L = ap.a, ap.d, ap.L
    if a <= 0 or gcd(a, d) != 1:
        raise PreconditionError("needs a > 0 and gcd(a, d) = 1")
    if not d * L <= a:
        raise PreconditionError("regime requires dL <= a")
    # the upper regime bound has no content at toy lengths
    if L >= 16 and a > L * math.sqrt(log(L)):
        raise PreconditionError("regime requires a <= L sqrt(log L)")
    if q.k == 0:
        count = 1 if 1 in ap else 0
    else:
        count = _extension_count(q, ap)
    if count > members:
        raise InternalCheckError(f"witness count {count} exceeds |N_k| = {members}")
    return count


def _extension_count(q: NkQuery, ap: ArithmeticProgression) -> int:
    a, d, L = ap.a, ap.d, ap.L
    last_bound = q.alpha * q.k - q.beta

    def count_for_prefix(prefix_prod: int, p_last: int) -> int:
        # the candidates p = (a + i d)/qq, i = i0 (mod qq), are the
        # progression ((a + i0 d)/qq, step d): one sieve flags its primes
        qq = prefix_prod
        i0 = (-a * pow(d, -1, qq)) % qq if qq > 1 else 0
        if i0 >= L:
            return 0
        first = (a + i0 * d) // qq
        flags = prime_flags(ArithmeticProgression(first, d, len(range(i0, L, qq))))
        p = first + d * np.flatnonzero(flags)
        p = p[p > p_last]
        return int((_loglog(p) >= last_bound).sum())

    counts: list[int] = []
    # prefixes must satisfy p_1 ... p_{k-1} < sqrt(a), exactly: prod <= isqrt(a - 1)
    _admissible_tuples(q.k - 1, d, q.alpha, q.beta, isqrt(a - 1) + 1,
                       lambda prod, p_last: counts.append(count_for_prefix(prod, p_last)))
    return sum(counts)
