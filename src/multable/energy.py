"""Product sets, representation counts, and multiplicative energy.

The energy of a pair of sets is the number of quadruples
(a1, a2, b1, b2) with a1*b1 = a2*b2, computed as the sum of squared
representation counts over products.  Every call cross-checks the
product-side value against the quotient-side identity (representation
counts over reduced fractions a1/a2), so the two routes must agree
exactly before a result is returned.

Both routes count sorted arrays, never dicts.  All arithmetic is exact:
they run in int64 only when products and fraction keys provably fit, and
on Python integers (``OBJECT_PAIR_BUDGET`` pairs at most) otherwise, so
no result ever silently overflows.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import sqrt

import numpy as np

from .errors import BudgetError, InternalCheckError, PreconditionError, RetriesExhaustedError
from .progressions import IntSet, intset
from .sieve import divisors

BITSET_BUDGET = 1 << 29   # max entries of the dense product bitmap
BITSET_MIN_DENSITY = 2.0**-10
BRUTEFORCE_BUDGET = 10**4  # max |A|*|B| for the quadratic oracle
OBJECT_PAIR_BUDGET = 1 << 20  # max pairs per exact Python-int fallback


@dataclass
class EnergyReport:
    """Exact energy, the trivial 2|A||B| cap ``diag_bound`` on tuples that
    reuse a pair, and the product histogram when it was asked for."""

    energy: int
    diag_bound: int
    histogram: dict[int, int] | None = None


def _energy_sets(A: IntSet, B: IntSet | None) -> tuple[IntSet, IntSet]:
    """A and B (A again when B is None) as sorted sets, nonempty and free of 0."""
    A = intset(A)
    B = A if B is None else intset(B)
    if not A or not B:
        raise PreconditionError("energy needs nonempty sets")
    for name, s in (("A", A), ("B", B)):
        if 0 in s:
            raise PreconditionError(f"{name} must not contain 0 (drop it first)")
    return A, B


def _kernel_dtype(fits_int64: bool, pairs: int):
    """int64 when the pair kernel's values provably fit, else exact Python
    ints in object arrays, for at most OBJECT_PAIR_BUDGET pairs."""
    if fits_int64:
        return np.int64
    if pairs > OBJECT_PAIR_BUDGET:
        raise BudgetError(f"{pairs} pairs in exact object arithmetic exceed {OBJECT_PAIR_BUDGET}")
    return object


def _kernel_arrays(A: IntSet, B: IntSet) -> tuple[np.ndarray, np.ndarray]:
    """A and B as arrays in which every product a*b is exact: int64 when
    |a*b| < 2^62 for all pairs, else Python ints.  A magnitude counts as at
    least 1, so a set {0} does not let its partner's elements pass as fitting."""
    fits = max(1, -A[0], A[-1]) * max(1, -B[0], B[-1]) < 1 << 62
    dt = _kernel_dtype(fits, len(A) * len(B))
    return np.array(A, dtype=dt), np.array(B, dtype=dt)


def _pair_products(A: IntSet, B: IntSet) -> np.ndarray:
    """All products a*b as one array, row by row."""
    return np.multiply.outer(*_kernel_arrays(A, B)).ravel()


def _mark_entries(A: IntSet, B: IntSet) -> int:
    """Length of the product bitmap over [0, A[-1]*B[-1]]; raises unless both
    sets are nonnegative and it fits BITSET_BUDGET."""
    if A[0] < 0 or B[0] < 0:
        raise PreconditionError("the product bitmap needs nonnegative inputs")
    entries = A[-1] * B[-1] + 1
    if entries > BITSET_BUDGET:
        raise BudgetError(f"product bitmap needs {entries} entries, budget {BITSET_BUDGET}")
    return entries


def _product_marks(A: IntSet, B: IntSet) -> np.ndarray:
    """Bool array over [0, A[-1]*B[-1]] that marks every product a*b.

    When A and B are the same set, row i marks only a_i*B[i:]: a_i*a_j with
    j < i is already marked by row j.
    """
    marks = np.zeros(_mark_entries(A, B), dtype=bool)
    a, b = _kernel_arrays(A, B)
    same = A == B
    for i in range(len(a)):
        # an object row (one set is {0}) holds exact zeros; index with int64
        marks[(a[i] * b[i if same else 0 :]).astype(np.int64, copy=False)] = True
    return marks


def _quotient_counts(S: IntSet, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted keys and counts of the quotients s_i/s_j over pairs i < j.

    A pair is keyed on the reduced p/q with q > 0 and |p| <= q, which stands
    for both s_i/s_j and s_j/s_i, as p*2^bits + q.  Every |s| < 2^bits, so
    keys are distinct, and they fit int64 when bits <= 31.
    """
    dt = _kernel_dtype(bits <= 31, len(S) * (len(S) - 1) // 2)
    arr = np.array(S, dtype=dt)
    p, q = (arr[k] for k in np.triu_indices(len(S), 1))
    g = np.gcd(p, q)
    p //= g
    q //= g
    flip = np.abs(p) > np.abs(q)
    p, q = np.where(flip, q, p), np.where(flip, p, q)
    return np.unique(np.sign(q) * (p * (1 << bits) + q), return_counts=True)


def _antipodes(S: IntSet) -> int:
    """Number of pairs {s, -s} in S."""
    return len({-s for s in S if s < 0}.intersection(S))


def _checked_energy(A: IntSet, B: IntSet, qa, qb) -> tuple[int, np.ndarray, np.ndarray]:
    """E(A, B) with the sorted distinct products and their counts, after the
    exact check of the product side against the quotient side.

    ``qa`` and ``qb`` are the quotient keys and counts of A and of B from
    ``_quotient_keys``; the same object twice for a same-set energy.
    """
    vals, cnts = np.unique(_pair_products(A, B), return_counts=True)
    e_prod = int((cnts * cnts).sum())

    # sum_x r_{A/A}(x) r_{B/B}(x): x = 1 gives |A||B|; every other x shares
    # its key with 1/x, except x = -1, which both orientations of a pair
    # {s, -s} hit, so that key counts twice more
    (ka, ca), (kb, cb) = qa, qb
    if qa is qb:
        dot = int((ca * ca).sum())
    else:
        _, ia, ib = np.intersect1d(ka, kb, assume_unique=True, return_indices=True)
        dot = int((ca[ia] * cb[ib]).sum())
    e_quot = len(A) * len(B) + 2 * dot + 2 * _antipodes(A) * _antipodes(B)
    if e_prod != e_quot:
        raise InternalCheckError(
            f"product-side energy {e_prod} != quotient-side energy {e_quot}"
        )
    return e_prod, vals, cnts


def _quotient_keys(A: IntSet, B: IntSet):
    """Quotient keys and counts of A and of B in one key width, as
    ``_checked_energy`` takes them: one object when A is B."""
    bits = max(-A[0], A[-1], -B[0], B[-1]).bit_length()
    qa = _quotient_counts(A, bits)
    return qa, qa if A is B else _quotient_counts(B, bits)


def energy(A: IntSet, B: IntSet | None = None, with_histogram: bool = False) -> EnergyReport:
    """Multiplicative energy of A (or of the pair A, B), via both routes.

    Requires 0 absent from both sets.  The product-side sum of squared
    representation counts is the returned value; the quotient-side sum
    (same-set: sum of r_{A/A}^2; cross: dot of r_{A/A} with r_{B/B}) is
    recomputed on every call and must match exactly.
    """
    A, B = _energy_sets(A, B)
    e, vals, cnts = _checked_energy(A, B, *_quotient_keys(A, B))
    hist = dict(zip(vals.tolist(), cnts.tolist())) if with_histogram else None
    return EnergyReport(energy=e, diag_bound=2 * len(A) * len(B), histogram=hist)


def energy_bruteforce(A: IntSet, B: IntSet | None = None) -> int:
    """Quadratic pair-against-pair oracle for the energy; independent path.

    Compares every (a1, b1) product against every (a2, b2) product, so the
    cost is (|A||B|)^2 comparisons; guarded at |A||B| <= 10^4.
    """
    A = intset(A)
    B = A if B is None else intset(B)
    if len(A) * len(B) > BRUTEFORCE_BUDGET:
        raise BudgetError(f"|A|*|B| = {len(A) * len(B)} exceeds {BRUTEFORCE_BUDGET}")
    p = _pair_products(A, B)
    total = 0
    step = max(1, (1 << 24) // max(1, p.size))
    for i in range(0, p.size, step):
        total += int((p[i : i + step, None] == p[None, :]).sum())
    return total


def product_set(A: IntSet, B: IntSet, strategy: str = "auto") -> IntSet:
    """Sorted distinct pairwise products of A and B.

    Strategies: ``bitset`` (dense mark array, nonnegative inputs within
    ``BITSET_BUDGET`` entries), ``hash`` (distinct products via sorting), and
    ``merge`` (k-way merge of the dilates a*B, the oracle).  ``auto`` picks
    bitset when its density rule holds, else hash.  All strategies return
    identical sets.
    """
    A = intset(A)
    B = intset(B)
    if not A or not B:
        raise PreconditionError("product_set needs nonempty sets")
    if strategy == "auto":
        strategy = "bitset" if _bitset_eligible(A, B) else "hash"
    if strategy == "bitset":
        return np.flatnonzero(_product_marks(A, B)).tolist()
    if strategy == "hash":
        return _product_hash(A, B)
    if strategy == "merge":
        return _product_merge(A, B)
    raise PreconditionError(f"unknown strategy {strategy!r}")


def _bitset_eligible(A: IntSet, B: IntSet) -> bool:
    """auto's choice: a bitmap that ``_mark_entries`` allows, with at most
    1/BITSET_MIN_DENSITY entries a pair."""
    try:
        entries = _mark_entries(A, B)
    except (PreconditionError, BudgetError):
        return False
    return len(A) * len(B) >= entries * BITSET_MIN_DENSITY


def _product_hash(A: IntSet, B: IntSet) -> IntSet:
    return np.unique(_pair_products(A, B)).tolist()


def _product_merge(A: IntSet, B: IntSet) -> IntSet:
    def row(a):
        return (a * b for b in (B if a > 0 else reversed(B))) if a else iter((0,))

    out: list[int] = []
    for v in heapq.merge(*(row(a) for a in A)):
        if not out or v != out[-1]:
            out.append(v)
    return out


def offdiag_tuples(A: IntSet, pair_budget: int = 10**7, energy_value: int | None = None) -> int:
    """Count of grids (x1, x2, y1, y2), x1 < x2, y1 < y2, all x_i*y_j in A.

    Enumerates x over divisors of elements of A (any valid x divides some
    element), counts co-occurrences of quotient pairs, and sums the ways to
    choose two common x values.  For |A| up to a few thousand the asserted
    inequality E(A) <= 2|A|^2 + 4|X| is re-checked against the exact energy,
    or against ``energy_value`` when the caller already has E(A).
    """
    A = intset(A)
    if not A or A[0] < 1:
        raise PreconditionError("offdiag_tuples needs positive integers")
    quotients: dict[int, list[int]] = {}
    for a in A:
        for x in divisors(a):
            quotients.setdefault(x, []).append(a // x)
    work = sum(len(ys) * (len(ys) - 1) // 2 for ys in quotients.values())
    if work > pair_budget:
        raise BudgetError(f"co-occurrence work {work} exceeds budget {pair_budget}")
    common = Counter()
    for ys in quotients.values():
        common.update(combinations(sorted(ys), 2))
    x_count = sum(c * (c - 1) // 2 for c in common.values())
    e = energy_value
    if e is None and len(A) <= 3000:
        e = energy(A).energy
    if e is not None and e > 2 * len(A) ** 2 + 4 * x_count:
        raise InternalCheckError(
            f"E = {e} exceeds 2|A|^2 + 4|X| = {2 * len(A) ** 2 + 4 * x_count}"
        )
    return x_count


def cs_product_lower_bound(A: IntSet, B: IntSet) -> float:
    """The Cauchy-Schwarz floor |A|^2|B|^2 / E(A,B) for |A.B|; re-checked."""
    A, B = _energy_sets(A, B)
    e = energy(A, B).energy
    return cs_floor(len(A), len(B), e, len(product_set(A, B)))


def cs_floor(size_a: int, size_b: int, e: int, n_prod: int) -> float:
    """|A|^2|B|^2 / E(A,B) from the sizes, the energy and |A.B|, after the
    exact integer check that it does not exceed |A.B|."""
    if size_a**2 * size_b**2 > e * n_prod:
        raise InternalCheckError("Cauchy-Schwarz product bound violated")
    return size_a**2 * size_b**2 / e


def cs_energy_split(A: IntSet, B: IntSet) -> tuple[float, bool]:
    """sqrt(E(A) * E(B)) and whether E(A,B) is below it (exact check).

    Each set's quotient keys are built once and serve all three energies.
    """
    A, B = _energy_sets(A, B)
    qa, qb = _quotient_keys(A, B)
    e_ab = _checked_energy(A, B, qa, qb)[0]
    e_a = _checked_energy(A, A, qa, qa)[0]
    e_b = _checked_energy(B, B, qb, qb)[0]
    ok = e_ab * e_ab <= e_a * e_b
    return sqrt(e_a * e_b), ok


def random_energy_subset(A: IntSet, seed: int, max_retries: int = 1000) -> IntSet:
    """A random subset A' with E(A') <= 4|A'|^2 and |A'| >= |A|^3 / (2 E(A)).

    Keeps each element independently with probability |A|^2 / E(A) and
    retries until both certified inequalities hold; a positive fraction of
    draws succeeds in expectation, so exhausting the retries signals a bug.
    """
    A, _ = _energy_sets(A, None)
    e_a = energy(A).energy
    n = len(A)
    p = min(1.0, n * n / e_a)
    rng = np.random.default_rng(seed)
    arr = np.array(A, dtype=object)
    for _ in range(max_retries):
        mask = rng.random(n) < p
        sub = [int(v) for v in arr[mask]]
        if not sub:
            continue
        e_sub = energy(sub).energy
        # integer forms of E' <= 4|A'|^2 and |A'| >= |A|^3 / (2 E(A))
        if e_sub <= 4 * len(sub) ** 2 and 2 * e_a * len(sub) >= n**3:
            return sub
    raise RetriesExhaustedError(
        f"no qualifying subset in {max_retries} draws at p = {p:.4g}"
    )
