"""Product sets, representation counts, and multiplicative energy.

The energy of a pair of sets is the number of quadruples
(a1, a2, b1, b2) with a1*b1 = a2*b2, computed as the sum of squared
representation counts over products.  Every call cross-checks the
product-side value against the quotient-side identity (representation
counts over reduced fractions a1/a2), so the two routes must agree
exactly before a result is returned.

Both routes count sorted arrays, never dicts.  All arithmetic is exact:
products run in int64 only when they provably fit, and on Python integers
(``OBJECT_PAIR_BUDGET`` pairs at most) otherwise, so no result ever
silently overflows.  A same-set energy sorts only the products a_i*a_j
with i <= j and recovers the counts over ordered pairs from them.

The quotient side orders each set by |s| and keys every pair i < j of that
order on t_i/t_j, so every key lies in [-1, 1] and a pair {s, -s} gives -1.
Both sides write their pairs by triangle rows into one array and sort it in
place, so nothing n x n is allocated; ``energy`` reduces its product side
to numbers before it builds the quotient keys, so the two sides' arrays are
never alive together.

Every pair-kernel array is sized before it is allocated, and one past
``PAIRS_BUDGET`` entries raises ``BudgetError``.

Quotient keys are float64 when every element of both sets is below 2^26
(``FLOAT_KEY_BITS``).  That is exact: such integers convert to float
exactly and division is correctly rounded, so equal fractions give equal
keys; and two distinct fractions in [-1, 1] with denominators below 2^26
differ by more than 2^-52, over two ulps, so they never share a key.
Larger elements are keyed on the reduced fraction in integers.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import BudgetError, InternalCheckError, PreconditionError, RetriesExhaustedError
from .progressions import IntSet, intset
from .sieve import divisors

BRUTEFORCE_BUDGET = 10**4  # max |A|*|B| for the quadratic oracle
PAIRS_BUDGET = 1 << 26  # max entries of one pair-kernel array
OBJECT_PAIR_BUDGET = 1 << 20  # max pairs per exact Python-int fallback
FLOAT_KEY_BITS = 26  # quotient keys are float64 for elements below 2^26
OFFDIAG_PAIR_BUDGET = 10**7  # max co-occurring quotient pairs in offdiag_tuples
SUBSET_MAX_DRAWS = 1000  # draws of random_energy_subset before it gives up


@dataclass
class EnergyReport:
    """Exact energy, the trivial 2|A||B| cap ``diag_bound`` on tuples that
    reuse a pair, the number of distinct products |A.B|, and the product
    histogram when it was asked for.

    ``product_count`` is the number of distinct keys of the product-side
    histogram and has no second route of its own, because it needs none:
    on every call the quotient side checks that histogram's sum of r(x)^2
    exactly, and a lost product, or a product class wrongly split or
    merged, changes that sum.  ``cs_floor`` also checks |A|^2|B|^2 <=
    E |A.B| exactly, in integers.
    """

    energy: int
    diag_bound: int
    product_count: int
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


def _kernel_dtype(fast, pairs: int):
    """The dtype of a pair-kernel array of ``pairs`` entries: ``fast``, a
    numpy dtype that provably holds every value exactly, or exact Python ints
    in object arrays when ``fast`` is None.  Raises BudgetError, before
    anything is allocated, past PAIRS_BUDGET pairs, or past
    OBJECT_PAIR_BUDGET pairs in objects."""
    if pairs > PAIRS_BUDGET:
        raise BudgetError(f"{pairs} pairs exceed the pair budget {PAIRS_BUDGET}")
    if fast is not None:
        return fast
    if pairs > OBJECT_PAIR_BUDGET:
        raise BudgetError(f"{pairs} pairs in exact object arithmetic exceed {OBJECT_PAIR_BUDGET}")
    return object


def _kernel_arrays(A: IntSet, B: IntSet) -> tuple[np.ndarray, np.ndarray]:
    """A and B as arrays in which every product a*b is exact: int64 when
    |a*b| < 2^62 for all pairs, else Python ints.  A magnitude counts as at
    least 1, so a set {0} does not let its partner's elements pass as fitting."""
    fits = max(1, -A[0], A[-1]) * max(1, -B[0], B[-1]) < 1 << 62
    dt = _kernel_dtype(np.int64 if fits else None, len(A) * len(B))
    return np.array(A, dtype=dt), np.array(B, dtype=dt)


def _triangle(op, t: np.ndarray, diagonal: bool) -> np.ndarray:
    """op(t_i, t_j) over the pairs i < j (i <= j with ``diagonal``) as one
    array of t's dtype, row by row: row i is op(t_i, t[i + 1:]) (or
    op(t_i, t[i:])), written in place, so no n x n array is ever allocated."""
    n = len(t)
    off = 0 if diagonal else 1
    out = np.empty(n * (n + 1) // 2 - off * n, dtype=t.dtype)
    k = 0
    for i in range(n - off):
        w = n - i - off
        op(t[i], t[i + off :], out=out[k : k + w])
        k += w
    return out


def _pair_products(A: IntSet, B: IntSet) -> np.ndarray:
    """All products a*b as one array; when A and B are the same set, only
    the a_i*a_j with i <= j, by triangle rows."""
    a, b = _kernel_arrays(A, B)
    if A != B:
        return np.multiply.outer(a, b).ravel()
    return _triangle(np.multiply, a, diagonal=True)


COMPACT_BLOCK = 1 << 16  # distinct values moved to the front of x per step


def _sorted_counts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of x and how often each occurs.  Sorts x in
    place; the values returned are a view of its front.

    One sort and a change-point mask.  In numpy 2.4, ``np.unique`` with
    counts costs about twice a bare sort, and without them it takes a hash
    path many times slower than a sort on int64 data.  The values are
    compacted over x and the counts over the change points, so beside x the
    peak is one bool an entry, then one int64 a distinct value.  Works on
    object arrays too.
    """
    x.sort()
    start = np.empty(x.size, dtype=bool)
    start[:1] = True
    np.not_equal(x[1:], x[:-1], out=start[1:])
    idx = np.flatnonzero(start)
    del start
    # idx[k] >= k, so a block reads only entries that no earlier block has
    # overwritten; x[idx] in one go would copy every distinct value
    for lo in range(0, idx.size, COMPACT_BLOCK):
        block = idx[lo : lo + COMPACT_BLOCK]
        x[lo : lo + block.size] = x[block]
    # the output trails the input, so numpy runs this forward with no copy
    np.subtract(idx[1:], idx[:-1], out=idx[:-1])
    idx[-1:] = x.size - idx[-1:]
    return x[: idx.size], idx


def _product_counts(A: IntSet, B: IntSet) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct products a*b and their counts over ordered pairs."""
    vals, cnts = _sorted_counts(_pair_products(A, B))
    if A == B:
        # r(x) = 2c(x) - d(x): a pair i < j stands for (i, j) and (j, i), and
        # d(x) counts the i with a_i^2 = x, which is 2 when s and -s are in A
        sq, d = _sorted_counts(np.square(np.array(A, dtype=vals.dtype)))
        cnts *= 2
        cnts[np.searchsorted(vals, sq)] -= d
    return vals, cnts


def _quotient_counts(S: IntSet, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted keys and counts of the quotients t_i/t_j over the pairs i < j
    of S ordered by |s|, built by triangle rows.

    Such a pair has |t_i/t_j| <= 1, and its key stands for both t_i/t_j and
    t_j/t_i; a pair {s, -s} gives -1.  Every |s| < 2^bits.  For bits <=
    FLOAT_KEY_BITS the key is the float64 value of t_i/t_j (exact, see the
    module docstring), and the budget is checked at n*n entries before
    anything is allocated.  Otherwise the key is the reduced p/q with q > 0
    packed as p*2^bits + q, in int64 when bits <= 31.
    """
    t = sorted(S, key=abs)
    if bits <= FLOAT_KEY_BITS:
        arr = np.array(t, dtype=_kernel_dtype(np.float64, len(S) ** 2))
        return _sorted_counts(_triangle(np.divide, arr, diagonal=False))
    dt = _kernel_dtype(np.int64 if bits <= 31 else None, len(S) * (len(S) - 1) // 2)

    def packed(p, q, out):
        g = np.gcd(p, q) * np.sign(q)  # divides p/q to lowest terms with q > 0
        np.add(p // g * (1 << bits), q // g, out=out)

    return _sorted_counts(_triangle(packed, np.array(t, dtype=dt), diagonal=False))


def _antipodes(S: IntSet) -> int:
    """Number of pairs {s, -s} in S."""
    return len({-s for s in S if s < 0}.intersection(S))


def _product_energy(A: IntSet, B: IntSet, with_histogram: bool = False):
    """E(A, B) from the product side, |A.B|, and the product histogram when
    asked for; the pair arrays are freed when it returns."""
    vals, cnts = _product_counts(A, B)
    hist = dict(zip(vals.tolist(), cnts.tolist())) if with_histogram else None
    return int(np.dot(cnts, cnts)), len(vals), hist


def _check_quotient_side(e_prod: int, A: IntSet, B: IntSet, qa, qb) -> None:
    """Raise InternalCheckError unless the quotient side gives E(A, B) =
    ``e_prod`` exactly.

    ``qa`` and ``qb`` are the quotient keys and counts of A and of B from
    ``_quotient_keys``; the same object twice for a same-set energy.
    """
    # sum_x r_{A/A}(x) r_{B/B}(x): x = 1 gives |A||B|; every other x shares
    # its key with 1/x, except x = -1, which both orientations of a pair
    # {s, -s} hit, so that key counts twice more
    (ka, ca), (kb, cb) = qa, qb
    if qa is qb:
        dot = int(np.dot(ca, ca))
    elif kb.size:
        at = np.searchsorted(kb, ka)  # sorted distinct keys: B holds ka there or nowhere
        np.minimum(at, kb.size - 1, out=at)
        same = kb[at] == ka
        dot = int(np.dot(ca[same], cb[at[same]]))
    else:
        dot = 0  # a one-element set has no off-diagonal quotients
    e_quot = len(A) * len(B) + 2 * dot + 2 * _antipodes(A) * _antipodes(B)
    if e_prod != e_quot:
        raise InternalCheckError(
            f"product-side energy {e_prod} != quotient-side energy {e_quot}"
        )


def _quotient_keys(A: IntSet, B: IntSet):
    """Quotient keys and counts of A and of B in one key width, as
    ``_check_quotient_side`` takes them: one object when A is B."""
    bits = max(-A[0], A[-1], -B[0], B[-1]).bit_length()
    qa = _quotient_counts(A, bits)
    return qa, qa if A is B else _quotient_counts(B, bits)


def energy(A: IntSet, B: IntSet | None = None, with_histogram: bool = False) -> EnergyReport:
    """Multiplicative energy of A (or of the pair A, B), via both routes.

    Requires 0 absent from both sets.  The product-side sum of squared
    representation counts is the returned value; the quotient-side sum
    (same-set: sum of r_{A/A}^2; cross: dot of r_{A/A} with r_{B/B}) is
    recomputed on every call and must match exactly.  The product side is
    reduced to its numbers before the quotient keys are built.
    """
    A, B = _energy_sets(A, B)
    e, count, hist = _product_energy(A, B, with_histogram)
    _check_quotient_side(e, A, B, *_quotient_keys(A, B))
    return EnergyReport(
        energy=e, diag_bound=2 * len(A) * len(B), product_count=count, histogram=hist
    )


def energy_bruteforce(A: IntSet, B: IntSet | None = None) -> int:
    """Quadratic pair-against-pair oracle for the energy; independent path.

    Compares every ordered (a1, b1) product against every (a2, b2) product,
    so the cost is (|A||B|)^2 comparisons; guarded at |A||B| <= 10^4.
    """
    A = intset(A)
    B = A if B is None else intset(B)
    if len(A) * len(B) > BRUTEFORCE_BUDGET:
        raise BudgetError(f"|A|*|B| = {len(A) * len(B)} exceeds {BRUTEFORCE_BUDGET}")
    p = np.multiply.outer(*_kernel_arrays(A, B)).ravel()
    total = 0
    step = max(1, (1 << 24) // max(1, p.size))
    for i in range(0, p.size, step):
        total += int((p[i : i + step, None] == p[None, :]).sum())
    return total


def product_set(A: IntSet, B: IntSet) -> IntSet:
    """Sorted distinct pairwise products of A and B, from one sort of the
    pair products (only the a_i*a_j with i <= j when A and B are the same
    set); raises BudgetError past PAIRS_BUDGET pairs.  ``_product_merge``, a
    k-way merge of the dilates a*B, is the oracle for it in tests."""
    A = intset(A)
    B = intset(B)
    if not A or not B:
        raise PreconditionError("product_set needs nonempty sets")
    return _sorted_counts(_pair_products(A, B))[0].tolist()


def _product_merge(A: IntSet, B: IntSet) -> IntSet:
    def row(a):
        return (a * b for b in (B if a > 0 else reversed(B))) if a else iter((0,))

    out: list[int] = []
    for v in heapq.merge(*(row(a) for a in A)):
        if not out or v != out[-1]:
            out.append(v)
    return out


def offdiag_tuples(A: IntSet, energy_value: int | None = None) -> int:
    """Count of grids (x1, x2, y1, y2), x1 < x2, y1 < y2, all x_i*y_j in A.

    Every valid x divides some element, so the incidences (x, a/x) come from
    the divisors of each element.  They are sorted once by (x, y), and each
    x with at least two quotients y1 < y2 contributes the pair as one int64
    key, the ranks of y1 and y2 among the distinct quotients packed side by
    side; a pair shared by c values of x gives c(c-1)/2 grids.  The keys of
    all x with s quotients are gathered by one ``np.triu_indices(s, 1)``
    into one array of exactly ``work`` entries, checked against
    ``OFFDIAG_PAIR_BUDGET`` before it is allocated, and counted in one sort.
    A kept incidence shares its x with another, so there are at most
    2 * work of them and the two ranks fit in 50 bits.

    For |A| up to a few thousand the asserted inequality
    E(A) <= 2|A|^2 + 4|X| is re-checked against the exact energy, or
    against ``energy_value`` when the caller already has E(A).
    """
    A = intset(A)
    if not A or A[0] < 1:
        raise PreconditionError("offdiag_tuples needs positive integers")
    xs: list[int] = []
    ys: list[int] = []
    for a in A:
        ds = divisors(a)
        xs += ds
        ys += reversed(ds)  # a // ds[i] is ds[-1 - i]
    x = np.array(xs, dtype=np.int64)
    y = np.array(ys, dtype=np.int64)
    order = np.lexsort((y, x))
    y = y[order]
    sizes = _sorted_counts(x[order])[1]  # the quotients of each x, in x order
    work = int((sizes * (sizes - 1) // 2).sum())
    if work > OFFDIAG_PAIR_BUDGET:
        raise BudgetError(f"co-occurrence work {work} exceeds budget {OFFDIAG_PAIR_BUDGET}")
    shared = sizes >= 2
    # y stays sorted within each x, and so does its rank
    rank = np.unique(y[np.repeat(shared, sizes)], return_inverse=True)[1]
    bits = max(rank.size - 1, 1).bit_length()
    sizes = sizes[shared]
    first = np.cumsum(sizes) - sizes
    keys = np.empty(work, dtype=np.int64)
    pos = 0
    for s in np.unique(sizes).tolist():
        i, j = np.triu_indices(s, 1)
        ranks = rank[first[sizes == s][:, None] + np.arange(s)]
        block = keys[pos : pos + len(ranks) * i.size].reshape(len(ranks), i.size)
        np.take(ranks, i, axis=1, out=block)
        block <<= bits
        block |= np.take(ranks, j, axis=1)
        pos += block.size
    counts = _sorted_counts(keys)[1]
    x_count = int((counts * (counts - 1) // 2).sum())
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
    rep = energy(A, B)
    return cs_floor(len(A), len(B), rep.energy, rep.product_count)


def cs_floor(size_a: int, size_b: int, e: int, n_prod: int) -> float:
    """|A|^2|B|^2 / E(A,B) from the sizes, the energy and |A.B|, after the
    exact integer check that it does not exceed |A.B|."""
    if size_a**2 * size_b**2 > e * n_prod:
        raise InternalCheckError("Cauchy-Schwarz product bound violated")
    return size_a**2 * size_b**2 / e


def cs_energy_split(A: IntSet, B: IntSet) -> tuple[float, bool]:
    """sqrt(E(A) * E(B)) and whether E(A,B) is below it (exact check).

    The three product sides are reduced to numbers first; then each set's
    quotient keys are built once and serve all three checks.
    """
    A, B = _energy_sets(A, B)
    e_ab, e_a, e_b = (_product_energy(X, Y)[0] for X, Y in ((A, B), (A, A), (B, B)))
    qa, qb = _quotient_keys(A, B)
    _check_quotient_side(e_ab, A, B, qa, qb)
    _check_quotient_side(e_a, A, A, qa, qa)
    _check_quotient_side(e_b, B, B, qb, qb)
    ok = e_ab * e_ab <= e_a * e_b
    return sqrt(e_a * e_b), ok


def random_energy_subset(A: IntSet, seed: int) -> IntSet:
    """A random subset A' with E(A') <= 4|A'|^2 and |A'| >= |A|^3 / (2 E(A)).

    Keeps each element independently with probability |A|^2 / E(A) and
    retries until both certified inequalities hold; a positive fraction of
    draws succeeds in expectation, so exhausting SUBSET_MAX_DRAWS signals a bug.
    """
    A, _ = _energy_sets(A, None)
    if seed < 0:
        raise PreconditionError("needs seed >= 0")
    e_a = energy(A).energy
    n = len(A)
    p = min(1.0, n * n / e_a)
    rng = np.random.default_rng(seed)
    arr = np.array(A, dtype=object)
    for _ in range(SUBSET_MAX_DRAWS):
        mask = rng.random(n) < p
        sub = [int(v) for v in arr[mask]]
        if not sub:
            continue
        e_sub = energy(sub).energy
        # integer forms of E' <= 4|A'|^2 and |A'| >= |A|^3 / (2 E(A))
        if e_sub <= 4 * len(sub) ** 2 and 2 * e_a * len(sub) >= n**3:
            return sub
    raise RetriesExhaustedError(
        f"no qualifying subset in {SUBSET_MAX_DRAWS} draws at p = {p:.4g}"
    )
