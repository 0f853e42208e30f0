"""Product sets, representation counts, and multiplicative energy.

The energy of a pair of sets is the number of quadruples
(a1, a2, b1, b2) with a1*b1 = a2*b2, computed as the sum of squared
representation counts over products.  Every call cross-checks the
product-side value against the quotient-side identity (representation
counts over reduced fractions a1/a2), so the two routes must agree
exactly before a result is returned.

A set is any iterable of integers, read once at each public entry by
``int_array`` into a sorted, duplicate-free array.  Both routes count sorted
arrays, never dicts.  All arithmetic is exact: products run in int64 only
when they provably fit, and on Python integers (the ``object_pairs``
budget) otherwise, so no result ever silently overflows.  A second set equal
to the first is read as the first, and a same-set energy counts only the
products a_i*a_j with i <= j and recovers the counts over ordered pairs from
them.  The quotient side orders each set by |s| and keys every pair i < j of
that order on t_i/t_j, so every key lies in [-1, 1] and a pair {s, -s} gives -1.

One windowed kernel serves both sides, and its writer ``_pair_values``
also packs ``offdiag_tuples``' grid keys.  Its pairs form rows that are
monotone in j: row i of the products is a_i*b_j over the sorted B (j >= i
for one set), and the quotient rows are the triangle in the |s| order, row
i being t_i over the later t_j, whose |t_j| grow, so |t_i/t_j| falls.
Window edges are integers.  The products are windowed on their exact value
and the quotients on the cell floor(|t_i/t_j| 2^bits) of their exact
magnitude, every |s| being below 2^bits.  A window [v, w) then meets every
row in one contiguous range of j, and a row's end of it is one
``np.searchsorted`` of an exact integer threshold in the row's sorted run:
ceil(v/a_i), or floor(v/a_i) + 1 where a_i < 0, in B, and
|t_i| 2^bits // v + 1 in the |t_j|.  A cell is a function of the
fraction's value, so all pairs of one fraction land in one window whatever
key width counts them; a fraction x and its negative -x share a window but
stay distinct keys in its one sort.  The windows are counted one at a time
with one sort each and the counts added.  A window holds at most
``WINDOW_PAIRS`` pairs, or the pairs of one integer if more share it: one
product value holds at most one pair a row, and one cell at most two a
column, since |t_i| then lies in an interval shorter than 1.  So with sets
of at most 2^15 elements no window passes the cap.  Window edges are
deterministic: an interpolation search, every other step a bisection, over
the exact counts of pairs below a value.
Every call takes this one path: pairs that fit one window are its first
and only window, with no search, and a side with no pairs (a one-element
set has no quotient pairs) still gets one window, empty.  Two limits
bound the kernel, both checked before anything is allocated:
``WINDOW_PAIRS`` (2^20) for memory, which holds a window's values to 8 MiB
and its peak to about twice that, for the index array that gathers short
rows or counts the sorted values; and the ``kernel_pairs`` budget, 2^30, for
the time of one call, so E(A) takes up to 32768 elements.  The list
``product_set`` returns is bounded by the ``product_set_pairs`` budget.

Quotient keys are float64 when every element of both sets is below 2^26
(``FLOAT_KEY_BITS``).  That is exact: such integers convert to float
exactly and division is correctly rounded, so equal fractions give equal
keys; and two distinct fractions in [-1, 1] with denominators below 2^26
differ by more than 2^-52, over two ulps, so they never share a key.
Larger elements are keyed on the reduced fraction in integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import sqrt
from typing import NamedTuple

import numpy as np

from .errors import InternalCheckError, PreconditionError, RetriesExhaustedError, check_budget
from .progressions import _integer, exact_dtype, int_array
from .sieve import hull_table

WINDOW_PAIRS = 1 << 20  # max pairs the kernel holds at once: its memory
FLOAT_KEY_BITS = 26  # quotient keys are float64 for elements below 2^26
# rows of a window at least this long on average are written by slices, shorter
# ones gathered; for windows of 2^19-2^20 pairs the two cross at 110-220 pairs a row
SLICE_ROW = 128
# the kernel's dtypes by kind, named without str(dtype), which costs microseconds a call
_ROUTES = {"i": "int64", "f": "float64", "O": "object"}
SUBSET_MAX_DRAWS = 1000  # draws of random_energy_subset before it gives up


@dataclass
class EnergyReport:
    """Exact energy, the trivial 2|A||B| cap ``diag_bound`` on tuples that
    reuse a pair, the number of distinct products |A.B|, the Cauchy-Schwarz
    floor |A|^2|B|^2 / E on |A.B|, ``cs_floor``, and ``kernel``: the dtype
    each side ran in and how many windows it used.

    ``product_count`` is the number of distinct products the product side
    counted and has no second route of its own, because it needs none: on
    every call the quotient side checks those counts' sum of r(x)^2
    exactly, and a lost product, or a product class wrongly split or
    merged, changes that sum.  Every call also checks |A|^2|B|^2 <=
    E |A.B| exactly, in integers, before ``cs_floor`` is returned.
    """

    energy: int
    diag_bound: int
    product_count: int
    cs_floor: float
    kernel: dict = field(default_factory=dict)


def _read_sets(A, B, nonzero: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """A and B through ``int_array``, b being a itself when B is None or holds
    the same integers: downstream, ``a is b`` is the one same-set test.  With
    ``nonzero``, 0 is refused, as the quotient side divides by every element."""
    a = int_array(A)
    b = a if B is None or B is A else int_array(B)
    if b is not a and np.array_equal(a, b):
        b = a
    if nonzero and (0 in a or 0 in b):
        raise PreconditionError("energy needs sets without 0 (drop it first)")
    return a, b


def _kernel_arrays(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``int_array`` sets a and b, refused when empty, as arrays in which
    every product is exact: as they are, int64, when |a*b| < 2^62 for all
    pairs, else Python ints in object arrays, one array still when b is a.  A
    magnitude counts as at least 1, so a set {0} does not let its partner's
    elements pass as fitting."""
    if not a.size or not b.size:
        raise PreconditionError("needs nonempty sets")
    check_budget("kernel_pairs", a.size * b.size)
    (a0, a1), (b0, b1) = a[[0, -1]].tolist(), b[[0, -1]].tolist()
    if exact_dtype(max(1, -a0, a1) * max(1, -b0, b1)) is object:
        check_budget("object_pairs", a.size * b.size)
        obj = a.astype(object, copy=False)
        a, b = obj, obj if b is a else b.astype(object, copy=False)
    return a, b


class _Rows(NamedTuple):
    """Pairs as rows: row r holds op(coef[r], run[j]) for j in [lo[r], hi),
    whose values fall as j grows where ``dec[r]`` holds and rise elsewhere.
    Products and the quotients' magnitudes are monotone in j alike, so a
    cut(rows, x) finds for every row at once where its values cross an
    integer x, by one ``np.searchsorted`` in the sorted run (its magnitudes,
    for quotients)."""

    coef: np.ndarray
    run: np.ndarray
    lo: np.ndarray
    hi: int
    dec: np.ndarray


def _product_cut(rows: _Rows, x: int) -> np.ndarray:
    """Per row a*b_j over the ascending run b, the first j with a*b_j >= x
    where a > 0, or a*b_j < x where a < 0: the first b_j >= ceil(x/a), or
    b_j >= floor(x/a) + 1."""
    a = rows.coef
    return np.clip(np.searchsorted(rows.run, np.where(rows.dec, x // a + 1, -(-x // a))),
                   rows.lo, rows.hi)


def _quotient_cut(rows: _Rows, x: int, bits: int, dtype) -> np.ndarray:
    """Per row t_i over the later t_j of the |s| order, the first j with
    |t_i/t_j| < x/2^bits, that is |t_j| > |t_i| 2^bits / x, for an integer
    x >= 1, on the |t| in ``dtype``, exact below 2^(2 bits) > |t| << bits."""
    m = np.abs(rows.coef).astype(dtype)
    return np.clip(np.searchsorted(m, (m << bits) // x + 1), rows.lo, rows.hi)


def _windows(families: list[_Rows], cut, bottom: int, top: int):
    """Windows [v, w) of integers over the pairs of ``families``, in
    increasing order: for each, v, w and every family's rows' j-ranges
    [start, stop) in it.  ``cut(rows, x)`` gives each row's first j past
    which its values are below x on a falling row, at or above x on a
    rising one.

    All values lie in [bottom, top).  A window holds at most WINDOW_PAIRS
    pairs, or the pairs of one value when more share it.  Pairs that fit
    one window get exactly one, [bottom, top), with no search; no pairs at
    all get one too, empty.  Each edge is searched from the previous
    window's density, then alternately by linear interpolation on the
    exact counts and by bisection, and a window of at least half the
    budget is taken as found.  Each step costs one cut of every row, and the
    search takes about one step a window: 89 cuts for the 89 windows of
    E(AP(7, 1000, 8192)).  On a 2-core x86-64 VM the search alone took
    23 ms there and 1.8-2.0 s for the 1370 windows at 32768 elements.
    """
    cap = WINDOW_PAIRS
    total = sum(int((f.hi - f.lo).sum()) for f in families)
    low = [np.where(f.dec, f.hi, f.lo) for f in families]  # nothing lies below bottom
    high = [np.where(f.dec, f.lo, f.hi) for f in families]

    def below(cuts):
        return sum(int(np.where(f.dec, f.hi - c, c - f.lo).sum()) for f, c in zip(families, cuts))

    v, cv, base = bottom, low, 0
    density = None  # (width, pairs) of the window before
    while True:  # at least one window, empty when there are no pairs
        lo_x, lo_c, lo_n = v, cv, base
        hi_x, hi_c, hi_n = top, high, total
        want = base + 3 * cap // 4
        step = 0
        while hi_n - base > cap:
            if step % 2 == 0:
                x0, span, num, den = (
                    (v, density[0], want - base, density[1]) if step == 0 and density
                    else (lo_x, hi_x - lo_x, want - lo_n, hi_n - lo_n)
                )
                x = x0 + span * num // den
            if step % 2 or not lo_x < x < hi_x:
                x = (lo_x + hi_x) // 2
                if x == lo_x:  # [lo_x, hi_x) holds a single value
                    break
            cuts = [cut(f, x) for f in families]
            n = below(cuts)
            if n - base <= cap:
                lo_x, lo_c, lo_n = x, cuts, n
                if 2 * (n - base) >= cap:
                    break
            else:
                hi_x, hi_c, hi_n = x, cuts, n
            step += 1
        if hi_n - base <= cap or lo_n == base:
            # the whole rest fits, or [lo_x, hi_x) holds a single value
            w, cw, nw = hi_x, hi_c, hi_n
        else:
            w, cw, nw = lo_x, lo_c, lo_n
        yield v, w, list(map(np.minimum, cv, cw)), list(map(np.maximum, cv, cw))
        if nw == total:
            return
        density = (w - v, nw - base)
        v, cv, base = w, cw, nw


def _pair_values(part, op) -> np.ndarray:
    """op(coef[r], run[j]) over j in [start[r], stop[r]) for every row r of
    the (coef, run, start, stop) ``part``, as one array in run's dtype: the
    products, the quotient keys and ``offdiag_tuples``' grid keys.  Rows of at
    least SLICE_ROW pairs on average are written slice by slice; shorter ones
    are gathered all at once, beside the output one index array of its size."""
    coef, run, start, stop = part
    k = stop - start
    nz = np.flatnonzero(k)
    k = k[nz]
    start = start[nz]
    out = np.empty(int(k.sum()), dtype=run.dtype)
    if out.size >= SLICE_ROW * nz.size:
        p = 0
        for c, s, m in zip(coef[nz], start.tolist(), k.tolist()):
            op(c, run[s : s + m], out=out[p : p + m])
            p += m
        return out
    # j steps by one along a row and jumps from its end to the next start
    j = np.ones(out.size, dtype=np.intp)
    j[0] = start[0]
    j[np.cumsum(k[:-1])] = start[1:] - start[:-1] - k[:-1] + 1
    np.cumsum(j, out=j)
    np.take(run, j, out=out, mode="clip")  # "raise" would buffer out
    del j
    op(np.repeat(coef[nz], k), out, out=out)
    return out


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


def _product_windows(a: np.ndarray, b: np.ndarray):
    """Sorted distinct products x*y of the ``int_array`` sets a and b and
    their counts over ordered pairs, window by window in increasing order;
    when b is a, from the a_i*a_j with i <= j."""
    a, b = _kernel_arrays(a, b)
    if a is b:
        sq, d = _sorted_counts(np.square(a))
    lo = np.arange(b.size) if a is b else np.zeros(a.size, dtype=np.intp)
    rows = _Rows(a, b, lo, b.size, np.less(a, 0))
    corners = [x * y for x in a[[0, -1]].tolist() for y in b[[0, -1]].tolist()]
    for v, w, (start,), (stop,) in _windows([rows], _product_cut, min(corners), max(corners) + 1):
        vals, cnts = _sorted_counts(_pair_values((a, b, start, stop), np.multiply))
        if a is b:
            # r(x) = 2c(x) - d(x): a pair i < j stands for (i, j) and (j, i), and
            # d(x) counts the i with a_i^2 = x, which is 2 when s and -s are in A
            i, k = np.searchsorted(sq, [v, w])
            cnts *= 2
            cnts[np.searchsorted(vals, sq[i:k])] -= d[i:k]
        yield vals, cnts
        del vals, cnts  # free this window before the next one is built


def _product_energy(a: np.ndarray, b: np.ndarray):
    """E(a, b) from the product side, |a.b| and the kernel's route."""
    e = count = windows = 0
    for vals, cnts in _product_windows(a, b):
        e += int(np.dot(cnts, cnts))
        count += vals.size
        windows += 1
        dtype = vals.dtype
        del vals, cnts  # free this window before the next one is built
    return e, count, {"product_route": _ROUTES[dtype.kind], "product_windows": windows}


def _quotient_windows(sets: list[np.ndarray], bits: int):
    """Per window of the quotients' magnitude cells floor(|t_i/t_j| 2^bits),
    each set's sorted keys and counts.  Every |s| < 2^bits.

    For bits <= FLOAT_KEY_BITS the key is the float64 value of t_i/t_j
    (exact, see the module docstring).  Otherwise it is the reduced p/q with
    q > 0 packed as p*2^bits + q.  Keys and cuts, below 2^(2 bits), take its
    ``exact_dtype``.  All sets share the windows: a key is in one for each.
    """
    for S in sets:
        check_budget("kernel_pairs", len(S) * len(S))
    dt = exact = exact_dtype((1 << 2 * bits) - 1)
    if bits <= FLOAT_KEY_BITS:
        dt, op = np.float64, np.divide
    else:
        if dt is object:
            check_budget("object_pairs", max(len(S) * (len(S) - 1) // 2 for S in sets))

        def op(p, q, out):
            g = np.gcd(p, q) * np.sign(q)  # divides p/q to lowest terms with q > 0
            np.add(p // g * (1 << bits), q // g, out=out)

    ts = [S[np.argsort(np.abs(S), kind="stable")].astype(dt) for S in sets]
    # row i is t_i over the later t_j, whose |t_j| grow, so |t_i/t_j| falls
    # along it; windows are cut on the cell floor(|t_i/t_j| 2^bits) in [0, 2^bits]
    families = [_Rows(t, t, np.arange(1, t.size + 1), t.size, np.ones(t.size, dtype=bool)) for t in ts]
    cut = partial(_quotient_cut, bits=bits, dtype=exact)
    for _, _, starts, stops in _windows(families, cut, 0, (1 << bits) + 1):
        yield [_sorted_counts(_pair_values((f.coef, f.run, s, t), op))
               for f, s, t in zip(families, starts, stops)]


def _matched_dot(qa, qb) -> int:
    """sum_x r_A(x) r_B(x) over the keys both sorted key arrays hold."""
    (ka, ca), (kb, cb) = qa, qb
    if not kb.size:
        return 0
    at = np.searchsorted(kb, ka)  # sorted distinct keys: B holds ka there or nowhere
    np.minimum(at, kb.size - 1, out=at)
    same = kb[at] == ka
    return int(np.dot(ca[same], cb[at[same]]))


def _quotient_dots(a: np.ndarray, b: np.ndarray):
    """sum r_A(x)^2, sum r_B(x)^2 and sum r_A(x) r_B(x) over the quotient
    keys of the ``int_array`` sets a and b (when b is a, over a's keys
    alone), in one key width, window by window, and the kernel's route."""
    sets = [a] if b is a else [a, b]
    bits = int(max(max(-S[0], S[-1]) for S in sets)).bit_length()
    aa = bb = ab = windows = 0
    for qs in _quotient_windows(sets, bits):
        dtype = qs[0][0].dtype
        aa += int(np.dot(qs[0][1], qs[0][1]))
        if b is not a:
            bb += int(np.dot(qs[1][1], qs[1][1]))
            ab += _matched_dot(qs[0], qs[1])
        windows += 1
        del qs  # free this window before the next one is built
    return (aa, aa, aa) if b is a else (aa, bb, ab), {"key_route": _ROUTES[dtype.kind], "key_windows": windows}


def _antipodes(S: np.ndarray) -> int:
    """Number of pairs {s, -s} in the sorted set S."""
    neg = -S[S < 0]
    at = np.minimum(np.searchsorted(S, neg), S.size - 1)
    return int(np.count_nonzero(S[at] == neg))


def _check_quotient_side(e_prod: int, A: np.ndarray, B: np.ndarray, dot: int) -> None:
    """Raise InternalCheckError unless the quotient side gives E(A, B) =
    ``e_prod`` exactly, from ``dot`` = sum_x r_{A/A}(x) r_{B/B}(x) over the
    keys of the pairs i < j."""
    # over all quotients: x = 1 gives |A||B|; every other x shares its key
    # with 1/x, except x = -1, which both orientations of a pair {s, -s}
    # hit, so that key counts twice more
    e_quot = len(A) * len(B) + 2 * dot + 2 * _antipodes(A) * _antipodes(B)
    if e_prod != e_quot:
        raise InternalCheckError(
            f"product-side energy {e_prod} != quotient-side energy {e_quot}"
        )


def energy(A, B=None) -> EnergyReport:
    """Multiplicative energy of A (or of the pair A, B), via both routes.

    A and B are any integers, read by ``int_array``; 0 must be absent, and a B
    equal to A is read as A.  The product-side sum of squared representation
    counts is the returned value; the quotient-side sum (same-set: sum of
    r_{A/A}^2; cross: dot of r_{A/A} with r_{B/B}) is recomputed on every call
    and must match exactly.  The product side is reduced to its numbers before
    the quotient keys are built.  Then Cauchy-Schwarz, |A|^2|B|^2 <= E |A.B|,
    is checked in integers, and its floor on |A.B| reported as ``cs_floor``.
    """
    a, b = _read_sets(A, B, nonzero=True)
    e, count, kernel = _product_energy(a, b)
    (_, _, ab), keys = _quotient_dots(a, b)
    _check_quotient_side(e, a, b, ab)
    pairs = a.size * b.size
    if pairs * pairs > e * count:
        raise InternalCheckError(f"Cauchy-Schwarz: |A|^2|B|^2 = {pairs * pairs} > E |A.B| = {e * count}")
    return EnergyReport(energy=e, diag_bound=2 * pairs, product_count=count,
                        cs_floor=pairs * pairs / e, kernel=kernel | keys)


def energy_bruteforce(A, B=None) -> int:
    """Quadratic pair-against-pair oracle for the energy; independent path.

    Compares every ordered (a1, b1) product against every (a2, b2) product,
    so the cost is (|A||B|)^2 comparisons; guarded at |A||B| <= 10^4.
    """
    a, b = _read_sets(A, B)
    check_budget("bruteforce_pairs", a.size * b.size)
    p = np.multiply.outer(*_kernel_arrays(a, b)).ravel()
    total = 0
    step = max(1, (1 << 24) // max(1, p.size))
    for i in range(0, p.size, step):
        total += int((p[i : i + step, None] == p[None, :]).sum())
    return total


def product_set(A, B) -> list[int]:
    """Sorted distinct pairwise products of A and B, window by window from
    the pair kernel (only the a_i*a_j with i <= j when A and B are the same
    set); raises BudgetError past the ``product_set_pairs`` budget, which
    bounds the list it returns.  A k-way merge of the dilates a*B is the
    oracle for it in tests."""
    a, b = _read_sets(A, B)
    check_budget("product_set_pairs", a.size * b.size)
    out: list[int] = []
    for vals, _ in _product_windows(a, b):
        out += vals.tolist()
        del vals  # free this window before the next one is built
    return out


def offdiag_tuples(A, energy_value: int | None = None) -> int:
    """Count of grids (x1, x2, y1, y2), x1 < x2, y1 < y2, all x_i*y_j in A.

    Every valid x divides some element, so the incidences (x, a/x) come from
    the divisors of each element, built from its primes in ``hull_table(A)``:
    A's hull must fit the ``sieve`` budget, or BudgetError (as for
    ``offdiag_tuples([1, 2, 2**25])``).  They are sorted once by (x, y), and each
    x with at least two quotients y1 < y2 contributes the pair as one int64
    key, the ranks of y1 and y2 among the distinct quotients packed side by
    side; a pair shared by c values of x gives c(c-1)/2 grids.  The kernel's
    ``_pair_values`` writes them, rank i shifted up beside the later ranks of
    its x, into one array of exactly ``work`` keys, checked against the
    ``offdiag_pairs`` budget before anything is allocated and counted in one
    sort.  A kept incidence shares its x with another, so there are at most
    2 * work of them and the two ranks fit in 50 bits.  Beside the incidences
    the peak is at most two int64 arrays of ``work`` entries, the keys and
    the writer's gather index: 3.9 MiB under ``tracemalloc`` for AP(1, 1, 512).

    For |A| up to a few thousand the asserted inequality
    E(A) <= 2|A|^2 + 4|X| is re-checked against the exact energy, or
    against ``energy_value`` when the caller already has E(A).
    """
    a = int_array(A)
    if not a.size or a[0] < 1:
        raise PreconditionError("offdiag_tuples needs positive integers")
    table, at = hull_table(a)
    flat, offsets = table.factor_arrays
    # one (element, prime) pair per prime factor, nth its place among the
    # element's primes, and the exponent by repeated division
    cnt = offsets[at + 1] - offsets[at]
    elem = np.repeat(np.arange(a.size), cnt)
    nth = np.arange(elem.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    p = flat[np.repeat(offsets[at], cnt) + nth]
    rest, e = a[elem] // p, np.ones_like(p)
    live = np.flatnonzero(rest % p == 0)
    while live.size:
        rest[live] //= p[live]
        e[live] += 1
        live = live[rest[live] % p[live] == 0]
    # round r spreads every divisor found so far over its products with
    # p^0, ..., p^e for the r-th prime of its element
    x, owner = np.ones_like(a), np.arange(a.size)
    for r in range(int(cnt.max())):
        on, pr, er = nth == r, np.ones_like(a), np.zeros_like(a)
        pr[elem[on]], er[elem[on]] = p[on], e[on]
        reps = er[owner] + 1
        x, owner = np.repeat(x, reps), np.repeat(owner, reps)
        x *= pr[owner] ** (np.arange(x.size) - np.repeat(np.cumsum(reps) - reps, reps))
    y = a[owner] // x
    order = np.lexsort((y, x))
    y = y[order]
    sizes = _sorted_counts(x[order])[1]  # the quotients of each x, in x order
    work = int((sizes * (sizes - 1) // 2).sum())
    check_budget("offdiag_pairs", work)
    shared = sizes >= 2
    # y stays sorted within each x, and so does its rank
    rank = np.unique(y[np.repeat(shared, sizes)], return_inverse=True)[1]
    bits = max(rank.size - 1, 1).bit_length()
    sizes = sizes[shared]
    # row i is rank i beside the later ranks of its x, up to the end of its run
    stop = np.repeat(np.cumsum(sizes), sizes)
    keys = _pair_values((rank << bits, rank, np.arange(1, rank.size + 1), stop), np.add)
    counts = _sorted_counts(keys)[1]
    x_count = int((counts * (counts - 1) // 2).sum())
    e = energy_value
    if e is None and a.size <= 3000:
        e = energy(a).energy
    if e is not None and e > 2 * a.size**2 + 4 * x_count:
        raise InternalCheckError(
            f"E = {e} exceeds 2|A|^2 + 4|X| = {2 * a.size**2 + 4 * x_count}"
        )
    return x_count


def cs_energy_split(A, B) -> tuple[float, bool]:
    """sqrt(E(A) * E(B)) and whether E(A,B) is below it (exact check).

    The three product sides are reduced to numbers first; then the quotient
    windows build each set's keys once and serve all three checks.  When B
    is read as A the three energies are one, run and checked once.
    """
    a, b = _read_sets(A, B, nonzero=True)
    sides = [(a, a)] if b is a else [(a, b), (a, a), (b, b)]  # E(A, B), E(A), E(B)
    es = [_product_energy(x, y)[0] for x, y in sides]
    aa, bb, ab = _quotient_dots(a, b)[0]
    for e, (x, y), dot in zip(es, sides, (ab, aa, bb)):
        _check_quotient_side(e, x, y, dot)
    e_ab, e_a, e_b = es * 3 if b is a else es
    return sqrt(e_a * e_b), e_ab * e_ab <= e_a * e_b


def random_energy_subset(A, seed: int) -> list[int]:
    """A random subset A' with E(A') <= 4|A'|^2 and |A'| >= |A|^3 / (2 E(A)).

    Keeps each element independently with probability |A|^2 / E(A) and
    retries until both certified inequalities hold; a positive fraction of
    draws succeeds in expectation, so exhausting SUBSET_MAX_DRAWS signals a bug.
    """
    a, seed = int_array(A), _integer("seed", seed)
    if seed < 0:
        raise PreconditionError("needs seed >= 0")
    e_a = energy(a).energy
    n = a.size
    p = min(1.0, n * n / e_a)
    rng = np.random.default_rng(seed)
    for _ in range(SUBSET_MAX_DRAWS):
        sub = a[rng.random(n) < p]
        if not sub.size:
            continue
        e_sub = energy(sub).energy
        # integer forms of E' <= 4|A'|^2 and |A'| >= |A|^3 / (2 E(A))
        if e_sub <= 4 * sub.size**2 and 2 * e_a * sub.size >= n**3:
            return sub.tolist()
    raise RetriesExhaustedError(
        f"no qualifying subset in {SUBSET_MAX_DRAWS} draws at p = {p:.4g}"
    )
