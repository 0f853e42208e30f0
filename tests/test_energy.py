import heapq
import importlib
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multable.energy import (
    cs_energy_split,
    cs_product_lower_bound,
    energy,
    energy_bruteforce,
    offdiag_tuples,
    product_set,
    random_energy_subset,
)
from multable.errors import BudgetError, PreconditionError
from multable.progressions import ArithmeticProgression as AP
from multable.progressions import dilate
from multable.sieve import divisors

# multable.energy is also the name of the function the package re-exports
en = importlib.import_module("multable.energy")

nonzero_sets = st.sets(
    st.integers(-10**6, 10**6).filter(lambda x: x != 0), min_size=1, max_size=25
).map(sorted)

# Small multiples of scales on both sides of 2^31 (the packed quotient keys)
# and near 2^31.5 (products past 2^62), so sets straddle both int64 guards
# and still share ratios and products.
wide_sets = st.sets(
    st.builds(
        lambda k, s: k * s,
        st.integers(-12, 12).filter(lambda x: x != 0),
        st.sampled_from([1, 7, 2**31 - 1, 2**31, 3 * 2**30, int(2**31.5), 2**32 + 3]),
    ),
    min_size=1,
    max_size=12,
).map(sorted)


def _key_sets(scales):
    """Sets of small multiples k*s, |k| <= 6, of the given scales, with the
    negatives of up to three elements added, so antipodes {s, -s} occur and
    a square s^2 is the product of two diagonal pairs."""
    elems = st.sets(
        st.builds(lambda k, s: k * s, st.integers(-6, 6).filter(lambda x: x != 0),
                  st.sampled_from(scales)),
        min_size=1,
        max_size=10,
    )
    return st.tuples(elems, st.integers(0, 3)).map(
        lambda t: sorted(t[0] | {-x for x in sorted(t[0])[: t[1]]})
    )


# every |k*s| < 2^26 (float64 quotient keys), and scales from 2^26 on (integer keys)
small_key_sets = _key_sets([1, 3, 7, 2**26 // 6 - 1])
any_key_sets = _key_sets([1, 3, 7, 2**26 // 6 - 1, 2**26, 2**26 + 1, 3 * 2**25])


def _product_merge(A, B):
    """Sorted distinct products a*b by a k-way merge of the dilates a*B: the
    oracle for product_set."""
    def row(a):
        return (a * b for b in (B if a > 0 else reversed(B))) if a else iter((0,))

    out = []
    for v in heapq.merge(*(row(a) for a in A)):
        if not out or v != out[-1]:
            out.append(v)
    return out


def _triangle(op, t, diagonal):
    """op(t_i, t_j) over the pairs i < j (i <= j with ``diagonal``) as one
    array of t's dtype, gathered by ``np.triu_indices``: the whole-array
    oracle for the kernel, which writes its pairs by rows."""
    i, j = np.triu_indices(len(t), 0 if diagonal else 1)
    out = np.empty(i.size, dtype=t.dtype)
    op(t[i], t[j], out=out)
    return out


def _whole_product_counts(A, B):
    """Sorted distinct products and their counts over ordered pairs, from one
    sort of all products (the triangle i <= j for one set)."""
    a, b = en._kernel_arrays(A, B)
    if A != B:
        return np.unique(np.multiply.outer(a, b).ravel(), return_counts=True)
    vals, cnts = np.unique(_triangle(np.multiply, a, diagonal=True), return_counts=True)
    sq, d = np.unique(np.square(a), return_counts=True)
    cnts *= 2
    cnts[np.searchsorted(vals, sq)] -= d
    return vals, cnts


def _whole_quotient_counts(S, bits):
    """Sorted keys and counts of the quotients t_i/t_j over the pairs i < j of
    S ordered by |s|, from one sort of the whole triangle."""
    t = sorted(S, key=abs)
    if bits <= en.FLOAT_KEY_BITS:
        return np.unique(_triangle(np.divide, np.array(t, dtype=np.float64), False), return_counts=True)

    def packed(p, q, out):
        g = np.gcd(p, q) * np.sign(q)
        np.add(p // g * (1 << bits), q // g, out=out)

    dt = np.int64 if bits <= 31 else object
    return np.unique(_triangle(packed, np.array(t, dtype=dt), False), return_counts=True)


def _windowed(windows):
    """The (values, counts) of every window, joined into two lists."""
    vals, cnts = [], []
    for v, c in windows:
        vals += v.tolist()
        cnts += c.tolist()
    return vals, cnts


def _windowed_keys(sets, bits):
    """Each set's quotient keys and counts over all windows, joined."""
    per_set = [([], []) for _ in sets]
    for qs in en._quotient_windows(sets, bits):
        for (keys, counts), (k, c) in zip(per_set, qs):
            keys += k.tolist()
            counts += c.tolist()
    return per_set


def test_product_set_examples():
    assert product_set([1, 2, 3, 4], [1, 2, 3, 4]) == [1, 2, 3, 4, 6, 8, 9, 12, 16]
    assert product_set([2, 4, 6], [3]) == [6, 12, 18]
    assert len(product_set(list(range(1, 11)), list(range(1, 11)))) == 42


def test_product_strategies_agree_random():
    rnd = random.Random(1)
    for trial in range(200):
        if trial % 2:
            A = sorted(rnd.sample(range(1, 60), rnd.randrange(1, 30)))
            B = sorted(rnd.sample(range(1, 60), rnd.randrange(1, 30)))
        else:
            A = sorted(rnd.sample(range(-10**5, 10**5), rnd.randrange(1, 15)))
            B = sorted(rnd.sample(range(-10**5, 10**5), rnd.randrange(1, 15)))
        for X, Y in ((A, B), (A, A)):  # (A, A) takes the same-set triangle
            assert product_set(X, Y) == _product_merge(X, Y)


def test_energy_examples():
    assert energy([1]).energy == 1
    assert energy([1, 2, 3]).energy == 15
    assert energy([1, 2], [1, 2]).energy == 6
    assert energy([1, 2], [1, 3]).energy == 4
    assert energy([1], [5]).energy == 1
    assert energy([1, 2, 4]).energy == 19
    assert energy([1, 2, 4, 8]).energy == 44


def test_energy_histogram():
    hist = energy([1, 2, 3], with_histogram=True).histogram
    assert hist == {1: 1, 2: 2, 3: 2, 4: 1, 6: 2, 9: 1}
    assert sum(c * c for c in hist.values()) == 15


def test_energy_rejects_zero():
    with pytest.raises(PreconditionError):
        energy([0, 1, 2])


def test_bruteforce_matches_seeded_random():
    rnd = random.Random(99)
    for _ in range(60):
        A = sorted(rnd.sample(range(1, 10**6), rnd.randrange(1, 40)))
        B = sorted(rnd.sample(range(1, 10**6), rnd.randrange(1, 40)))
        assert energy(A, B, with_histogram=False).energy == energy_bruteforce(A, B)


def test_bruteforce_budget():
    with pytest.raises(BudgetError):
        energy_bruteforce(list(range(1, 202)), list(range(1, 102)))


@given(nonzero_sets, st.sampled_from([-3, 2, 7]))
def test_energy_dilation_invariance(A, m):
    assert energy(dilate(A, m), with_histogram=False).energy == energy(A, with_histogram=False).energy


@given(nonzero_sets, nonzero_sets)
def test_cauchy_schwarz_pair(A, B):
    # lower bound on the product set, exact integer comparison inside
    cs_product_lower_bound(A, B)
    rhs, ok = cs_energy_split(A, B)
    assert ok
    assert energy(A, B, with_histogram=False).energy <= rhs + 1e-9


def test_cs_examples():
    assert cs_product_lower_bound([1, 2, 3], [1, 2, 3]) == pytest.approx(81 / 15)
    assert cs_product_lower_bound([1], [1]) == 1.0
    g = [2, 4, 8, 16]
    assert energy(g).energy == 44
    assert cs_product_lower_bound(g, g) == pytest.approx(256 / 44)
    assert len(product_set(g, g)) == 7
    rhs, ok = cs_energy_split([1, 2, 3], [1, 2, 3])
    assert ok and rhs == 15.0
    rhs, ok = cs_energy_split([1], [1, 2])
    assert ok and rhs == pytest.approx(math.sqrt(6))


def test_offdiag_examples():
    assert offdiag_tuples([1, 2, 3]) == 0
    assert offdiag_tuples([1]) == 0
    x = offdiag_tuples([1, 2, 3, 6])
    assert x >= 1
    assert energy([1, 2, 3, 6]).energy <= 2 * 16 + 4 * x


def test_offdiag_grid_count_exact():
    # {1,2,3,6} has exactly the grids (1,2;1,3) and (1,3;1,2)
    assert offdiag_tuples([1, 2, 3, 6]) == 2
    # {1,2,4,8}: brute-force over all quadruples as an independent check
    A = [1, 2, 4, 8]
    ref = 0
    for x1 in range(1, 9):
        for x2 in range(x1 + 1, 9):
            for y1 in range(1, 9):
                for y2 in range(y1 + 1, 9):
                    if all(u * v in set(A) for u in (x1, x2) for v in (y1, y2)):
                        ref += 1
    assert offdiag_tuples(A) == ref


def _offdiag_quotients(A):
    """{x: the quotients a/x over the elements a of A that x divides}."""
    quotients = {}
    for a in sorted(set(A)):
        for x in divisors(a):
            quotients.setdefault(x, []).append(a // x)
    return quotients


def _offdiag_counter(A):
    """Grid count by a second route: a Counter of the quotient pairs each x
    sees, fed by itertools.combinations, one tuple per pair."""
    common = Counter()
    for ys in _offdiag_quotients(A).values():
        common.update(combinations(sorted(ys), 2))
    return sum(c * (c - 1) // 2 for c in common.values())


# small multiples of highly composite scales, so elements share many divisors
shared_divisor_sets = st.sets(
    st.builds(lambda k, s: k * s, st.integers(1, 40), st.sampled_from([1, 6, 12, 24, 60, 120, 210])),
    min_size=1,
    max_size=60,
)


@given(shared_divisor_sets)
def test_offdiag_matches_counter(A):
    assert offdiag_tuples(A) == _offdiag_counter(A)


def test_offdiag_matches_counter_on_progressions():
    assert offdiag_tuples([1, 2, 3, 6]) == _offdiag_counter([1, 2, 3, 6]) == 2
    for a, d, L in [(720720, 60, 200), (1, 1, 512), (7, 1000, 64)]:
        A = AP(a, d, L).elements()
        assert offdiag_tuples(A) == _offdiag_counter(A)


def test_offdiag_budget(monkeypatch):
    A = list(range(1, 61))
    work = sum(len(ys) * (len(ys) - 1) // 2 for ys in _offdiag_quotients(A).values())
    monkeypatch.setattr(en, "OFFDIAG_PAIR_BUDGET", work)
    assert offdiag_tuples(A) == _offdiag_counter(A)
    monkeypatch.setattr(en, "OFFDIAG_PAIR_BUDGET", work - 1)
    with pytest.raises(BudgetError):
        offdiag_tuples(A)


def test_offdiag_peak():
    # the keys are one int64 array of exactly the work's length, 2.3 MiB here;
    # the Counter of tuples peaked at 27 MiB
    A = AP(720720, 60, 200).elements()
    e = energy(A).energy
    tracemalloc.start()
    try:
        offdiag_tuples(A, energy_value=e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024 * 1024


def test_random_energy_subset_examples():
    sub = random_energy_subset([1, 2, 3], seed=0)
    assert len(sub) >= 1

    A = list(range(1, 21))
    sub = random_energy_subset(A, seed=1)
    e_sub = energy_bruteforce(sub)
    assert e_sub <= 4 * len(sub) ** 2
    assert 2 * energy(A, with_histogram=False).energy * len(sub) >= len(A) ** 3

    geo = [2**i for i in range(16)]
    sub = random_energy_subset(geo, seed=2)
    e_a = energy(geo, with_histogram=False).energy
    assert energy_bruteforce(sub) <= 4 * len(sub) ** 2
    assert 2 * e_a * len(sub) >= len(geo) ** 3


def test_quotient_product_identity_object_path():
    # elements beyond the packed-key range take the exact object-array keys
    big = 1 << 33
    A = [big + 1, big + 2, big + 3]
    assert energy(A, with_histogram=False).energy == energy_bruteforce(A)


def test_zero_set_partner_past_int64():
    # {0} times anything is {0}; the int64 guard must not let 2^70 through
    assert product_set([0], [2**70]) == _product_merge([0], [2**70]) == [0]
    assert product_set([2**70], [0]) == _product_merge([2**70], [0]) == [0]
    assert energy_bruteforce([0], [2**70]) == 1


def test_cross_energy_mixed_width():
    # A fits the packed quotient keys and B does not; one encoding serves both
    A, B = [1, 2], [2**31, 2**32]
    assert energy(A, B, with_histogram=False).energy == energy_bruteforce(A, B) == 6
    rhs, ok = cs_energy_split(A, B)
    assert ok and rhs == pytest.approx(math.sqrt(6 * 6))


@given(wide_sets, wide_sets)
def test_energy_matches_bruteforce_across_int64_guards(A, B):
    assert energy(A, with_histogram=False).energy == energy_bruteforce(A)
    assert energy(A, B, with_histogram=False).energy == energy_bruteforce(A, B)


def test_object_fallback_budget():
    # products past 2^62 in Python integers: 1025^2 > 2^20 pairs
    with pytest.raises(BudgetError):
        energy([2**40 + i for i in range(1025)])
    # int64 products, but B's quotient keys need Python integers: 1449*1448/2 > 2^20
    with pytest.raises(BudgetError):
        energy([1], [2**31 + i for i in range(1449)])


def test_pair_budget(monkeypatch):
    # a budget of 64 pairs: 8 elements fit it and 9 do not, on every route
    monkeypatch.setattr(en, "MAX_PAIRS", 64)
    small, large = list(range(1, 9)), list(range(1, 10))
    big = [2**26 + i for i in range(9)]  # integer quotient keys
    assert energy(small).energy == energy_bruteforce(small)
    assert product_set(small, small) == _product_merge(small, small)
    for call in (
        # each quotient side on its own: |B|^2 pairs, though |A||B| fits
        lambda: en._quotient_dots(large, None),
        lambda: en._quotient_dots([1, 2], big),
        lambda: energy(large),
        lambda: energy(big),
        lambda: energy([1, 2], large),
        lambda: cs_energy_split([1, 2], large),
        lambda: product_set(large, large),
        lambda: product_set([1], list(range(1, 66))),
    ):
        with pytest.raises(BudgetError):
            call()


def test_product_set_budget(monkeypatch):
    # product_set's own cap bounds the list it returns, below the time budget
    monkeypatch.setattr(en, "PRODUCT_SET_MAX", 64)
    assert product_set([1], list(range(1, 65))) == list(range(1, 65))
    with pytest.raises(BudgetError):
        product_set([1], list(range(1, 66)))
    assert energy([1], list(range(1, 66))).energy == 65


def test_histogram_budget(monkeypatch):
    # the histogram holds one entry per distinct product, so product_set's
    # cap bounds it too, and is checked before any window is built
    monkeypatch.setattr(en, "PRODUCT_SET_MAX", 64)
    assert len(energy([1], list(range(1, 65)), with_histogram=True).histogram) == 64

    def no_windows(*args):
        raise AssertionError("a window was built")

    monkeypatch.setattr(en, "_windows", no_windows)
    with pytest.raises(BudgetError):
        energy([1], list(range(1, 66)), with_histogram=True)
    with pytest.raises(BudgetError):
        energy(list(range(1, 9)) + [10], with_histogram=True)  # 81 pairs of one set


def test_one_window_kernel_provenance():
    # a call that fits one window takes it, and a one-element set, which has
    # no quotient pairs, still gets one window, empty
    one = {"product_route": "int64", "product_windows": 1, "key_route": "float64", "key_windows": 1}
    assert energy([5]).kernel == one
    assert energy([-3, 2, 7], [4, 5, 6, 9]).kernel == one
    assert energy([5], [4, 6]).kernel == one


def test_dilation_invariance_100_random_sets():
    rnd = random.Random(77)
    for _ in range(100):
        A = sorted(rnd.sample([x for x in range(-500, 501) if x], rnd.randrange(1, 30)))
        base = energy(A, with_histogram=False).energy
        for m in (-3, 2, 7):
            assert energy(dilate(A, m), with_histogram=False).energy == base


def test_energy_diagonal_floor():
    rnd = random.Random(78)
    for _ in range(50):
        A = sorted(rnd.sample(range(1, 10**5), rnd.randrange(1, 30)))
        e = energy(A, with_histogram=False).energy
        n = len(A)
        assert e >= max(n * n, 2 * n * n - n)


@given(small_key_sets, any_key_sets)
def test_energy_matches_bruteforce_across_key_routes(A, B):
    # both sets below 2^26 key on floats, a partner from 2^26 on switches both to integers
    e_a, e_b, e_ab = energy_bruteforce(A), energy_bruteforce(B), energy_bruteforce(A, B)
    assert energy(A).energy == e_a
    assert energy(B).energy == e_b
    assert energy(A, B).energy == energy(B, A).energy == e_ab
    rhs, ok = cs_energy_split(A, B)
    assert ok and rhs == math.sqrt(e_a * e_b)


@given(any_key_sets)
def test_energy_histogram_counts_ordered_pairs(A):
    want = Counter(a * b for a in A for b in A)
    rep = energy(A, with_histogram=True)
    assert rep.histogram == want
    assert rep.product_count == len(want)


@given(small_key_sets)
def test_float_quotient_keys_match_integer_keys(A):
    # the packed integer keys p*2^31 + q, decoded to the float of p/q
    [(keys, counts)] = _windowed_keys([A], 26)
    [(int_keys, int_counts)] = _windowed_keys([A], 31)
    decoded = {}
    for k, c in zip(int_keys, int_counts):
        q = k % 2**31
        decoded[((k - q) >> 31) / q] = c
    assert dict(zip(keys, counts)) == decoded


def _nxn_float_keys(S):
    """The float keys as the n x n construction built them: every ordered pair
    with -1 < s_i/s_j < 1 once, and -1 once for each pair {s, -s}."""
    arr = np.array(S, dtype=np.float64)
    r = np.divide.outer(arr, arr)
    antipodes = len({-s for s in S if s < 0}.intersection(S))
    keys = np.concatenate((r[(r < 1) & (r > -1)], np.full(antipodes, -1.0)))
    return np.unique(keys, return_counts=True)


@given(small_key_sets)
def test_float_quotient_triangle_matches_nxn(A):
    [(keys, counts)] = _windowed_keys([A], 26)
    want_keys, want_counts = _nxn_float_keys(A)
    assert keys == want_keys.tolist()
    assert counts == want_counts.tolist()


def test_quotient_counts_peak_below_one_nxn_array():
    # 1024 x 1024 float64 is 8 MiB; the triangle rows, sorted in place, stay below it
    tracemalloc.start()
    try:
        en._quotient_dots(list(range(1, 1025)), None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024 * 8


def test_energy_peak_bounded_by_window():
    # [1, 2048] has 2.1M pairs a side; sorted whole, they peaked at 27.8 MiB,
    # and windows of at most 2^20 pairs keep the kernel near 12 MiB
    A = list(range(1, 2049))
    tracemalloc.start()
    try:
        rep = energy(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.energy == 36756784
    assert rep.kernel["product_windows"] > 1 and rep.kernel["key_windows"] > 1
    assert peak < 16 * 1024 * 1024


# signed sets across every dtype route: products in int64 below 2^62 and in
# Python ints above; quotient keys on floats below 2^26, packed in int64
# below 2^31 and packed in Python ints above
route_sets = st.sets(
    st.builds(
        lambda k, s: k * s,
        st.integers(-9, 9).filter(lambda x: x != 0),
        st.sampled_from([1, 2, 6, 2**26 // 9 - 1, 2**26 + 1, 2**31 - 1, 2**31 + 5, 2**40]),
    ),
    min_size=1,
    max_size=12,
).map(sorted)


@given(route_sets, route_sets, st.integers(1, 9))
def test_windowed_counts_match_whole_triangle(A, B, cap):
    # a window cap of a few pairs makes every route cross many windows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(en, "WINDOW_PAIRS", cap)
        for X, Y in ((A, A), (A, B)):
            want = _whole_product_counts(X, Y)
            assert _windowed(en._product_windows(X, Y)) == (want[0].tolist(), want[1].tolist())
        # windows follow the fractions' values, which packed keys do not
        # sort by, so the keys are compared as a histogram; no key may recur
        bits = max(-A[0], A[-1], -B[0], B[-1]).bit_length()
        for S, (keys, counts) in zip((A, B), _windowed_keys([A, B], bits)):
            want_keys, want_counts = _whole_quotient_counts(S, bits)
            assert len(set(keys)) == len(keys)
            assert dict(zip(keys, counts)) == dict(zip(want_keys.tolist(), want_counts.tolist()))


def _recorded_windows(mp):
    """Patch en._windows to record every window (v, w, starts, stops) it yields."""
    seen = []
    real = en._windows

    def spy(families, cut, bottom, top):
        for win in real(families, cut, bottom, top):
            seen.append(win)
            yield win

    mp.setattr(en, "_windows", spy)
    return seen


@given(route_sets, route_sets, st.integers(1, 9))
def test_windows_partition_pairs_by_exact_value(A, B, cap):
    # every window holds exactly the pairs whose exact product, or exact cell
    # floor(|t_i/t_j| 2^bits), lies in [v, w), and every pair lies in one window
    bits = max(-A[0], A[-1], -B[0], B[-1]).bit_length()
    ts = [sorted(S, key=abs) for S in (A, B)]
    cases = [
        (lambda X=X, Y=Y: en._product_windows(X, Y),
         [{(i, j): X[i] * Y[j] for i in range(len(X)) for j in range(i if X == Y else 0, len(Y))}])
        for X, Y in ((A, A), (A, B))
    ] + [(lambda: en._quotient_windows([A, B], bits),
          [{(i, j): math.floor(Fraction(abs(t[i]), abs(t[j])) * 2**bits)
            for i in range(len(t)) for j in range(i + 1, len(t))} for t in ts])]
    for run, values in cases:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(en, "WINDOW_PAIRS", cap)
            seen = _recorded_windows(mp)
            for _ in run():
                pass
        got = []
        for v, w, starts, stops in seen:
            pairs = [(f, i, j) for f, (start, stop) in enumerate(zip(starts, stops))
                     for i in range(start.size) for j in range(start[i], stop[i])]
            want = [(f, i, j) for f, vals in enumerate(values) for (i, j), x in vals.items() if v <= x < w]
            assert sorted(pairs) == sorted(want)
            got += pairs
        assert sorted(got) == sorted((f, *p) for f, vals in enumerate(values) for p in vals)


def _straddling(scales):
    """Signed sets of small multiples k*s of the scales, with the negatives of
    up to two elements added, so antipodes and shared ratios occur."""
    elems = st.sets(
        st.builds(lambda k, s: k * s, st.integers(-4, 4).filter(lambda x: x != 0),
                  st.sampled_from(scales)),
        min_size=1,
        max_size=6,
    )
    return st.tuples(elems, st.integers(0, 2)).map(
        lambda t: sorted(t[0] | {-x for x in sorted(t[0])[: t[1]]})
    )


# magnitudes on both sides of each exactness guard: 2^26 (float keys), 2^31
# (packed int64 keys), 2^31.5 (int64 products past 2^62 or 2^63)
guard_sets = _straddling([1, 3, 2**26 - 1, 2**26, 2**31 - 1, 2**31, int(2**31.5) - 1,
                          int(2**31.5), 2**32 - 1, 2**32])


@given(guard_sets, guard_sets, st.integers(2, 4))
def test_kernel_exact_across_guards_in_small_windows(A, B, cap):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(en, "WINDOW_PAIRS", cap)
        assert energy(A).energy == energy_bruteforce(A)
        assert energy(A, B).energy == energy_bruteforce(A, B)
        assert product_set(A, B) == _product_merge(A, B)
        assert product_set(A, A) == _product_merge(A, A)
        rhs, ok = cs_energy_split(A, B)
        assert ok and rhs == math.sqrt(energy_bruteforce(A) * energy_bruteforce(B))


def test_cross_energy_key_match_peak():
    # the cross keys are matched by a search of A's keys in B's, with no merged copy
    A = list(range(7, 7 + 1000 * 2048, 1000))
    B = list(range(11, 11 + 999 * 2048, 999))
    tracemalloc.start()
    try:
        e = energy(A, B).energy
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e == 4194310  # as matched by np.intersect1d before
    assert peak < 128 * 1024 * 1024


def test_random_energy_subset_rejects_negative_seed():
    with pytest.raises(PreconditionError):
        random_energy_subset([1, 2, 3, 4], seed=-1)


def test_energy_at_float_key_bound():
    # max |s| = 2^26 - 1 keys the quotients on floats and 2^26 on reduced
    # fractions; the sets share every multiplicative relation, so they agree
    results = set()
    for top in (2**26 - 1, 2**26):
        A = [-top, -3, -1, 1, 3, top]
        B = [1, 3, 9, top]
        got = (energy(A).energy, energy(A, B).energy, cs_energy_split(A, B))
        assert got[:2] == (energy_bruteforce(A), energy_bruteforce(A, B))
        results.add(got)
    assert len(results) == 1
