import math
import random

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
from multable.progressions import dilate

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
        for X, Y in ((A, B), (A, A)):  # (A, A) takes the bitset's same-set triangle
            ref = product_set(X, Y, "hash")
            assert product_set(X, Y, "merge") == ref
            if X[0] >= 0 and Y[0] >= 0 and X[-1] * Y[-1] < (1 << 22):
                assert product_set(X, Y, "bitset") == ref


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
    for strategy in ("auto", "bitset", "hash", "merge"):
        assert product_set([0], [2**70], strategy) == [0]
        assert product_set([2**70], [0], strategy) == [0]
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
