import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multable.errors import PreconditionError
from multable.progressions import ArithmeticProgression as AP
from multable.progressions import exact_dtype, int_array


def dilate(s, m):
    """The sorted dilate {m*x : x in s}."""
    return sorted(m * x for x in s)


def test_elements_examples():
    assert AP(1, 1, 4).elements() == [1, 2, 3, 4]
    assert AP(5, 6, 5).elements() == [5, 11, 17, 23, 29]
    assert AP(-3, 2, 4).elements() == [-3, -1, 1, 3]


def test_elements_size_and_membership():
    ap = AP(7, 3, 10)
    assert len(ap.elements()) == 10
    assert all(x in ap for x in ap.elements())
    assert 8 not in ap


def test_positive_part():
    assert AP(-3, 2, 4).positive_part() == AP(1, 2, 2)
    assert AP(2, 3, 5).positive_part() == AP(2, 3, 5)
    assert AP(-10, 1, 3).positive_part() is None


def test_normalize_gcd_examples():
    assert AP(2, 2, 4).normalize_gcd() == (AP(1, 1, 4), 2)
    assert AP(3, 7, 4).normalize_gcd() == (AP(3, 7, 4), 1)
    assert AP(6, 9, 3).normalize_gcd() == (AP(2, 3, 3), 3)


def test_normalize_gcd_needs_positive():
    with pytest.raises(PreconditionError):
        AP(-4, 2, 3).normalize_gcd()


@given(st.integers(1, 10**6), st.integers(1, 10**4), st.integers(1, 200))
def test_normalize_roundtrip(a, d, L):
    ap = AP(a, d, L)
    reduced, g = ap.normalize_gcd()
    assert dilate(reduced.elements(), g) == ap.elements()


def test_dyadic_examples():
    assert AP(0, 1, 8).dyadic_index_blocks() == [(0, 4, 8), (1, 2, 4), (2, 1, 2)]
    assert AP(0, 1, 2).dyadic_index_blocks() == [(0, 1, 2)]
    assert AP(0, 1, 5).dyadic_index_blocks() == [(0, 3, 5), (1, 2, 3), (2, 1, 2)]


def test_dyadic_blocks_are_progressions():
    ap = AP(3, 4, 11)
    blocks = [AP(ap.a + lo * ap.d, ap.d, hi - lo) for _, lo, hi in ap.dyadic_index_blocks()]
    covered = sorted(x for b in blocks for x in b.elements())
    assert covered == ap.elements()[1:]


def test_dyadic_requires_L2():
    with pytest.raises(PreconditionError):
        AP(1, 1, 1).dyadic_index_blocks()


def test_dyadic_partition_exhaustive():
    # index ranges must tile {1, ..., L-1} exactly, for every L up to 10^4
    for L in range(2, 10**4 + 1):
        blocks = AP(0, 1, L).dyadic_index_blocks()
        assert blocks[0][2] == L
        for (_, lo_a, _), (_, _, hi_b) in zip(blocks, blocks[1:]):
            assert lo_a == hi_b
        assert blocks[-1][1] == 1
        # first-term dominance: a + lo*d > d * (hi - lo) whenever a >= 1
        for _, lo, hi in blocks:
            assert hi - lo <= lo


def test_intset_normalizes():
    # a set given in any order, with repeats, reads as its sorted elements
    assert int_array([3, 1, 2, 3, 1]).tolist() == [1, 2, 3]
    got = int_array(np.array([2**40, 3, 3])).tolist()
    assert got == [3, 2**40] and all(type(x) is int for x in got)
    for values in ([1.5], [2.0], ["3"], np.array([1.0]), 7):
        with pytest.raises(PreconditionError):
            int_array(values)


def test_bad_parameters():
    with pytest.raises(PreconditionError):
        AP(1, 0, 5)
    with pytest.raises(PreconditionError):
        AP(1, 1, 0)
    # numpy integers become Python ints, so last does not wrap past 2^63
    ap = AP(np.int64(2**62), np.int64(2**61), np.int64(3))
    assert ap.last == 2**63 and all(type(x) is int for x in (ap.a, ap.d, ap.L))
    for a, d, L in ((1.5, 1, 3), (1, 2.0, 3), (1, 1, "3")):
        with pytest.raises(PreconditionError):
            AP(a, d, L)


def test_int_array_guard():
    # int64 only while a sum or difference of two elements fits
    lim = 2**62
    A = int_array([5, 3, 5, -(lim - 1), lim - 1])
    assert A.dtype == np.int64 and A.tolist() == [-(lim - 1), 3, 5, lim - 1]
    for values in ([lim], [-lim], [2**63 - 1], [2**63], [-(2**63)], [3, 10**30]):
        A = int_array(values)
        assert A.dtype == object and A.tolist() == values and type(A[0]) is int
    assert int_array([1, 2], lim).dtype == object  # an end past the guard
    assert int_array([1, 2], -(lim - 1), lim - 1).dtype == np.int64
    assert int_array([]).dtype == np.int64
    A = np.arange(5)
    assert int_array(A) is not A and int_array(A).tolist() == A.tolist()
    assert int_array({3, 1, 2}).tolist() == [1, 2, 3]  # any iterable
    got = int_array(np.array([2**40, 3, 3])).tolist()
    assert got == [3, 2**40] and all(type(x) is int for x in got)
    A = int_array(np.array([2**63], dtype=np.uint64))
    assert A.dtype == object and type(A[0]) is int  # not an np.uint64 that wraps
    for values in ([1.5], [1.5, 2], [2.0], ["3"], np.array([1.0]), [[1, 2]], 7):
        with pytest.raises(PreconditionError):
            int_array(values)


def test_exact_dtype_edge():
    lim = 2**62
    assert exact_dtype() is np.int64
    assert exact_dtype(0, lim - 1, -(lim - 1), np.int64(lim - 1)) is np.int64
    for x in (lim, -lim, 2**63, 10**30):
        assert exact_dtype(1, x) is object


# first terms, steps and lengths that put the ends on both sides of 0 and past 2^62
_AP_STARTS = st.one_of(st.integers(-50, 50), st.integers(-(2**70), 2**70),
                       st.sampled_from((2**62 - 3, -(2**62) + 1, 2**63 - 1, -(2**63))))
_AP_STEPS = st.one_of(st.integers(1, 7), st.integers(1, 2**64), st.sampled_from((2**60, 2**62 - 1)))


@given(_AP_STARTS, _AP_STEPS, st.integers(1, 40), st.data())
def test_array_matches_elements(a, d, L, data):
    ap = AP(a, d, L)
    A = ap.array()
    assert A.tolist() == ap.elements() and all(type(x) is int for x in A.tolist())
    assert A.dtype == exact_dtype(ap.a, ap.last, ap.d)
    idx = sorted(data.draw(st.sets(st.integers(0, L - 1))))
    assert ap.array(idx).tolist() == A[idx].tolist()
    assert ap.array(np.array(idx, dtype=np.int64)).dtype == A.dtype


def test_array_edges():
    # np.arange(1, 2**61 + 2, 2**60) counts its length in floats and has 2 elements
    assert AP(1, 2**60, 3).array().tolist() == [1, 2**60 + 1, 2**61 + 1]
    A = AP(5, 2**63 + 1, 1).array()  # one element, its step past int64
    assert A.dtype == object and A.tolist() == [5]
    lim = 2**62
    # the dtype flips exactly where the first term, the last one or the step reaches 2^62
    for ap, dtype in (
        (AP(lim - 1, 1, 1), np.int64), (AP(lim, 1, 1), object),
        (AP(-(lim - 1), 1, 1), np.int64), (AP(-lim, 1, 1), object),
        (AP(lim - 3, 1, 3), np.int64), (AP(lim - 3, 1, 4), object),
        (AP(0, lim - 1, 1), np.int64), (AP(0, lim, 1), object),
    ):
        assert ap.array().dtype == dtype and ap.array().tolist() == ap.elements(), ap
