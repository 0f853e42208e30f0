import math
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from multable.energy import energy
from multable.errors import InternalCheckError, PreconditionError
from multable.progressions import ArithmeticProgression as AP
from multable.progressions import dilate
from multable.reduction import (
    DirectBound,
    Reduced,
    _hull_prefix,
    large_a_energy_bound,
    largest_square_class,
    reduce,
    squarefree_reduce,
    trimmed_set,
)
from multable.sieve import build_table, progression_table
from test_sieve import square_part


def test_large_a_bound_values():
    assert large_a_energy_bound(AP(1000, 1, 10)) == pytest.approx(
        200 + 4 * (1 + math.log(10)), rel=1e-12
    )
    ap = AP(10**6, 1, 100)
    bound = large_a_energy_bound(ap)
    assert bound == pytest.approx(20000 + 4 * (1 + math.log(100)), rel=1e-12)
    assert energy(ap.elements(), with_histogram=False).energy <= bound


def test_large_a_corollary_regime():
    # once a >= L log L the bound collapses to a constant multiple of L^2
    for L in (50, 200, 1000):
        a = math.ceil(L * math.log(L))
        assert large_a_energy_bound(AP(a, 1, L)) <= 10 * L * L


def test_large_a_precondition():
    with pytest.raises(PreconditionError):
        large_a_energy_bound(AP(4, 2, 3))


def test_largest_square_class_examples():
    assert largest_square_class([8, 12, 18, 27, 50], 5) == ([8, 12], 2, [2, 3])
    A = [2, 3, 5, 7, 11]
    assert largest_square_class(A, 3) == (A, 1, A)
    B0, t, B = largest_square_class([4, 16, 36], 6)
    assert len(B0) == 1 and square_part(B[0]) == 1
    with pytest.raises(PreconditionError):  # past int64
        largest_square_class([2**63 + 1], 2)


@st.composite
def _progression_subsets(draw):
    """A subset of AP(a, d, L) with gcd(a, d) = 1 whose elements all share the
    square m, so its hull step is a multiple of d m, and for m > 1 the
    class t > 1 usually wins."""
    m = draw(st.sampled_from((1, 4, 9, 25)))
    d = draw(st.integers(1, 200).filter(lambda d: gcd(d, m) == 1))
    a = draw(st.integers(1, 10**9).filter(lambda a: gcd(a, d) == 1))
    first = -a * pow(d, -1, m) % m
    picks = draw(st.sets(st.integers(0, 300), min_size=1, max_size=40))
    return sorted(a + d * (first + m * j) for j in picks)


@given(_progression_subsets(), st.integers(1, 30))
@example([4, 16, 28, 40, 52], 5)  # of AP(1, 3, 18): step 12, t = 2
@example([2, 8, 18, 50], 1)  # t = 1 only: the square-free 2
def test_largest_square_class_matches_square_part(A, T):
    sq = {x: square_part(x) for x in A}
    counts = Counter(s for s in sq.values() if s <= T * T)
    if not counts:
        with pytest.raises(PreconditionError):
            largest_square_class(A, T)
        return
    best = min(counts, key=lambda s: (-counts[s], s))
    B0 = [x for x in A if sq[x] == best]
    assert largest_square_class(A, T) == (B0, math.isqrt(best), [x // best for x in B0])


def _hull_prefix_by_trimming(B, d):
    """The hull trim as a loop: drop the last element while B[0] <= d * span."""
    while len(B) > 1 and B[0] <= d * ((B[-1] - B[0]) // d + 1):
        B = B[:-1]
    return len(B)


def test_hull_prefix_matches_trimming_loop():
    rnd = random.Random(8)
    for _ in range(2000):
        d = rnd.randrange(1, 12)
        top = rnd.choice([10, 100, 1000])
        B = sorted(rnd.sample(range(1, top * d), rnd.randrange(1, top)))
        assert _hull_prefix(B, d) == _hull_prefix_by_trimming(B, d), (B, d)


def test_squarefree_reduce_valid_instance():
    rnd = random.Random(0)
    ap = AP(1, 1, 2000)
    A = sorted(rnd.sample(ap.elements(), 900))
    delta = Fraction(9, 20)
    B0, t, B = squarefree_reduce(A, ap, delta)
    assert 18 * len(B0) >= delta * delta * ap.L
    assert all(square_part(b) == 1 for b in B)
    assert set(dilate(B, t * t)) == set(B0) <= set(A)


def test_squarefree_reduce_squarefree_input():
    ap = AP(1, 1, 3000)
    A = [n for n in ap.elements() if square_part(n) == 1]
    B0, t, B = squarefree_reduce(A, ap, Fraction(1, 2))
    assert t == 1 and B0 == B == A


def test_squarefree_reduce_hypothesis_error():
    ap = AP(10**6, 1, 50)
    with pytest.raises(PreconditionError):
        squarefree_reduce(ap.elements(), ap, 1)


def test_trimmed_set(table_1e6):
    A = list(range(1, 21))
    assert trimmed_set(A, table_1e6, 2) == A
    assert trimmed_set(A, table_1e6, 1) == [1, 2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19]
    assert trimmed_set([30], table_1e6, 2) == []


def test_trimmed_set_over_progression_table_matches_hull():
    rnd = random.Random(9)
    for _ in range(20):
        ap = AP(rnd.randrange(1, 10**5), rnd.choice([1, 2, 3, 6, 35]), rnd.randrange(1, 2000))
        A = sorted(rnd.sample(ap.elements(), rnd.randrange(0, ap.L + 1)))
        hull = build_table(ap.a, ap.last + 1, factor_lists=False)
        T = rnd.choice([0, 1, 2, 2.5, 3])
        want = [n for n in A if hull.omega(n) <= T]
        assert trimmed_set(A, progression_table(ap, factor_lists=False), T) == want
        assert trimmed_set(A, hull, T) == want
    with pytest.raises(PreconditionError):
        trimmed_set([4], progression_table(AP(1, 2, 10)), 2)


def test_reduce_even_progression():
    ap = AP(2, 2, 64)
    trace = reduce(ap.elements(), ap, 1)
    names = [s.step for s in trace.steps]
    assert names[:3] == ["Positivity", "GcdNormalize", "DyadicSelect"]
    gcd_step = trace.steps[1]
    assert "g=2" in gcd_step.note
    dy = trace.steps[2]
    assert "[32,64)" in dy.note
    assert isinstance(trace.outcome, Reduced)
    out = trace.outcome
    assert set(dilate(out.B, out.m)) <= set(ap.elements())
    assert all(square_part(b) == 1 for b in out.B)
    assert set(out.B) <= set(out.P_prime.elements())
    assert out.P_prime.a > out.P_prime.d * out.P_prime.L


def test_reduce_large_first_term_direct_bound():
    ap = AP(10**9, 1, 100)
    trace = reduce(ap.elements(), ap, 1)
    assert isinstance(trace.outcome, DirectBound)
    out = trace.outcome
    assert set(out.subset) <= set(ap.elements())
    exact = energy(out.subset, with_histogram=False).energy
    assert exact <= out.energy_value


def test_reduce_all_negative_flips():
    ap = AP(-20, 1, 5)
    trace = reduce(ap.elements(), ap, 1)
    assert "mirrored" in trace.steps[0].note
    assert trace.outcome is not None


def test_reduce_rejects_sparse_subset():
    ap = AP(1, 1, 100)
    with pytest.raises(PreconditionError):
        reduce([1, 2, 3], ap, Fraction(1, 2))
    ap = AP(3, 4, 10)  # 3, 7, ..., 39: empty, below, above, off the residue class
    for bad in ([], [-1, 3], [3, 43], [3, 8]):
        with pytest.raises(PreconditionError):
            reduce(bad, ap, Fraction(1, 10))


def _trace_invariants(trace, A, ap, delta):
    last_len = ap.L
    for s in trace.steps:
        assert 0 < s.density_after <= 1
        assert 1 <= s.length_after <= last_len
        last_len = s.length_after
    assert trace.outcome is not None
    if isinstance(trace.outcome, DirectBound):
        sub = trace.outcome.subset
        assert set(sub) <= set(A)
        exact = energy(sub, with_histogram=False).energy
        assert exact <= trace.outcome.energy_value
    else:
        out = trace.outcome
        assert set(dilate(out.B, out.m)) <= set(A)
        assert all(square_part(b) == 1 for b in out.B)
        assert set(out.B) <= set(out.P_prime.elements())
        p = out.P_prime
        assert math.gcd(p.a, p.d) == 1
        assert p.a > p.d * p.L


def test_reduce_random_instances():
    rnd = random.Random(42)
    reduced_seen = 0
    for delta in (Fraction(3, 10), Fraction(1, 2), Fraction(1, 1)):
        for _ in range(12):
            d = rnd.choice([1, 1, 2, 3, 5])
            L = rnd.randrange(40, 400)
            style = rnd.randrange(3)
            if style == 0:
                a = rnd.randrange(1, 10)
            elif style == 1:
                a = rnd.randrange(1, 4 * L)
            else:
                a = rnd.randrange(10**6, 10**7)
            a -= (L - 1) * d * (rnd.random() < 0.3)  # sometimes straddle zero
            ap = AP(a, d, L)
            elems = ap.elements()
            take = max(1, math.ceil(delta * L))
            A = sorted(rnd.sample(elems, take))
            if 0 in A and len(A) == 1:
                continue
            trace = reduce(A, ap, delta)
            _trace_invariants(trace, A, ap, delta)
            reduced_seen += isinstance(trace.outcome, Reduced)
    assert reduced_seen >= 1  # both outcome kinds must be exercised


def test_reduce_reaches_squarefree_core():
    # large dense instance with tiny first term: the pigeonhole has room
    ap = AP(1, 1, 4096)
    trace = reduce(ap.elements(), ap, 1)
    assert isinstance(trace.outcome, Reduced)
    sq_step = [s for s in trace.steps if s.step == "SquarefreeReduce"]
    assert sq_step and trace.outcome.m == 1
