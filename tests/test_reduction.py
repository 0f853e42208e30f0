import contextlib
import io
import math
import random
import tracemalloc
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import compress
from math import gcd
from operator import index

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from multable import cli
from multable.energy import (
    cs_energy_split,
    energy,
    energy_bruteforce,
    offdiag_tuples,
    product_set,
    random_energy_subset,
)
from multable.errors import BudgetError, InternalCheckError, PreconditionError
from multable.experiments import cmd_reduce
from multable.primestats import NkQuery, nk_set
from multable.progressions import ArithmeticProgression
from multable.progressions import ArithmeticProgression as AP
from multable.progressions import int_array
from multable.reduction import (
    EXTREMAL_FLAG_FACTOR,
    DirectBound,
    Reduced,
    ReductionStep,
    ReductionTrace,
    _hull_prefix,
    _square_class,
    large_a_energy_bound,
    reduce,
)
from multable.sieve import build_table, hull_table, progression_table
from test_progressions import dilate
from test_sieve import omega, square_part


def square_class(A, T):
    """``_square_class`` on the array of A, its arrays as lists."""
    B0, t, B = _square_class(int_array(A), T)
    return B0.tolist(), t, B.tolist()


def squarefree_core(A, delta):
    """Step 5 of ``reduce``: ``_square_class`` at T = ceil(3/delta), its arrays as lists."""
    return square_class(A, math.ceil(3 / Fraction(delta)))


# The list pipeline the array pipeline replaced, kept verbatim as the oracle
# for whole traces; only the names are prefixed.  Its sets are sorted lists.

IntSet = list[int]


def intset(values) -> IntSet:
    """Integers as a sorted, duplicate-free list of Python ints."""
    return sorted(set(map(index, values)))


def list_largest_square_class(A: IntSet, T: int) -> tuple[IntSet, int, IntSet]:
    """Largest class of A sharing one largest square divisor t^2 <= T^2.

    Returns (B0, t, B) with B = B0 / t^2 square-free; among equally large
    classes the smallest t wins.  Elements whose largest square divisor
    exceeds T^2 are discarded before classing.  Square divisors come from
    ``hull_table`` over A, then over B for its check, so A's hull must fit the
    ``sieve`` budget, or BudgetError (as for ``list_largest_square_class([2, 3, 2**30], 2)``).
    """
    A = intset(A)
    if not A or A[0] < 1 or A[-1] >= 2**63:
        raise PreconditionError("needs positive integers below 2^63")
    table, at = hull_table(A, factor_lists=False)
    sq = table.square_divisor_array[at]
    small = sq <= T * T
    if not small.any():
        raise PreconditionError(f"every element has a square divisor above T^2 = {T * T}")
    # np.unique sorts, so the first largest count belongs to the smallest t
    classes, counts = np.unique(sq[small], return_counts=True)
    best_sq = int(classes[np.argmax(counts)])
    B0 = list(compress(A, (sq == best_sq).tolist()))
    t = math.isqrt(best_sq)
    B = [x // best_sq for x in B0]
    table, at = hull_table(B, factor_lists=False)
    if np.any(table.square_divisor_array[at] != 1):
        raise InternalCheckError("divided class is not square-free")
    return B0, t, B



def list_squarefree_reduce(
    A: IntSet, ap: ArithmeticProgression, delta
) -> tuple[IntSet, int, IntSet]:
    """Extract the largest same-square-divisor class of A and divide it out.

    Returns (B0, t, B): B0 are the elements of A sharing largest square
    divisor t^2 with t <= ceil(3/delta), and B = B0 / t^2 is square-free.
    Requires the room hypothesis a + dL < (delta^2 / 9) L^2 and d <= L;
    under it |B0| >= delta^2 L / 18, which is re-checked exactly.
    """
    delta = Fraction(delta)
    A = intset(A)
    L = ap.L
    _list_check_subset(A, ap)
    if ap.a <= 0 or gcd(ap.a, ap.d) != 1:
        raise PreconditionError("requires a > 0 and gcd(a, d) = 1")
    if len(A) < delta * L:
        raise PreconditionError(f"|A| = {len(A)} below delta * L = {delta * L}")
    if ap.d > L:
        raise PreconditionError(f"needs d <= L, got d = {ap.d}, L = {L}")
    if ap.a + ap.d * L >= delta * delta / 9 * L * L:
        raise PreconditionError(
            f"a + dL = {ap.a + ap.d * L} not below (delta^2/9) L^2 = "
            f"{float(delta * delta / 9 * L * L):.4g}; route to the extremal bound instead"
        )

    T = math.ceil(Fraction(3) / delta)
    B0, t, B = list_largest_square_class(A, T)
    if 18 * len(B0) < delta * delta * L:
        raise InternalCheckError(
            f"pigeonhole class size {len(B0)} below delta^2 L / 18 = "
            f"{float(delta * delta * L / 18):.4g}"
        )
    return B0, t, B



def _list_check_subset(A: IntSet, ap: ArithmeticProgression) -> None:
    """PreconditionError unless the sorted set A is a nonempty subset of ap."""
    if not A or A[0] < ap.a or A[-1] > ap.last or any((x - ap.a) % ap.d for x in A):
        raise PreconditionError("A must be a nonempty subset of ap")



def _list_hull_prefix(B: IntSet, d: int) -> int:
    """Length of the longest prefix of the sorted set B (at least 1) whose
    hull B[0] + d*i, i < span, keeps B[0] > d*span."""
    return max(1, bisect_left(B, B[0] + d * (-(-B[0] // d) - 1)))



def list_reduce(A: IntSet, ap: ArithmeticProgression, delta) -> ReductionTrace:
    """Run the five-step pipeline on (A, ap) with density at least delta."""
    delta = Fraction(delta)
    A = intset(A)
    _list_check_subset(A, ap)
    if len(A) < delta * ap.L:
        raise PreconditionError(f"|A| = {len(A)} below delta * L = {float(delta * ap.L)}")

    trace = ReductionTrace()
    density = Fraction(len(A), ap.L)
    original = set(A)

    # Step 1: positivity, mirroring if fewer than 1/3 of elements are positive
    sign = 1
    note = ""
    if 3 * (len(A) - bisect_right(A, 0)) < len(A):
        sign = -1
        A = [-x for x in reversed(A)]
        ap = ap.negated()
        note = "mirrored to -A (fewer than 1/3 positive)"
    A1 = A[bisect_right(A, 0):]
    P1 = ap.positive_part()
    if not A1 or P1 is None:
        raise PreconditionError("no positive elements on either side")
    d1 = Fraction(len(A1), P1.L)
    trace.steps.append(ReductionStep("Positivity", density, d1, P1.L, note))
    if 3 * d1 <= delta:
        raise InternalCheckError("positivity step lost more than two thirds of density")

    # Step 2: divide out gcd(a, d)
    P2, g = P1.normalize_gcd()
    A2 = [x // g for x in A1]
    d2 = Fraction(len(A2), P2.L)
    trace.steps.append(ReductionStep("GcdNormalize", d1, d2, P2.L, f"g={g}"))

    def direct(subset_norm: IntSet, prog: ArithmeticProgression, why: str) -> ReductionTrace:
        bound = large_a_energy_bound(prog, subset_size=len(subset_norm))
        back = dilate(subset_norm, sign * g)
        if not set(back) <= original:
            raise InternalCheckError("bounded subset escapes the original set")
        trace.steps.append(
            ReductionStep("ExtremalCheck", trace.steps[-1].density_after,
                          trace.steps[-1].density_after, prog.L, why)
        )
        trace.outcome = DirectBound(subset=back, energy_value=bound)
        return trace

    # Step 3: dyadic block selection over indices 1..L-1
    if P2.L < 2:
        return direct(A2, P2, "singleton progression; universal bound")
    blocks = P2.dyadic_index_blocks()
    index = [(x - P2.a) // P2.d for x in A2]  # ascending, as A2 is
    cuts = [(bisect_left(index, lo), bisect_left(index, hi)) for _, lo, hi in blocks]
    counts = [j - i for i, j in cuts]
    lengths = [hi - lo for _, lo, hi in blocks]
    total = P2.L - 1
    # smallest t0 whose tail mass fits inside half the set's index mass
    tail = total
    t0 = 0
    while tail > d2 * total / 2 and t0 < len(blocks):
        tail -= lengths[t0]
        t0 += 1
    qualifying = [i for i in range(t0) if 2 * counts[i] >= d2 * lengths[i]]
    if not qualifying:
        return direct(A2, P2, "no dyadic block kept half density at this scale")
    t1 = max(qualifying, key=lambda i: (counts[i], -i))
    _, lo, hi = blocks[t1]
    P3 = ArithmeticProgression(P2.a + lo * P2.d, P2.d, hi - lo)
    first, end = cuts[t1]
    A3 = A2[first:end]
    d3 = Fraction(len(A3), P3.L)
    if 2 * d3 < d2:
        raise InternalCheckError("selected block density below half")
    if P3.a <= P3.d * P3.L:
        raise InternalCheckError("dyadic block lost the a > dL guarantee")
    trace.steps.append(
        ReductionStep("DyadicSelect", d2, d3, P3.L, f"t1={blocks[t1][0]}, indices [{lo},{hi})")
    )

    # Step 4: first term large enough for the universal bound to win outright
    threshold = P3.L * math.log(P3.L)
    band = ""
    if P3.L >= 3:
        half = 0.5 * P3.L * math.sqrt(math.log(P3.L))
        if half <= P3.a <= 2 * half:
            # the narrowing constant is ambiguous in this band; record it
            band = "; a between (1/2) L sqrt(log L) and L sqrt(log L)"
    if P3.a >= threshold:
        why = "a >= L log L; universal bound"
        if P3.a < EXTREMAL_FLAG_FACTOR * threshold:
            why += " (within factor 2 of threshold)"
        return direct(A3, P3, why + band)

    # Step 5: square-free core via the largest-square-divisor pigeonhole
    room = d3 * d3 / 9 * P3.L * P3.L
    if P3.a + P3.d * P3.L >= room or P3.d > P3.L:
        return direct(
            A3, P3,
            "square-free pigeonhole lacks room at this scale; universal bound",
        )
    B0, t, B = list_squarefree_reduce(A3, P3, d3)
    note5 = f"t={t}, |B0|={len(B0)}" + band
    keep = _list_hull_prefix(B, P3.d)
    if keep < len(B):
        note5 += f", trimmed {len(B) - keep} for the hull guarantee"
        B = B[:keep]
    span = (B[-1] - B[0]) // P3.d + 1
    P5 = ArithmeticProgression(B[0], P3.d, span)
    if P5.a <= P5.d * P5.L:
        return direct(A3, P3, "square-free hull too tight; universal bound")
    m = sign * g * t * t
    if not set(dilate(B, m)) <= original:
        raise InternalCheckError("dilated square-free core escapes the original set")
    d5 = Fraction(len(B), P5.L)
    trace.steps.append(ReductionStep("SquarefreeReduce", d3, d5, P5.L, note5))
    trace.outcome = Reduced(B=B, P_prime=P5, m=m)
    return trace


def test_large_a_bound_values():
    assert large_a_energy_bound(AP(1000, 1, 10)) == pytest.approx(
        200 + 4 * (1 + math.log(10)), rel=1e-12
    )
    ap = AP(10**6, 1, 100)
    bound = large_a_energy_bound(ap)
    assert bound == pytest.approx(20000 + 4 * (1 + math.log(100)), rel=1e-12)
    assert energy(ap.elements()).energy <= bound


def test_large_a_corollary_regime():
    # once a >= L log L the bound collapses to a constant multiple of L^2
    for L in (50, 200, 1000):
        a = math.ceil(L * math.log(L))
        assert large_a_energy_bound(AP(a, 1, L)) <= 10 * L * L


def test_large_a_precondition():
    with pytest.raises(PreconditionError):
        large_a_energy_bound(AP(4, 2, 3))


def test_largest_square_class_examples():
    assert square_class([8, 12, 18, 27, 50], 5) == ([8, 12], 2, [2, 3])
    A = [2, 3, 5, 7, 11]
    assert square_class(A, 3) == (A, 1, A)
    B0, t, B = square_class([4, 16, 36], 6)
    assert len(B0) == 1 and square_part(B[0]) == 1
    with pytest.raises(PreconditionError):  # past int64
        square_class([2**63 + 1], 2)


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
            square_class(A, T)
        return
    best = min(counts, key=lambda s: (-counts[s], s))
    B0 = [x for x in A if sq[x] == best]
    got = square_class(A, T)
    assert got == (B0, math.isqrt(best), [x // best for x in B0])
    assert repr(got) == repr(list_largest_square_class(A, T))  # Python ints, as the lists gave


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
    B0, t, B = squarefree_core(A, delta)
    assert 18 * len(B0) >= delta * delta * ap.L
    assert all(square_part(b) == 1 for b in B)
    assert set(dilate(B, t * t)) == set(B0) <= set(A)


def test_squarefree_reduce_squarefree_input():
    ap = AP(1, 1, 3000)
    A = [n for n in ap.elements() if square_part(n) == 1]
    B0, t, B = squarefree_core(A, Fraction(1, 2))
    assert t == 1 and B0 == B == A


def omega_cut(A, table, T) -> list[int]:
    """The elements of A with at most T distinct prime factors, read from
    the table's arrays as the omega-trim row of ``cmd_reduce`` counts them."""
    return [n for n, w in zip(A, table.omega_array[table.positions(A)].tolist()) if w <= T]


def test_omega_cut_on_table_arrays(table_1e6):
    A = list(range(1, 21))
    assert omega_cut(A, table_1e6, 2) == A
    assert omega_cut(A, table_1e6, 1) == [1, 2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19]
    assert omega_cut([30], table_1e6, 2) == []


def test_omega_cut_over_progression_table_matches_hull():
    rnd = random.Random(9)
    for _ in range(20):
        ap = AP(rnd.randrange(1, 10**5), rnd.choice([1, 2, 3, 6, 35]), rnd.randrange(1, 2000))
        A = sorted(rnd.sample(ap.elements(), rnd.randrange(0, ap.L + 1)))
        hull = build_table(ap.a, ap.last + 1, factor_lists=False)
        T = rnd.choice([0, 1, 2, 2.5, 3])
        want = [n for n in A if omega(hull, n) <= T]
        assert omega_cut(A, progression_table(ap, factor_lists=False), T) == want
        assert omega_cut(A, hull, T) == want
    with pytest.raises(PreconditionError):
        progression_table(AP(1, 2, 10)).positions([4])


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
    exact = energy(out.subset).energy
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
        exact = energy(sub).energy
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


def _outcome(f, *args) -> str:
    """repr of f's result, so types leak into the comparison, or its refusal."""
    try:
        return repr(f(*args))
    except (PreconditionError, InternalCheckError) as e:
        return f"{type(e).__name__}: {e}"


# first terms at the int64 edges: past 2^62 in magnitude the object path runs
_EDGE_STARTS = (2**31, 2**62 - 7, 2**62, 2**63 - 1, 2**63 + 1, 10**30, -(2**62), -(2**63) - 5)
# steps at and past the int64 edges: with L = 1 the set's ends stay small
_EDGE_STEPS = (2**62, 2**63, 10**30)


@st.composite
def _reduce_inputs(draw):
    """An unsorted subset of AP(a, d, L) and a density it meets: first terms
    small, straddling zero or negative (mirrored), large, or at the int64
    edges, a common factor g of a and d, and now and then a step past int64."""
    L = draw(st.integers(1, 500))
    g = draw(st.sampled_from((1, 1, 2, 6)))
    d = g * draw(st.one_of(st.integers(1, 6), st.sampled_from(_EDGE_STEPS)))
    a = g * draw(st.one_of(
        st.integers(1, 3 * L), st.integers(-2 * L, 10),
        st.integers(10**5, 10**7), st.sampled_from(_EDGE_STARTS),
    ))
    k = draw(st.integers(1, L))
    picks = random.Random(draw(st.integers(0, 2**32 - 1))).sample(range(L), k)
    delta = Fraction(k, L) / draw(st.sampled_from((1, 1, 2, 3)))
    return [a + d * i for i in picks], AP(a, d, L), delta


_TRACE_CASES = [
    (list(range(-20, -15)), AP(-20, 1, 5), 1),  # mirrored
    (AP(2, 2, 64).elements(), AP(2, 2, 64), 1),  # g = 2, Reduced
    (AP(1, 1, 4096).elements(), AP(1, 1, 4096), 1),  # Reduced at a larger L
    (AP(6, 4, 300).elements()[::3], AP(6, 4, 300), Fraction(1, 3)),
    (AP(2**31, 1, 300).elements(), AP(2**31, 1, 300), 1),
    (AP(2**62, 3, 40).elements()[::2], AP(2**62, 3, 40), Fraction(1, 2)),
    (AP(2**63 + 1, 2, 30).elements(), AP(2**63 + 1, 2, 30), 1),
    (AP(2**63 - 10, 5, 2).elements(), AP(2**63 - 10, 5, 2), 1),  # the block end passes 2^63
    (AP(-(2**63) - 100, 7, 30).elements(), AP(-(2**63) - 100, 7, 30), 1),  # mirrored objects
    (AP(6 * 10**30, 4, 50).elements(), AP(6 * 10**30, 4, 50), 1),
    ([1], AP(1, 2**63, 1), 1),  # a small set, its step past int64
    ([2**31], AP(2**31, 2**63, 1), 1),
]


@given(_reduce_inputs())
def test_reduce_matches_list_oracle(case):
    # whole traces: step names, densities, lengths, notes and outcome fields
    assert _outcome(reduce, *case) == _outcome(list_reduce, *case)


def test_reduce_matches_list_oracle_on_chosen_cases():
    for case in _TRACE_CASES:
        assert _outcome(reduce, *case) == _outcome(list_reduce, *case), case[1]
    # the cases cover both outcomes, mirroring, g > 1 and the object path
    traces = [reduce(*case) for case in _TRACE_CASES]
    assert {type(t.outcome) for t in traces} == {DirectBound, Reduced}
    assert any("mirrored" in t.steps[0].note for t in traces)
    assert any(t.steps[1].note != "g=1" for t in traces)
    assert any(int_array(A, ap.a, ap.last).dtype == object for A, ap, _ in _TRACE_CASES)


@pytest.mark.parametrize("x", [2**62, 2**63 - 1, 2**63, 10**30, -5, -(2**63), -(10**30)])
def test_refusals_at_the_int64_edge(x):
    # int64 conversion must never turn a refusal into an OverflowError or a wrap
    def refused(f, *args):
        with pytest.raises((BudgetError, PreconditionError)) as e:
            f(*args)
        return e.type

    big = BudgetError if x > 0 else PreconditionError
    assert refused(offdiag_tuples, sorted([1, 2, x])) is big
    assert refused(hull_table, sorted([5, x])) is big
    assert refused(square_class, sorted([2, x]), 2) is (big if x < 2**63 else PreconditionError)
    table = progression_table(AP(1, 1, 100), factor_lists=False)
    assert refused(table.positions, [x]) is PreconditionError
    assert refused(table.positions, [3, x]) is PreconditionError


def test_cmd_reduce_memory_bounded():
    # the set stays one array from the draw to the results: the list
    # pipeline peaked at 223 MiB traced here
    tracemalloc.start()
    try:
        cmd_reduce(3, 1, 2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 112 * 2**20


@pytest.mark.parametrize("a", [1, 2**31, 0, -1])
def test_reduce_with_a_step_past_int64(a):
    # the step joins the int64 guard: a one-element set of small numbers
    # still takes the object path, so (A - a) % d and a + d*i stay exact
    ap = AP(a, 2**63, 1)
    assert _outcome(reduce, [a], ap, 1) == _outcome(list_reduce, [a], ap, 1)
    if a:  # -1 is mirrored to 1; 0 has no positive side
        assert reduce([a], ap, 1).outcome.subset == [a]
    code = 0 if a else 2
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["reduce", str(a), str(2**63), "1"]) == code


@pytest.mark.parametrize("A", [[1.5, 2], [2.0, 3], ["1", "2"], [[1], [2]], np.array([2.0, 3.0]),
                               ["3"], np.array([2.0])])
def test_non_integer_elements_refused(A):
    # floats are not truncated, nor strings parsed, into a subset of ap or a set
    for f in (energy, energy_bruteforce, product_set, cs_energy_split):
        with pytest.raises(PreconditionError):
            f(A, [5])
        with pytest.raises(PreconditionError):
            f([5], A)
    for call in (lambda: offdiag_tuples(A), lambda: random_energy_subset(A, 0),
                 lambda: nk_set(NkQuery(0.0, 0.0, 1, elements=A), build_table(1, 10))):
        with pytest.raises(PreconditionError):
            call()
    with pytest.raises(PreconditionError):
        reduce(A, AP(1, 1, 3), Fraction(1, 3))
    with pytest.raises(PreconditionError):
        square_class(A, 2)
    with pytest.raises(PreconditionError):
        progression_table(AP(1, 1, 10), factor_lists=False).positions(A)


def test_reduce_trims_the_square_free_hull():
    # the n in [804, 1606] whose largest square divisor is exactly 4: the
    # class t = 2 divides to B in [201, 401], and its hull from B[0] = 201
    # keeps b < 201 + (201 - 1), so the largest, 401, is trimmed
    A = [n for n in range(804, 1607) if square_part(n) == 4]
    ap, delta = AP(1, 1, 1606), Fraction(122, 1606)
    trace = reduce(A, ap, delta)
    assert trace.steps[-1].note == "t=2, |B0|=122, trimmed 1 for the hull guarantee"
    assert isinstance(trace.outcome, Reduced) and trace.outcome.m == 4
    assert _outcome(reduce, A, ap, delta) == _outcome(list_reduce, A, ap, delta)
