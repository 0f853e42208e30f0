import itertools
import math
import random
import tracemalloc
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import multable.sieve as sieve
from multable.energy import offdiag_tuples
from multable.errors import BUDGETS, BudgetError, PreconditionError
from multable.progressions import ArithmeticProgression as AP
from multable.progressions import int_array
from multable.reduction import _square_class
from multable.sieve import (
    build_table,
    hull_table,
    mertens_sum,
    prime_flags,
    primes_upto,
    progression_table,
)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, the oracle for the sieves; exact for all n < 3.3e24."""
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


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by trial division up to sqrt(n).

    The remainder scan over the cached prime array is vectorized.  Trial
    primes come from ``primes_upto``, so its budget holds: n must be below
    about 2^48, and larger n raises ``BudgetError`` before anything is
    allocated.
    """
    if n < 1:
        raise PreconditionError("factorize needs n >= 1")
    if n == 1:
        return {}
    primes = primes_upto(isqrt(n))
    hits = primes[n % primes == 0]
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
    """Sorted list of all positive divisors of n; n below about 2^48, as for
    ``factorize``."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def square_part(n: int) -> int:
    """The largest square divisor of a single integer n >= 1."""
    return math.prod(p ** (2 * (e // 2)) for p, e in factorize(n).items())


def omega(t, n: int) -> int:
    """omega of the element n of table t, read at its position."""
    return int(t.omega_array[t.positions([n])[0]])


def square_divisor(t, n: int) -> int:
    """The largest square divisor of the element n of table t, read at its position."""
    return int(t.square_divisor_array[t.positions([n])[0]])


def large_square_count(ap, T: int) -> int:
    """How many elements of ap a square above T^2 divides, from its table."""
    return int((progression_table(ap, factor_lists=False).square_divisor_array > T * T).sum())


def test_build_small():
    t = build_table(1, 11)
    assert omega(t, 1) == 0
    assert omega(t, 6) == 2
    assert omega(t, 8) == 1
    assert t.prime_factors(10) == [2, 5]
    assert square_divisor(t, 10) == 1 and square_divisor(t, 8) == 4


def test_build_72():
    t = build_table(72, 73)
    assert square_divisor(t, 72) == 36
    assert t.prime_factors(72) == [2, 3]


def _check_against_trial_division(t, n):
    fac = factorize(n)
    assert t.prime_factors(n) == sorted(fac)
    assert omega(t, n) == len(fac)
    sq = math.prod(p ** (2 * (e // 2)) for p, e in fac.items())
    assert square_divisor(t, n) == sq
    assert (sq == 1) == all(e == 1 for e in fac.values())


def test_build_1e9_window_invariants():
    lo = 10**9
    t = build_table(lo, lo + 10**5)
    rnd = random.Random(7)
    samples = [rnd.randrange(lo, lo + 10**5) for _ in range(100)]
    for n in samples:
        pf = t.prime_factors(n)
        assert math.prod(pf) and n % math.prod(pf) == 0
        assert omega(t, n) == len(pf)
        d = square_divisor(t, n)
        assert d >= 1 and n % d == 0 and math.isqrt(d) ** 2 == d
        _check_against_trial_division(t, n)


def test_sieve_oracle_equivalence_1e12():
    rnd = random.Random(2024)
    for _ in range(1000):
        n = rnd.randrange(2, 10**12)
        t = build_table(n, n + 1)
        _check_against_trial_division(t, n)


# the primes on either side of the 2^10 split between strided and batched sieving
_BELOW_SPLIT, _ABOVE_SPLIT = 1021, 1031
# the largest hi whose sieving primes stay within budget
_TOP = (BUDGETS["sieve"] + 1) ** 2


@given(st.integers(1, 10**12), st.integers(1, 4096))
@example(1, 4096)
@example(_BELOW_SPLIT**2 - 700, 1200)
@example(_ABOVE_SPLIT**2 - 2, 4)
@example(_BELOW_SPLIT**3 - 1500, 2048)
@example(_ABOVE_SPLIT**3 - 1, 2)
@example(_BELOW_SPLIT**2 * _ABOVE_SPLIT**2 - 1, 1)
@example(2**39, 1)
@example(2**39 - 2000, 4096)
@example(_TOP - 4096, 4096)
def test_build_table_matches_factorization(lo, length):
    hi = lo + length
    t = build_table(lo, hi)
    _check_factor_lists(t, range(lo, hi))
    # a spread of elements against trial division
    for n in range(lo, hi, max(1, length // 16)):
        _check_against_trial_division(t, n)
    _check_against_trial_division(t, hi - 1)


def _check_factor_lists(t, values):
    # every element: the listed primes are prime, ascending, and divide n
    # out completely; omega and the square divisor follow from the exponents
    for n in values:
        pf = t.prime_factors(n)
        assert all(type(p) is int for p in pf)
        assert pf == sorted(set(pf)) and all(is_prime(p) for p in pf)
        m, sq = n, 1
        for p in pf:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            assert e >= 1
            sq *= p ** (2 * (e // 2))
        assert m == 1
        assert omega(t, n) == len(pf)
        assert square_divisor(t, n) == sq


# a times one of these is a multiple of a high prime power
_HIGH_POWERS = (1, 2**20, 3**12, 5**8, 7**6, 1031**2, 2**10 * 3**5)


@st.composite
def _table_progressions(draw):
    d = draw(st.integers(1, 30030))
    share = gcd(d, draw(st.sampled_from((1, 2, 6, 30, 1031, d))))  # divides a and d
    a = draw(st.integers(1, 10**4)) * draw(st.sampled_from(_HIGH_POWERS)) * share
    return AP(a, d, draw(st.integers(1, 3000)))


@given(_table_progressions(), st.booleans())
@example(AP(30030 * 2**20, 30030, 3000), True)  # every prime of d divides every element
@example(AP(2**20, 2**14, 3000), True)  # powers of 2 up to 2^14 divide every element
@example(AP(1031 * 7, 1031 * 29, 2000), True)  # a prime above 2^10 divides d and a
@example(AP(1031**2 * 5, 1031, 3000), False)
@example(AP(10**9 + 7, 30029, 1), True)
@example(AP(1, 1, 3000), True)
def test_progression_table_matches_hull_and_factorize(ap, factor_lists):
    t = progression_table(ap, factor_lists)
    assert (t.lo, t.d, t.hi) == (ap.a, ap.d if ap.L > 1 else 1, ap.a + t.d * ap.L)
    values = ap.elements()
    assert t.positions(values).tolist() == list(range(ap.L))
    if ap.last - ap.a < 1 << 16:  # the hull fits: the same rows as its table
        hull = build_table(ap.a, ap.last + 1, factor_lists)
        at = hull.positions(values)
        assert np.array_equal(t.omega_array, hull.omega_array[at])
        assert np.array_equal(t.square_divisor_array, hull.square_divisor_array[at])
        if factor_lists:
            assert all(t.prime_factors(n) == hull.prime_factors(n) for n in values)
    elif factor_lists:
        _check_factor_lists(t, values)
    for n in values[:: max(1, ap.L // 32)] + values[-1:]:
        if factor_lists:
            _check_against_trial_division(t, n)
        else:
            fac = factorize(n)
            assert omega(t, n) == len(fac)
            assert square_divisor(t, n) == math.prod(p ** (2 * (e // 2)) for p, e in fac.items())


def test_progression_table_lookups():
    t = progression_table(AP(7, 10, 5))  # 7, 17, 27, 37, 47
    assert t.positions([47, 7, 27]).tolist() == [4, 0, 2]
    assert t.prime_factors(27) == [3] and square_divisor(t, 27) == 9
    for bad in ([8], [57], [-3], [2**70], [7, 17, 18]):
        with pytest.raises(PreconditionError):
            t.positions(bad)
    # the caller's order, with repeats; floats and strings are not read as integers
    assert t.positions(np.array([47, 7, 47])).tolist() == [4, 0, 4]
    for bad in ([7.5], ["7"], np.array([7.0])):
        with pytest.raises(PreconditionError):
            t.positions(bad)
    for bad in (8, 57, -3):
        with pytest.raises(PreconditionError):
            omega(t, bad)
    with pytest.raises(PreconditionError):
        progression_table(AP(0, 3, 5))
    with pytest.raises(PreconditionError):
        progression_table(AP(7, 10, 5), factor_lists=False).prime_factors(7)


def test_factor_keys_clear_a_mersenne_sieving_prime():
    # the largest sieving prime is 8191 = 2^13 - 1: each element's cofactor
    # above the sieving primes must still land after them in its list
    lo = 8191**2
    t = progression_table(AP(lo, 1, 64))
    for n in range(lo, lo + 64):
        assert t.prime_factors(n) == list(factorize(n)), n


@pytest.mark.parametrize(
    "ap",
    [
        AP(1031 * 1033, 2 * 1031 * 1033, 500),  # 1031 and 1033 divide d and every element
        AP(1031 * 7, 1031 * 29, 2000),  # 1031 divides d and every element, batched primes above it
        AP(10**12, 1, 3000),  # several batched primes at one position
    ],
)
def test_factor_lists_ascend_across_small_batches(ap, monkeypatch):
    # batches of 64 pairs split the batched primes of one element across batches
    monkeypatch.setattr(sieve, "_PAIR_BATCH", 64)
    t = progression_table(ap)
    _check_factor_lists(t, ap.elements())
    flat, offsets = t.factor_arrays
    assert (t.omega_array.dtype, t.square_divisor_array.dtype) == (np.int16, np.int64)
    assert (flat.dtype, offsets.dtype) == (np.int64, np.int64)
    assert offsets[0] == 0 and offsets[-1] == flat.size == t.omega_array.sum()


def test_factor_lists_memory_bounded():
    # the lists are written in place: the traced peak stays near the four
    # arrays returned (41 MiB here) plus one int64 per element (8 MiB)
    primes_upto(1 << 10)  # the sieving primes, cached before tracing
    tracemalloc.start()
    try:
        t = build_table(1, 2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = (t.omega_array, t.square_divisor_array, *t.factor_arrays)
    assert peak <= 1.35 * sum(x.nbytes for x in arrays), f"traced peak {peak} bytes"


def test_progression_table_budget_counts_elements():
    # the hull [1, 1 + 1000 * 10^5) is six times the budget; 10^5 elements are not
    t = progression_table(AP(1, 1000, 10**5), factor_lists=False)
    assert omega(t, 1 + 1000 * 99999) == len(factorize(1 + 1000 * 99999))
    with pytest.raises(BudgetError):
        progression_table(AP(1, 1, BUDGETS["sieve"] + 1))
    with pytest.raises(BudgetError):
        progression_table(AP(_TOP, 1000, 10))


def test_prime_flags_agree_with_table():
    for lo, hi in ((1, 10**5), (10**12, 10**12 + (1 << 16))):
        t = build_table(lo, hi, factor_lists=False)
        want = (t.omega_array == 1) & (t.square_divisor_array == 1)
        assert np.array_equal(prime_flags(AP(lo, 1, hi - lo)), want)


@given(
    st.integers(-50, 10**12),
    st.integers(1, 5000),
    st.integers(1, 2000),
    st.integers(1, 6),
)
@example(3, 3, 5, 1)  # 3 divides a and d: only the element 3 is prime
@example(-50, 7, 2000, 1)  # elements below 2 first
@example(1, 1, 1, 1)
@example(2, 1, 1, 1)
@example(10**12 - 1, 2, 1, 1)  # one element, d irrelevant
@example(30, 4, 2000, 2)
def test_prime_flags_match_is_prime(a, d, L, g):
    # scaling d by g makes gcd(a, d) > 1 whenever g divides a
    a, d = a - a % g, d * g
    flags = prime_flags(AP(a, d, L))
    assert flags.tolist() == [is_prime(a + i * d) for i in range(L)]


def test_omega_multiplicative_on_coprime_pairs():
    rnd = random.Random(5)
    for _ in range(50):
        m = rnd.randrange(2, 2000)
        n = rnd.randrange(2, 2000)
        if math.gcd(m, n) != 1:
            continue
        t = build_table(m * n, m * n + 1)
        assert omega(t, m * n) == len(factorize(m)) + len(factorize(n))


def test_square_divisor_times_squarefree_part(table_1e6):
    t = table_1e6
    sq = t.square_divisor_array
    n = np.arange(1, 10**6 + 1, dtype=np.int64)
    assert np.all(n % sq == 0)
    parts = n // sq
    rnd = random.Random(11)
    for _ in range(200):
        i = rnd.randrange(0, 10**6)
        assert square_part(int(parts[i])) == 1


def test_hardy_ramanujan_fraction(table_1e6):
    om = table_1e6.omega_array[2:].astype(np.float64)  # n = 3 .. 10^6
    n = np.arange(3, 10**6 + 1, dtype=np.float64)
    ll = np.log(np.log(n))
    frac = np.mean(np.abs(om - ll) > 3.0 * np.sqrt(ll))
    assert frac < 0.05, f"observed fraction {frac}"


def test_count_large_square_divisible_examples():
    assert large_square_count(AP(1, 1, 100), 3) == 15
    assert large_square_count(AP(1, 1, 3), 1) == 0
    assert large_square_count(AP(2, 3, 5), 1) == 1


def test_count_large_square_divisible_bound_random():
    rnd = random.Random(3)
    done = 0
    while done < 50:
        a = rnd.randrange(1, 10**6)
        d = rnd.randrange(1, 50)
        if math.gcd(a, d) != 1:
            continue
        L = rnd.randrange(1, 400)
        T = rnd.randrange(1, 10)
        c = large_square_count(AP(a, d, L), T)
        assert c <= math.sqrt(a + d * L) + L / T
        done += 1


def test_count_large_square_divisible_matches_square_part():
    for a, d, L in itertools.product((1, 2, 97, 10**6 + 3), (1, 3, 10), (1, 50, 600)):
        if math.gcd(a, d) != 1:
            continue
        ap = AP(a, d, L)
        sq = [square_part(n) for n in ap.elements()]
        for T in (1, 2, 5, 30):
            c = large_square_count(ap, T)
            assert c == sum(s > T * T for s in sq), (ap, T)
            assert c <= math.sqrt(a + d * L) + L / T


def test_count_large_square_divisible_budget():
    with pytest.raises(BudgetError):
        large_square_count(AP(2**63 + 1, 1, 3), 2)
    with pytest.raises(BudgetError):
        large_square_count(AP(1, 1, BUDGETS["sieve"] + 1), 2)


def test_square_part_matches_factorization():
    # the oracle against its definition: the largest k^2 dividing n
    rnd = random.Random(17)
    grid = [*range(1, 200), *(rnd.randrange(1, 10**6) for _ in range(300)), 2**18 * 3**5, 997**2]
    for n in grid:
        want = max(k * k for k in range(1, isqrt(n) + 1) if n % (k * k) == 0)
        assert square_part(n) == want, n


def test_mertens_examples():
    assert mertens_sum(2) == 0.5
    assert abs(mertens_sum(10) - (0.5 + 1 / 3 + 0.2 + 1 / 7)) < 1e-15
    assert 0.20 <= mertens_sum(10**6) - math.log(math.log(10**6)) <= 0.30
    with pytest.raises(PreconditionError):
        mertens_sum(1)


def test_mertens_sum_has_the_bits_of_fsum():
    rnd = random.Random(41)
    grid = [*range(2, 2000), 2**24, *(rnd.randrange(2, 4 * 10**6) for _ in range(200))]
    for x in grid:
        assert mertens_sum(x) == math.fsum((1.0 / primes_upto(x)).tolist()), x


def test_prime_flags_interval():
    flags = prime_flags(AP(90, 1, 20))
    marked = [n for n in range(90, 110) if flags[n - 90]]
    assert marked == [97, 101, 103, 107, 109]
    low = prime_flags(AP(0, 1, 5))
    assert [n for n in range(5) if low[n]] == [2, 3]
    # far below 2, with a step far past the budget: nothing to sieve
    assert prime_flags(AP(-10**30, 10**25, 3)).tolist() == [False] * 3
    assert prime_flags(AP(-10**30, 10**30 + 3, 2)).tolist() == [False, True]


def _plain_sieve(limit):
    flags = [True] * (limit + 1)
    flags[:2] = [False] * min(2, limit + 1)
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(range(p * p, limit + 1, p))
    return [n for n in range(limit + 1) if flags[n]]


def test_primes_upto_matches_plain_sieve_in_any_order(monkeypatch):
    # start from a small cache, so the shuffled limits grow it step by step
    monkeypatch.setattr(sieve, "_prime_cache", (7, primes_upto(7)))
    limits = [0, 1, 2, 3, 10, 47, 48, 1000, 4096, 10**5, 200003, 3 * 10**5]
    random.Random(4).shuffle(limits)
    for limit in limits:
        got = primes_upto(limit)
        assert got.tolist() == _plain_sieve(limit)
        assert got.dtype == np.int64 and not got.flags.writeable


def test_primes_upto_sieves_each_bound_once(monkeypatch):
    # a limit between the largest cached prime and the cache's bound is served
    # from the cache, also at the budget, where the cache stops growing
    primes_upto(BUDGETS["sieve"])
    monkeypatch.setattr(sieve, "prime_flags", lambda ap: pytest.fail("sieved again"))
    assert primes_upto(BUDGETS["sieve"])[-1] == 16777213


def test_is_prime_against_sieve():
    flags = primes_upto(10**4)
    marks = set(flags.tolist())
    for n in range(2, 10**4):
        assert is_prime(n) == (n in marks)


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(97) == [1, 97]


def test_hull_table():
    # the step is the gcd of the gaps; a progression is its own hull
    t, at = hull_table([4, 16, 36])
    assert (t.lo, t.d, t.hi) == (4, 4, 40) and at.tolist() == [0, 3, 8]
    t, at = hull_table(AP(10**12 + 1, 997, 300).elements(), factor_lists=False)
    assert (t.lo, t.d, t.hi) == (10**12 + 1, 997, 10**12 + 1 + 997 * 300)
    assert at.tolist() == list(range(300))
    t, at = hull_table([2**40 + 15])
    assert t.prime_factors(2**40 + 15) == list(factorize(2**40 + 15)) and at.tolist() == [0]
    with pytest.raises(PreconditionError):
        hull_table([0, 3])


def test_hull_positions_match_table_positions():
    # hull_table reads each value's index off the hull it builds; the
    # range-checked lookup of the same values must agree
    rnd = random.Random(32)
    cases = [[7], [2**40 + 15], list(range(5, 60)), [6, 10, 22, 58], [30, 60, 150, 900]]
    for _ in range(200):
        step = rnd.choice([1, 2, 3, 6, 30, 997])
        start = step * rnd.randrange(1, 10**4) + rnd.choice([0, 1])  # sharing a factor with step or not
        idx = sorted(rnd.sample(range(2000), rnd.randrange(1, 40)))
        cases.append([start + step * i for i in idx])
    for values in cases:
        table, at = hull_table(values, factor_lists=False)
        assert at.dtype == np.int64 and at.tolist() == table.positions(values).tolist(), values


def test_hull_past_the_sieve_budget():
    # a few elements with a long hull: the hull, not the set, is sieved, so
    # the table's callers refuse before anything of its size is allocated
    with pytest.raises(BudgetError):
        hull_table([1, 2, 2**25])
    with pytest.raises(BudgetError):
        offdiag_tuples([1, 2, 2**25])
    with pytest.raises(BudgetError):
        _square_class(int_array([2, 3, 2**30]), 2)
    with pytest.raises(BudgetError):  # a short hull ending past about 2^48
        offdiag_tuples([2**50, 2**50 + 1])


def test_sparse_hull_cost_is_per_hull_number():
    # three values with a hull of 2^22 numbers: the cost hull_table declares
    # follows the hull, and stays below 48 traced bytes per hull number
    tracemalloc.start()
    try:
        _square_class(int_array([2, 3, 2**22 + 1]), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**22


def test_budget_errors():
    with pytest.raises(BudgetError):
        build_table(1, 2 + (1 << 24))
    # sieving primes past the sieve budget: refused before anything is allocated
    for lo in (_TOP, 1 << 50):
        with pytest.raises(BudgetError):
            build_table(lo, lo + 10)
        with pytest.raises(BudgetError):
            prime_flags(AP(lo, 1, 10))
    with pytest.raises(BudgetError):
        prime_flags(AP(1, 1, BUDGETS["sieve"] + 1))
    # the prime list stops at the budget, but a factorize root may reach it
    for f in (primes_upto, mertens_sum):
        with pytest.raises(BudgetError):
            f(BUDGETS["sieve"] + 1)
    assert factorize(BUDGETS["sieve"] ** 2) == {2: 48}
    with pytest.raises(PreconditionError):
        build_table(0, 5)
