import math
import random

import numpy as np
import pytest

from multable.errors import BudgetError, PreconditionError
from multable.progressions import ArithmeticProgression as AP
from multable.sieve import (
    build_table,
    count_large_square_divisible,
    divisors,
    factorize,
    is_prime,
    mertens_sum,
    prime_flags_interval,
    sieve_primes,
    square_part,
)


def test_build_small():
    t = build_table(1, 11)
    assert t.omega(1) == 0
    assert t.omega(6) == 2
    assert t.omega(8) == 1
    assert t.prime_factors(10) == [2, 5]
    assert t.is_squarefree(10) and not t.is_squarefree(8)


def test_build_72():
    t = build_table(72, 73)
    assert t.largest_square_divisor(72) == 36
    assert t.prime_factors(72) == [2, 3]


def _check_against_trial_division(t, n):
    fac = factorize(n)
    assert t.prime_factors(n) == sorted(fac)
    assert t.omega(n) == len(fac)
    sq = math.prod(p ** (2 * (e // 2)) for p, e in fac.items())
    assert t.largest_square_divisor(n) == sq
    assert t.is_squarefree(n) == all(e == 1 for e in fac.values())


def test_build_1e9_window_invariants():
    lo = 10**9
    t = build_table(lo, lo + 10**5)
    rnd = random.Random(7)
    samples = [rnd.randrange(lo, lo + 10**5) for _ in range(100)]
    for n in samples:
        pf = t.prime_factors(n)
        assert math.prod(pf) and n % math.prod(pf) == 0
        assert t.omega(n) == len(pf)
        d = t.largest_square_divisor(n)
        assert d >= 1 and n % d == 0 and math.isqrt(d) ** 2 == d
        _check_against_trial_division(t, n)


def test_sieve_oracle_equivalence_1e12():
    rnd = random.Random(2024)
    for _ in range(1000):
        n = rnd.randrange(2, 10**12)
        t = build_table(n, n + 1)
        _check_against_trial_division(t, n)


def test_omega_multiplicative_on_coprime_pairs():
    rnd = random.Random(5)
    for _ in range(50):
        m = rnd.randrange(2, 2000)
        n = rnd.randrange(2, 2000)
        if math.gcd(m, n) != 1:
            continue
        t = build_table(m * n, m * n + 1)
        assert t.omega(m * n) == len(factorize(m)) + len(factorize(n))


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
    assert count_large_square_divisible(AP(1, 1, 100), 3) == 15
    assert count_large_square_divisible(AP(1, 1, 3), 1) == 0
    assert count_large_square_divisible(AP(2, 3, 5), 1) == 1


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
        c = count_large_square_divisible(AP(a, d, L), T)
        assert c <= math.sqrt(a + d * L) + L / T
        done += 1


def test_square_part_matches_factorization():
    rnd = random.Random(17)
    for _ in range(300):
        n = rnd.randrange(1, 10**10)
        want = math.prod(p ** (2 * (e // 2)) for p, e in factorize(n).items())
        assert square_part(n) == want


def test_mertens_examples():
    assert mertens_sum(2) == 0.5
    assert abs(mertens_sum(10) - (0.5 + 1 / 3 + 0.2 + 1 / 7)) < 1e-15
    assert 0.20 <= mertens_sum(10**6) - math.log(math.log(10**6)) <= 0.30
    with pytest.raises(PreconditionError):
        mertens_sum(1)


def test_prime_flags_interval():
    flags = prime_flags_interval(90, 110)
    marked = [n for n in range(90, 110) if flags[n - 90]]
    assert marked == [97, 101, 103, 107, 109]
    low = prime_flags_interval(0, 5)
    assert [n for n in range(5) if low[n]] == [2, 3]


def test_is_prime_against_sieve():
    flags = sieve_primes(10**4)
    marks = set(flags.tolist())
    for n in range(2, 10**4):
        assert is_prime(n) == (n in marks)


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(97) == [1, 97]


def test_budget_errors():
    with pytest.raises(BudgetError):
        build_table(1, 2 + (1 << 24))
    with pytest.raises(PreconditionError):
        build_table(0, 5)
