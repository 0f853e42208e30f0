import itertools
import math
import random

import numpy as np
import pytest

from multable.errors import BUDGETS, BudgetError, InternalCheckError, PreconditionError
from multable.progressions import ArithmeticProgression as AP
from multable.primestats import (
    NkQuery,
    ShiuQuery,
    _admissible_tuples,
    nk_last_prime_extension,
    nk_set,
    prime_count_ap,
    shiu_mean,
    totient,
)
from multable.sieve import build_table, primes_upto, progression_table
from test_sieve import factorize, is_prime, omega, square_divisor

LOG4 = math.log(4)


def reciprocal_sum(x, k, d, beta, alpha):
    """Sum of 1/(p_1 ... p_k) over the tuples the admissible-prime walk of
    ``nk --witness`` visits: ascending primes not dividing d with product < x
    and log log p_j >= alpha*j - beta."""
    terms = []
    _admissible_tuples(k, d, alpha, beta, x, lambda prod, _: terms.append(1.0 / prod))
    return math.fsum(terms)


def _nk_oracle(values, alpha, beta, k):
    """Independent filter: per-element trial division, no sieve table."""
    out = []
    for n in values:
        if n < 1:
            continue
        fac = factorize(n)
        if len(fac) != k or any(e > 1 for e in fac.values()):
            continue
        primes = sorted(fac)
        if all(math.log(math.log(p)) >= alpha * (j + 1) - beta for j, p in enumerate(primes)):
            out.append(n)
    return out


def test_nk_examples(table_1e6):
    dom = tuple(range(1, 31))
    assert nk_set(NkQuery(0.0, 0.0, 2, elements=dom), table_1e6) == [15, 21]
    assert nk_set(NkQuery(0.0, 0.0, 0, elements=tuple(range(1, 6))), table_1e6) == [1]
    assert nk_set(NkQuery(LOG4, 10.0, 1, elements=tuple(range(1, 11))), table_1e6) == [2, 3, 5, 7]


def test_nk_matches_oracle_random(table_1e6):
    rnd = random.Random(8)
    for _ in range(25):
        lo = rnd.randrange(1, 10**6 - 3000)
        vals = tuple(range(lo, lo + rnd.randrange(200, 2000)))
        alpha = rnd.choice([0.0, 0.3, LOG4])
        beta = rnd.choice([0.0, 1.0, 5.0])
        k = rnd.randrange(0, 5)
        q = NkQuery(alpha, beta, k, elements=vals)
        assert nk_set(q, table_1e6) == _nk_oracle(vals, alpha, beta, k)


def _nk_per_member(q, table):
    """nk_set one member at a time, through the scalar table lookups."""
    out = []
    for n in q.domain():
        if n >= 1 and square_divisor(table, n) == 1 and omega(table, n) == q.k:
            pf = table.prime_factors(n)
            if all(math.log(math.log(p)) >= q.alpha * (j + 1) - q.beta for j, p in enumerate(pf)):
                out.append(n)
    return out


def test_nk_set_matches_per_member_loop(table_1e6):
    rnd = random.Random(12)
    for _ in range(60):
        d = rnd.choice([1, 2, 3, 7, 30, 210, 1000, rnd.randrange(1, 3000)])
        L = rnd.randrange(1, 4000)
        ap = AP(rnd.randrange(-5 * d, 10**6), d, L)
        if ap.last < 1:
            continue
        k = rnd.randrange(0, 5)
        # alpha = 0 puts every bound on -beta = log log p0 exactly, for a prime
        # p0 that may divide a member: the comparison is on equal floats
        p0 = rnd.choice([2, 3, 5, 7, 11, 13, 101])
        alpha, beta = rnd.choice([(0.0, 0.0), (0.3, 1.0), (LOG4, 5.0), (0.0, -math.log(math.log(p0)))])
        q = NkQuery(alpha, beta, k, ap=ap)
        table = progression_table(ap.positive_part())
        want = _nk_per_member(q, table)
        assert nk_set(q, table) == want
        if ap.last <= 10**6:
            assert nk_set(q, table_1e6) == want
            explicit = NkQuery(alpha, beta, k, elements=tuple(rnd.sample(ap.elements(), min(L, 50))))
            assert nk_set(explicit, table_1e6) == _nk_per_member(explicit, table_1e6)


def test_nk_set_rejects_uncovered_domain(table_1e6):
    with pytest.raises(PreconditionError):
        nk_set(NkQuery(0.0, 0.0, 1, ap=AP(10**6 - 5, 1, 10)), table_1e6)
    table = progression_table(AP(1, 2, 100))  # odd numbers only
    with pytest.raises(PreconditionError):
        nk_set(NkQuery(0.0, 0.0, 1, elements=(3, 4)), table)
    with pytest.raises(PreconditionError):
        nk_set(NkQuery(0.0, 0.0, 1, ap=AP(1, 3, 50)), table)
    assert nk_set(NkQuery(0.0, 0.0, 1, ap=AP(-9, 2, 5)), table) == []


def test_nk_monotonicity(table_1e6):
    dom = tuple(range(1, 20000))
    base = set(nk_set(NkQuery(0.5, 1.0, 3, elements=dom), table_1e6))
    wider = set(nk_set(NkQuery(0.5, 2.0, 3, elements=dom), table_1e6))
    tighter = set(nk_set(NkQuery(0.8, 1.0, 3, elements=dom), table_1e6))
    assert base <= wider
    assert tighter <= base


def test_prime_count_examples():
    assert prime_count_ap(AP(5, 6, 5)) == 5
    assert prime_count_ap(AP(4, 2, 3)) == 0
    assert prime_count_ap(AP(1, 1, 10)) == 4
    assert prime_count_ap(AP(-10, 1, 5)) == 0


def test_prime_count_matches_trial_division():
    rnd = random.Random(13)
    for _ in range(100):
        a = rnd.randrange(1, 10**9)
        d = rnd.randrange(1, 100)
        L = rnd.randrange(1, 300)
        got = prime_count_ap(AP(a, d, L))
        want = sum(1 for i in range(L) if a + i * d >= 2 and is_prime(a + i * d))
        assert got == want


def test_prime_count_ap_sieves_elements_not_hull():
    # the hull of this progression holds about 10^8 numbers, past the sieve budget
    assert prime_count_ap(AP(1, 1000, 10**5)) == 14433


def test_prime_count_density_floor_cell():
    L, d = 10**4, 3
    a = 200003  # in (dL, 10 L sqrt(log L)), gcd(a, 3) = 1
    count = prime_count_ap(AP(a, d, L))
    assert count >= d * L / (2 * totient(d) * math.log(L))


def test_reciprocal_sum_examples():
    assert reciprocal_sum(10, 1, 1, 100.0, 0.0) == pytest.approx(
        1 / 2 + 1 / 3 + 1 / 5 + 1 / 7
    )
    assert reciprocal_sum(10, 1, 6, 100.0, 0.0) == pytest.approx(1 / 5 + 1 / 7)
    assert reciprocal_sum(10, 0, 1, 100.0, 0.0) == 1.0


def test_reciprocal_sum_constrained_matches_enumeration():
    # brute force over all k-subsets of the primes below x
    x = 500
    for (alpha, beta), d, k in itertools.product(((LOG4, 2.0), (0.3, 1.0)), (1, 6), range(4)):
        primes = [p for p in primes_upto(x).tolist() if d % p]
        want = 0.0
        for tup in itertools.combinations(primes, k):
            if math.prod(tup) < x and all(
                math.log(math.log(p)) >= alpha * j - beta for j, p in enumerate(tup, 1)
            ):
                want += 1.0 / math.prod(tup)
        assert reciprocal_sum(x, k, d, beta, alpha) == pytest.approx(want, rel=1e-12), (alpha, d, k)


def test_tuple_walks_share_the_node_budget(monkeypatch, table_1e6):
    monkeypatch.setitem(BUDGETS, "dfs_nodes", 5)
    with pytest.raises(BudgetError):
        reciprocal_sum(1000, 2, 1, 100.0, 0.0)
    q = NkQuery(0.0, 100.0, 3, ap=AP(900, 1, 400))
    with pytest.raises(BudgetError):
        nk_last_prime_extension(q, len(nk_set(q, table_1e6)))


def test_shiu_examples():
    exact, bound = shiu_mean(ShiuQuery(11, 10, 1, 0, 2.0))
    assert exact == 23.0
    assert bound > 0
    exact1, _ = shiu_mean(ShiuQuery(10**4, 5000, 1, 0, 1.0))
    assert exact1 == 5000.0  # z = 1 counts the window
    exact3, bound3 = shiu_mean(ShiuQuery(10**4, 5000, 3, 1, 1.0))
    assert exact3 == len(range(10**4 - 5000 + 3, 10**4, 3))  # n = 1 mod 3 count
    assert 0 < exact3 / bound3
    # gcd(+-1, 0) = 1, but the progression needs a modulus k >= 1
    for k, a in ((0, 1), (0, -1), (-3, 1)):
        with pytest.raises(PreconditionError):
            ShiuQuery(100, 50, k, a, 1.0)


def test_queries_take_integers_only():
    # a float would reach range() as a TypeError, or run as a float modulus
    for args in ((10**4 + 0.5, 5000, 1, 0), (10**4, 5000.0, 1, 0), (10**4, 5000, 1.0, 0),
                 (10**4, 5000, 3, "1")):
        with pytest.raises(PreconditionError):
            ShiuQuery(*args, 1.0)
    q = ShiuQuery(np.int64(10**4), 5000, 3, np.int64(1), 1.0)
    assert all(type(v) is int for v in (q.x, q.y, q.k, q.a))
    assert shiu_mean(q) == shiu_mean(ShiuQuery(10**4, 5000, 3, 1, 1.0))
    for k in (2.0, 2.5, "2"):
        with pytest.raises(PreconditionError):
            NkQuery(0.0, 0.0, k, elements=(6, 10))
    assert type(NkQuery(0.0, 0.0, np.int64(2), elements=(6, 10)).k) is int


def test_nk_query_hashes_and_compares_by_its_set():
    # elements is stored as a sorted tuple of Python ints, whatever the caller
    # passed: a list was unhashable, and == on two ndarrays was ambiguous
    q = NkQuery(0.0, 1.0, 2, elements=[6, 10, 15])
    assert q.elements == (6, 10, 15) and all(type(v) is int for v in q.elements)
    assert hash(q) == hash(NkQuery(0.0, 1.0, 2, elements=(6, 10, 15)))
    a = NkQuery(0.0, 1.0, 2, elements=np.array([6, 10, 15]))
    b = NkQuery(0.0, 1.0, 2, elements=np.array([15, 10, 6, 10]))
    assert a == b == q and hash(a) == hash(b)
    assert a != NkQuery(0.0, 1.0, 2, elements=[6, 10])
    assert len({a, b, q}) == 1
    assert NkQuery(0.0, 1.0, 2, elements=[2**70, 3]).elements == (3, 2**70)
    for bad in ([6, 10.5], ["6"], np.array([6.0])):
        with pytest.raises(PreconditionError):
            NkQuery(0.0, 1.0, 2, elements=bad)


def _shiu_exact_over_hull(q):
    """The exact window sum read from a table over all of [x - y, x)."""
    lo = max(q.x - q.y, 1)
    table = build_table(lo, q.x, factor_lists=False)
    first = lo + (q.a - lo) % q.k
    return math.fsum(q.z ** w for w in table.omega_array[first - lo :: q.k].tolist())


def test_shiu_matches_hull_table():
    rnd = random.Random(5)
    for _ in range(12):
        x = rnd.randrange(10**3, 3 * 10**5)
        y = rnd.randrange(math.isqrt(x) + 1, x + 1)
        k = rnd.choice([k for k in (1, 2, 3, 5, 7, 30) if k * k < y])
        a = rnd.choice([a for a in range(k) if math.gcd(a, k) == 1])
        q = ShiuQuery(x, y, k, a, rnd.choice([0.5, 1.0, 2.0]))
        assert shiu_mean(q)[0] == _shiu_exact_over_hull(q)


def test_shiu_class_sum_matches_fsum():
    # the per-omega class sum gives the same bits as fsum over the window
    windows = [(1549471, 542301, 5, 4), (2 * 10**6, 10**6, 3, 1), (10**4, 5000, 3, 1), (3 * 10**5, 10**5, 7, 2)]
    for x, y, k, a in windows:
        lo = x - y
        first = lo + (a - lo) % k
        ap = AP(first, k, len(range(first, x, k)))
        omegas = progression_table(ap, factor_lists=False).omega_array.astype(np.float64)
        for z in (0.3, 0.5, 1.0, 1.7, 2.0, math.pi / 2):
            want = math.fsum(np.power(z, omegas).tolist())
            assert shiu_mean(ShiuQuery(x, y, k, a, z))[0] == want


def test_shiu_preconditions():
    with pytest.raises(PreconditionError):
        shiu_mean(ShiuQuery(10**4, 50, 1, 0, 1.0))  # y below sqrt(x)
    with pytest.raises(PreconditionError):
        ShiuQuery(10**4, 5000, 1, 0, 3.0)  # z out of range
    with pytest.raises(PreconditionError):
        ShiuQuery(10**4, 5000, 4, 2, 1.0)  # gcd(a, k) > 1


def test_extension_k1_reduces_to_prime_count(table_1e6):
    ap = AP(101, 1, 100)
    q = NkQuery(0.0, 100.0, 1, ap=ap)
    members = len(nk_set(q, table_1e6))
    assert nk_last_prime_extension(q, members) == prime_count_ap(ap) == members
    # at k = 1 every member is a witness, so one member fewer fails the check
    with pytest.raises(InternalCheckError):
        nk_last_prime_extension(q, members - 1)


def test_extension_semiprime_cross_check(table_1e6):
    ap = AP(101, 1, 100)
    q = NkQuery(0.0, 100.0, 2, ap=ap)
    got = nk_last_prime_extension(q, len(nk_set(q, table_1e6)))
    want = 0
    for n in range(101, 201):
        fac = factorize(n)
        if len(fac) == 2 and all(e == 1 for e in fac.values()):
            if min(fac) ** 2 < 101:
                want += 1
    assert got == want == 24


def test_extension_tiny_and_soundness(table_1e6):
    q = NkQuery(0.0, 100.0, 2, ap=AP(2, 1, 2))
    assert nk_last_prime_extension(q, len(nk_set(q, table_1e6))) == 0
    rnd = random.Random(21)
    for _ in range(20):
        L = rnd.randrange(60, 300)
        a = rnd.randrange(L, int(L * math.sqrt(math.log(L))))
        k = rnd.randrange(1, 4)
        q = NkQuery(0.0, 50.0, k, ap=AP(a, 1, L))
        members = len(nk_set(q, table_1e6))
        assert nk_last_prime_extension(q, members) <= members


def _witnesses_by_is_prime(q):
    """Last-prime-extension witnesses with one is_prime call per candidate."""
    a, d, L, k = q.ap.a, q.ap.d, q.ap.L, q.k
    total = 0
    for n in range(a, a + d * L, d):
        fac = factorize(n)
        if len(fac) != k or any(e > 1 for e in fac.values()):
            continue
        *prefix, p = sorted(fac)
        prod = math.prod(prefix)
        if (
            prod * prod < a
            and all(d % r and math.log(math.log(r)) >= q.alpha * j - q.beta for j, r in enumerate(prefix, 1))
            and is_prime(p)
            and math.log(math.log(p)) >= q.alpha * k - q.beta
        ):
            total += 1
    return total


def test_extension_matches_is_prime_count():
    rnd = random.Random(3)
    for _ in range(25):
        L = rnd.randrange(16, 400)
        d = rnd.choice([1, 2])
        top = int(L * math.sqrt(math.log(L)))
        if d * L > top:
            continue
        a = rnd.choice([a for a in range(d * L, top + 1) if math.gcd(a, d) == 1])
        q = NkQuery(rnd.choice([0.0, 0.2]), rnd.choice([0.5, 2.0, 50.0]), rnd.randrange(1, 4), ap=AP(a, d, L))
        members = len(nk_set(q, progression_table(q.ap)))
        assert nk_last_prime_extension(q, members) == _witnesses_by_is_prime(q)


@pytest.mark.parametrize("a, d, L, k, witnesses", [
    (10001, 1, 5, 2, 2), (10001, 2, 7, 2, 2), (9973, 1, 3, 3, 0), (1000003, 1, 10, 2, 3),
])
def test_extension_prefix_without_a_multiple(a, d, L, k, witnesses):
    # toy lengths skip the upper regime bound, so with a far above dL some
    # admissible prefix divides none of the L elements
    q = NkQuery(0.0, 100.0, k, ap=AP(a, d, L))
    members = len(nk_set(q, progression_table(q.ap)))
    assert nk_last_prime_extension(q, members) == _witnesses_by_is_prime(q) == witnesses


def test_totient():
    assert [totient(n) for n in (1, 2, 6, 9, 10)] == [1, 1, 2, 6, 4]


def test_mertens_exponent_tracks_log_power():
    # exp(sum z/p) should behave like (log x)^z: the weighted exponent over
    # z * loglog x deviates by the Mertens constant ratio, under 10%
    from multable.sieve import mertens_sum

    s = mertens_sum(10**7)
    for z in (0.5, 1.0, 2.0):
        ratio = (z * s) / (z * math.log(math.log(10**7)))
        assert abs(ratio - 1.0) <= 0.1


def test_nk_query_refusals():
    ap = AP(1, 1, 10)
    for kw in (
        dict(alpha=0.0, beta=0.0, k=-1, ap=ap),
        dict(alpha=math.nan, beta=0.0, k=1, ap=ap),
        dict(alpha=0.0, beta=0.0, k=1),
        dict(alpha=0.0, beta=0.0, k=1, ap=ap, elements=[1, 2]),
    ):
        with pytest.raises(PreconditionError):
            NkQuery(**kw)


def test_last_prime_extension_refusals_and_k0():
    with pytest.raises(PreconditionError):
        nk_last_prime_extension(NkQuery(0.0, 0.0, 1, elements=[6, 10]), 2)
    # gcd(a, d) > 1; dL > a; L >= 16 with a > L sqrt(log L)
    for ap in (AP(4, 2, 2), AP(3, 1, 5), AP(1000, 1, 16)):
        with pytest.raises(PreconditionError):
            nk_last_prime_extension(NkQuery(0.0, 0.0, 1, ap=ap), 10)
    # k = 0: the one member is 1, when the progression holds it
    assert nk_last_prime_extension(NkQuery(0.0, 0.0, 0, ap=AP(1, 1, 1)), 1) == 1
    assert nk_last_prime_extension(NkQuery(0.0, 0.0, 0, ap=AP(17, 1, 16)), 0) == 0


def test_shiu_window_from_zero():
    # x = y: the window [0, 100) starts at 0, and its first member is 1
    exact, _ = shiu_mean(ShiuQuery(100, 100, 1, 0, 1.0))
    assert exact == 99.0
