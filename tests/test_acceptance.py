"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its elapsed time and asserting both the numeric tolerances and the
stated runtime ceiling.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import re
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from multable.energy import (
    cs_energy_split,
    energy,
    energy_bruteforce,
    random_energy_subset,
)
from multable.experiments import cmd_table
from multable.progressions import ArithmeticProgression as AP
from multable.primestats import (
    NkQuery,
    ShiuQuery,
    nk_last_prime_extension,
    nk_set,
    prime_count_ap,
    shiu_mean,
    totient,
)
from multable.reduction import DirectBound, Reduced, reduce
from multable.sieve import build_table, mertens_sum
from multable.smirnov import (
    SmirnovBoundary,
    volume_sandwich,
    noncrossing_probability_exact,
    noncrossing_probability_mc,
    region_volume,
)
from test_progressions import dilate
from test_sieve import factorize, large_square_count, square_part

SHIU_RATIO_K = 1.5  # empirical ceiling for exact/envelope on the grid below


@contextmanager
def criterion(num, label, limit_s):
    t0 = time.perf_counter()
    yield
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE {num:2d} PASS {label} ({dt:.1f}s / limit {limit_s}s)")
    assert dt < limit_s, f"criterion {num} exceeded its {limit_s}s runtime limit"


def test_criterion_01_energy_oracle_equivalence():
    with criterion(1, "energy oracle equivalence on 500 random pairs", 30):
        rnd = random.Random(1001)
        for _ in range(500):
            A = sorted(rnd.sample(range(1, 10**6 + 1), rnd.randrange(1, 61)))
            B = sorted(rnd.sample(range(1, 10**6 + 1), rnd.randrange(1, 61)))
            assert energy(A, B).energy == energy_bruteforce(A, B)


def test_criterion_02_cauchy_schwarz_inequalities():
    with criterion(2, "Cauchy-Schwarz product/energy inequalities, 1000 instances", 60):
        rnd = random.Random(1002)
        for _ in range(1000):
            A = sorted(rnd.sample(range(1, 10**5), rnd.randrange(1, 41)))
            B = sorted(rnd.sample(range(1, 10**5), rnd.randrange(1, 41)))
            energy(A, B)  # exact integer Cauchy-Schwarz check inside
            _, ok = cs_energy_split(A, B)
            assert ok


def test_criterion_03_progression_energy_bound():
    with criterion(3, "energy bound 2L^2 + 4(L^3/a)(1+log L) on 200 APs", 60):
        rnd = random.Random(1003)
        done = 0
        while done < 200:
            a = rnd.randrange(1, 10**6)
            d = rnd.randrange(1, 1000)
            if math.gcd(a, d) != 1:
                continue
            L = rnd.randrange(1, 401)
            e = energy(AP(a, d, L).elements()).energy
            bound = 2 * L * L + 4 * L**3 / a * (1 + math.log(L))
            assert e <= bound  # int vs float compares exactly in Python
            done += 1


def test_criterion_04_large_square_divisor_count():
    with criterion(4, "square-divisor count bound on 200 APs + exact [1,100] value", 10):
        assert large_square_count(AP(1, 1, 100), 3) == 15
        rnd = random.Random(1004)
        done = 0
        while done < 200:
            a = rnd.randrange(1, 10**7)
            d = rnd.randrange(1, 100)
            if math.gcd(a, d) != 1:
                continue
            L = rnd.randrange(1, 500)
            T = rnd.randrange(1, 20)
            c = large_square_count(AP(a, d, L), T)
            assert c <= math.sqrt(a + d * L) + L / T
            done += 1


def test_criterion_05_reduction_pipeline_soundness():
    with criterion(5, "reduction pipeline invariants on 102 instances", 120):
        rnd = random.Random(1005)
        outcomes = {"DirectBound": 0, "Reduced": 0}
        for delta in (Fraction(3, 10), Fraction(1, 2), Fraction(1, 1)):
            for _ in range(34):
                d = rnd.choice([1, 1, 1, 2, 3, 5])
                L = rnd.randrange(60, 320)
                style = rnd.randrange(4)
                if style == 0:
                    a = rnd.randrange(1, 8)
                elif style == 1:
                    a = rnd.randrange(1, 3 * L)
                elif style == 2:
                    a = rnd.randrange(10**5, 10**7)
                else:
                    a = -rnd.randrange(L // 2, 2 * L) * d  # straddles or below zero
                ap = AP(a, d, L)
                A = sorted(rnd.sample(ap.elements(), math.ceil(delta * L)))
                if A == [0]:
                    continue
                trace = reduce(A, ap, delta)

                last_len = ap.L
                for s in trace.steps:
                    assert 0 < s.density_after <= 1
                    assert 1 <= s.length_after <= last_len
                    last_len = s.length_after
                out = trace.outcome
                outcomes[type(out).__name__] += 1
                if isinstance(out, DirectBound):
                    assert set(out.subset) <= set(A)
                    exact = energy(out.subset).energy
                    assert exact <= out.energy_value
                else:
                    assert isinstance(out, Reduced)
                    assert set(dilate(out.B, out.m)) <= set(A)
                    assert all(square_part(b) == 1 for b in out.B)
                    assert set(out.B) <= set(out.P_prime.elements())
                    p = out.P_prime
                    assert math.gcd(p.a, p.d) == 1 and p.a > p.d * p.L
                    # pigeonhole size against the dyadic block's density/length
                    dy = next(s for s in trace.steps if s.step == "DyadicSelect")
                    d3, L3 = dy.density_after, dy.length_after
                    sq = next(s for s in trace.steps if s.step == "SquarefreeReduce")
                    b0 = int(re.search(r"\|B0\|=(\d+)", sq.note).group(1))
                    assert 18 * b0 >= d3 * d3 * L3
        assert outcomes["DirectBound"] and outcomes["Reduced"]


def test_criterion_06_multiplication_table():
    with criterion(6, "multiplication table counts and normalized ratio bracket", 60):
        assert cmd_table(4).results[0]["count"] == 9
        assert cmd_table(10).results[0]["count"] == 42
        for N in (1 << 10, 1 << 12, 1 << 14):
            row = cmd_table(N).results[0]
            assert 0.5 <= row["normalized_ratio"] <= 4.0, f"ratio at N={N}: {row}"


def test_criterion_07_prime_count_floor_grid():
    with criterion(7, "prime-count density floor over the (L, d) grid", 120):
        rnd = random.Random(1007)
        for L in (10**4, 10**5, 10**6):
            for d in (1, 2, 3, 5):
                hi = int(10 * L * math.sqrt(math.log(L)))
                picked = 0
                while picked < 3:
                    a = rnd.randrange(d * L + 1, hi)
                    if math.gcd(a, d) != 1:
                        continue
                    count = prime_count_ap(AP(a, d, L))  # floor asserted inside
                    assert count >= d * L / (2 * totient(d) * math.log(L))
                    picked += 1


def test_criterion_08_nk_construction(table_1e6):
    with criterion(8, "N_k filter equivalence, monotonicity, witness soundness", 60):
        rnd = random.Random(1008)
        for _ in range(50):
            length = rnd.randrange(300, 1500)
            lo = rnd.randrange(1, 10**6 - length)
            vals = tuple(range(lo, lo + length))
            alpha = rnd.choice([0.0, 0.5, math.log(4)])
            beta = rnd.choice([0.0, 1.0, 4.0])
            k = rnd.randrange(0, 5)
            got = nk_set(NkQuery(alpha, beta, k, elements=vals), table_1e6)
            want = []
            for n in vals:
                fac = factorize(n)
                if len(fac) != k or any(e > 1 for e in fac.values()):
                    continue
                ps = sorted(fac)
                if all(
                    math.log(math.log(p)) >= alpha * (j + 1) - beta
                    for j, p in enumerate(ps)
                ):
                    want.append(n)
            assert got == want

        dom = tuple(range(1, 30000))
        mid = set(nk_set(NkQuery(0.5, 1.0, 3, elements=dom), table_1e6))
        assert mid <= set(nk_set(NkQuery(0.5, 1.5, 3, elements=dom), table_1e6))
        assert set(nk_set(NkQuery(0.7, 1.0, 3, elements=dom), table_1e6)) <= mid

        for _ in range(10):
            L = rnd.randrange(80, 400)
            a = rnd.randrange(L, int(L * math.sqrt(math.log(L))))
            k = rnd.randrange(1, 4)
            q = NkQuery(0.0, 30.0, k, ap=AP(a, 1, L))
            members = len(nk_set(q, table_1e6))
            assert nk_last_prime_extension(q, members) <= members


def test_criterion_09_smirnov_exactness():
    with criterion(9, "boundary probabilities: exact values, MC, scaling", 120):
        B = SmirnovBoundary.from_values
        assert abs(noncrossing_probability_exact(B([0.3])) - 0.7) < 1e-10
        assert abs(noncrossing_probability_exact(B([0.2, 0.5])) - 0.55) < 1e-10
        line = SmirnovBoundary.from_line(2, 1.0, 1.0)
        assert abs(noncrossing_probability_exact(line) - 0.75) < 1e-10

        rnd = random.Random(1009)
        for n in (1, 2, 10, 50, 100):
            for _ in range(4):
                c = sorted(min(1.0, max(0.0, rnd.uniform(-0.3, 0.9))) for _ in range(n))
                b = B(c)
                exact = noncrossing_probability_exact(b)
                est, se = noncrossing_probability_mc(b, 10**6, seed=rnd.randrange(2**32))
                if se == 0.0:
                    assert est == exact
                else:
                    assert abs(est - exact) <= 4 * se

        for _ in range(10):
            n = rnd.randrange(1, 40)
            N = rnd.uniform(0.5, 6.0)
            alpha = rnd.uniform(0.01, 0.5)
            beta = rnd.uniform(0.0, 2.0)
            v1 = region_volume(n, N, alpha, beta)
            v2 = N**n * region_volume(n, 1.0, alpha / N, beta / N)
            if v1 == 0.0:
                assert v2 == 0.0
            else:
                assert abs(v1 - v2) / v1 <= 1e-12


def test_criterion_10_ordered_region_sandwich():
    with criterion(10, "ordered-region volume sandwich on the hypothesis grid", 60):
        a = math.log(4)
        checked = 0
        for n in (50, 100, 200):
            for beta in (8 * a, 16 * a):
                for w_alpha in (16, 64):
                    N = a * n - beta + w_alpha * a
                    r = volume_sandwich(n, N, a, beta)
                    if r.hypotheses_met and r.lower_applicable:
                        assert r.factor / 4 <= r.probability <= 3 * r.factor
                        checked += 1
                    elif r.hypotheses_met:
                        # upper envelope alone
                        assert r.probability <= 3 * r.factor
        assert checked >= 1


def test_criterion_11_shiu_mertens_empirics():
    with criterion(11, "prime-reciprocal sums and z^omega window means", 60):
        for x in (10**3, 10**4, 10**6):
            diff = mertens_sum(x) - math.log(math.log(x))
            assert 0.20 <= diff <= 0.30
        exact, _ = shiu_mean(ShiuQuery(11, 10, 1, 0, 2.0))
        assert exact == 23.0
        for x, y in [(2 * 10**6, 10**6), (300000, 200000)]:
            for k, aa in [(1, 0), (3, 1), (5, 2)]:
                for z in (0.5, 1.0, 2.0):
                    ex, bd = shiu_mean(ShiuQuery(x, y, k, aa, z))
                    assert 0 < ex / bd <= SHIU_RATIO_K


def test_criterion_12_energy_subset_sampler():
    with criterion(12, "random low-energy subset extraction on 100 sets", 60):
        rnd = random.Random(1012)
        for i in range(100):
            kind = i % 3
            n = rnd.randrange(3, 101)
            if kind == 0:
                A = sorted(rnd.sample(range(1, 10**6), n))
            elif kind == 1:
                A = list(range(1, n + 1))
            else:
                base = rnd.randrange(2, 4)
                A = sorted({base**j for j in range(min(n, 40))})
            sub = random_energy_subset(A, seed=i)
            e_sub = energy_bruteforce(sub)
            e_a = energy_bruteforce(A)
            assert e_sub <= 4 * len(sub) ** 2
            assert 2 * e_a * len(sub) >= len(A) ** 3
