import math
import warnings
import random

import numpy as np
import pytest

from multable.errors import BudgetError, PreconditionError
from multable.smirnov import (
    MC_BATCH,
    MC_MAX_UNIFORMS,
    SmirnovBoundary,
    log_gamma_int,
    volume_sandwich,
    noncrossing_probability_exact,
    noncrossing_probability_mc,
    q_n,
    region_volume,
)

B = SmirnovBoundary.from_values


def test_exact_examples():
    assert noncrossing_probability_exact(B([0.0])) == 1.0
    assert noncrossing_probability_exact(B([0.3])) == pytest.approx(0.7, abs=1e-10)
    assert noncrossing_probability_exact(B([0.2, 0.5])) == pytest.approx(0.55, abs=1e-10)


def test_exact_constant_boundary_closed_form():
    # c_j = c for all j is the event that every point clears c
    for n in (1, 5, 17, 60):
        for c in (0.1, 0.5, 0.9):
            got = noncrossing_probability_exact(B([c] * n))
            assert got == pytest.approx((1 - c) ** n, abs=1e-12)


def test_exact_proportional_boundary_closed_form():
    # the boundary c_j = theta j / n is cleared with probability 1 - theta,
    # independent of n: a sharp classical law the recursion must reproduce
    for n in (2, 7, 30, 101):
        for theta in (0.25, 0.5, 0.8):
            c = [theta * (j + 1) / n for j in range(n)]
            got = noncrossing_probability_exact(B(c))
            assert got == pytest.approx(1 - theta, abs=1e-12)


def test_exact_small_cases_vs_integration():
    # n = 3 with c = (0.1, 0.2, 0.4): inclusion over the ordered simplex,
    # computed by dense numerical quadrature as an independent check
    c = (0.1, 0.2, 0.4)
    grid = 400
    xs = (np.arange(grid) + 0.5) / grid
    total = 0.0
    for x1 in xs[xs >= c[0]]:
        y2 = xs[(xs >= max(x1, c[1]))]
        for x2 in y2:
            total += np.count_nonzero(xs >= max(x2, c[2]))
    vol = total / grid**3 * 6  # 3! orderings
    assert noncrossing_probability_exact(B(list(c))) == pytest.approx(vol, abs=5e-3)


def test_boundary_validation():
    with pytest.raises(PreconditionError):
        B([0.5, 0.2])
    with pytest.raises(PreconditionError):
        B([-0.1])
    with pytest.raises(PreconditionError):
        B([])
    for bad in ([0.1, math.nan, 0.5], [math.nan], [0.1, math.inf], [-math.inf, 0.5]):
        with pytest.raises(PreconditionError):
            B(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(bad):
    with pytest.raises(PreconditionError):
        SmirnovBoundary.from_line(10, bad, 1.0)
    with pytest.raises(PreconditionError):
        SmirnovBoundary.from_line(10, 1.0, bad)
    for args in ((bad, 1.0, 2.0), (10.0, bad, 2.0), (10.0, 1.0, bad)):
        with pytest.raises(PreconditionError):
            SmirnovBoundary.from_region(10, *args)
        with pytest.raises(PreconditionError):
            region_volume(10, *args)
        with pytest.raises(PreconditionError):
            volume_sandwich(10, *args)
    with pytest.raises(PreconditionError):
        q_n(bad, 1.0, 10)
    with pytest.raises(PreconditionError):
        q_n(1.0, bad, 10)


def test_log_gamma_int_matches_gammaln_bits():
    # the recursion's weights were built from gammaln; the in-package table
    # must reproduce it bit for bit, across both Stirling branches' edges
    special = pytest.importorskip("scipy.special")
    ks = list(range(10**5 + 1)) + [10**6, 10**8, 10**8 + 1, 10**9, 2**40, 2**52]
    want = special.gammaln(np.asarray(ks, dtype=np.float64))
    got = np.array([log_gamma_int(k) for k in ks])
    assert np.array_equal(got, want)
    for k in (0, 1, 2, 12, 13, 999, 1000):
        assert log_gamma_int(k) == special.gammaln(float(k))


def test_budget_and_warning():
    big = B([0.0] * 401)
    with pytest.raises(BudgetError):
        noncrossing_probability_exact(big)
    with pytest.warns(RuntimeWarning):
        noncrossing_probability_exact(B([0.0] * 201), budget=400)


def test_sizes_budgeted_before_allocation():
    # a boundary of 2^40 points would take 8 TiB; every entry point refuses first
    n = 2**40
    with pytest.raises(BudgetError):
        q_n(5, 5, n)
    with pytest.raises(BudgetError):
        region_volume(n, 2.0 * n, 1.0, 1.0)
    with pytest.raises(BudgetError):
        volume_sandwich(n, 2.0 * n, 1.0, 1.0)
    # the budget argument is honoured
    assert q_n(5, 5, 10, budget=10) == q_n(5, 5, 10)
    with pytest.raises(BudgetError):
        q_n(5, 5, 10, budget=9)
    # Monte Carlo refuses past MC_MAX_UNIFORMS uniforms, samples * n
    with pytest.raises(BudgetError):
        noncrossing_probability_mc(B([0.5]), MC_MAX_UNIFORMS + 1, seed=0)
    with pytest.raises(BudgetError):
        noncrossing_probability_mc(B([0.5, 0.6]), MC_MAX_UNIFORMS // 2 + 1, seed=0)


def test_mc_examples():
    est, se = noncrossing_probability_mc(B([0.3]), 10**6, seed=1)
    assert abs(est - 0.7) <= 3 * se
    est, se = noncrossing_probability_mc(B([0.2, 0.5]), 10**6, seed=1)
    assert abs(est - 0.55) <= 3 * se
    exact = q_n(5, 5, 100)
    est, se = noncrossing_probability_mc(SmirnovBoundary.from_line(100, 5, 5), 10**6, seed=2)
    assert abs(est - exact) <= 4 * se


def test_mc_is_deterministic():
    a = noncrossing_probability_mc(B([0.2, 0.5]), 10**4, seed=7)
    b = noncrossing_probability_mc(B([0.2, 0.5]), 10**4, seed=7)
    assert a == b
    c = noncrossing_probability_mc(B([0.2, 0.5]), 10**4, seed=8)
    assert a != c


@pytest.mark.parametrize("samples", [MC_BATCH + 17, 2 * MC_BATCH])
def test_mc_stream_contract(samples):
    # batch i draws its rows from SFC64 seeded with SeedSequence((seed, i));
    # MC_BATCH + 17 ends in a partial batch of the reused buffer
    b = SmirnovBoundary.from_line(30, 3.0, 4.0)
    seed = 12345
    hits = 0
    for i, start in enumerate(range(0, samples, MC_BATCH)):
        gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, i))))
        u = np.sort(gen.random((min(MC_BATCH, samples - start), b.n)), axis=1)
        hits += int(np.all(u >= np.asarray(b.c), axis=1).sum())
    est = hits / samples
    assert noncrossing_probability_mc(b, samples, seed) == (est, math.sqrt(est * (1 - est) / samples))


def test_mc_rejects_negative_seed():
    with pytest.raises(PreconditionError):
        noncrossing_probability_mc(B([0.2, 0.5]), 10**4, seed=-1)


def test_qn_examples():
    assert q_n(3, 2, 2) == 1.0  # u >= n: boundary vacuous
    assert q_n(1, 1, 2) == pytest.approx(0.75, abs=1e-10)
    v = q_n(5, 5, 100)
    assert 0.29 <= v <= 0.49


def test_qn_deviation_statistic_grid():
    # full (u, w) grid at n = 100; the n = 1000 rows need the budget raised
    # past its 400 default and each cost seconds, so they are subsampled
    pairs_by_n = {
        100: [(u, w) for u in (2, 5, 10, 20) for w in (2, 5, 10, 20)],
        1000: [(2, 2), (5, 20), (20, 5), (20, 20)],
    }
    worst = 0.0
    for n, pairs in pairs_by_n.items():
        for u, w in pairs:
            if max(u, w) > math.sqrt(n) * math.log(n):
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                v = q_n(u, w, n, budget=1024)
            dev = abs(v - (1 - math.exp(-2 * u * w / n))) * n / (u + w)
            worst = max(worst, dev)
    assert worst <= 2.0, f"deviation statistic reached {worst}"


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                    reason="values recorded with x87 extended precision")
def test_exact_route_bits_pinned():
    # float-for-float values of the recursion; a change in the order or
    # precision of its sums shows here before any tolerance test notices
    with pytest.warns(RuntimeWarning):  # n = 400 > PRECISION_WARN_AT
        assert q_n(5.0, 5.0, 400) == 0.12476760926455362
    assert q_n(2.0, 7.0, 123) == 0.22779307874239502
    a = math.log(4)
    assert volume_sandwich(100, a * (100 - 8 + 16), a, 8 * a).probability == 0.9207007946006824


def test_region_volume_examples():
    assert region_volume(1, 2, 1, 0) == pytest.approx(1.0, abs=1e-12)
    assert region_volume(2, 1, 0.0, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert region_volume(2, 1, 0.3, 0.1) == pytest.approx(0.275, abs=1e-12)
    assert region_volume(3, 1, 1.0, 0.0) == 0.0  # alpha n - beta > N: empty


def test_region_scaling_identity():
    rnd = random.Random(4)
    for _ in range(20):
        n = rnd.randrange(1, 30)
        N = rnd.uniform(0.5, 8.0)
        alpha = rnd.uniform(0.01, 0.4)
        beta = rnd.uniform(0.0, 2.0)
        v1 = region_volume(n, N, alpha, beta)
        v2 = N**n * region_volume(n, 1.0, alpha / N, beta / N)
        if v1 == 0.0:
            assert v2 == 0.0
        else:
            assert abs(v1 - v2) / v1 <= 1e-12


def test_monotone_in_boundary():
    rnd = random.Random(9)
    for _ in range(30):
        n = rnd.randrange(1, 40)
        c = sorted(rnd.uniform(0, 1) for _ in range(n))
        p = noncrossing_probability_exact(B(c))
        j = rnd.randrange(n)
        c2 = list(c)
        c2[j] = min(1.0, c2[j] + rnd.uniform(0, 0.2))
        c2 = [max(c2[i], c2[j]) if i >= j else c2[i] for i in range(n)]
        p2 = noncrossing_probability_exact(B(c2))
        assert p2 <= p + 1e-12


def test_degenerate_zero():
    assert noncrossing_probability_exact(B([1.0, 1.0])) == 0.0
    assert region_volume(2, 1.0, 2.0, 1.0) == 0.0


def test_sandwich_report():
    a = math.log(4)
    r = volume_sandwich(100, a * (100 - 8 + 16), a, 8 * a)
    assert r.hypotheses_met
    assert r.factor == pytest.approx(8 * 16 / 100)
    assert r.lower_applicable is False or r.factor <= 1
    # raw and normalized forms agree up to the (N^n / n!) scale
    assert r.volume == pytest.approx(r.upper / (3 * r.factor) * r.probability, rel=1e-9)


def test_sandwich_one_dimensional():
    # n = 1: volume is N - max(0, alpha - beta) when the region is nonempty
    for N, alpha, beta in [(2.0, 1.0, 0.5), (3.0, 0.5, 1.0), (1.0, 0.9, 0.2)]:
        r = volume_sandwich(1, N, alpha, beta)
        want = N - max(0.0, alpha - beta)
        assert r.volume == pytest.approx(want, rel=1e-12)
        if r.hypotheses_met and r.lower_applicable:
            assert r.lower <= r.volume <= r.upper
