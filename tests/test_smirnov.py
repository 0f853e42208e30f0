import math
import threading
import time
import warnings
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from multable import smirnov
from multable.errors import BUDGETS, BudgetError, PreconditionError
from multable.smirnov import (
    MC_BATCH,
    MC_MIN_SAMPLES,
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
        noncrossing_probability_exact(B([0.0] * 201))


def test_sizes_budgeted_before_allocation(monkeypatch):
    # a boundary of 2^40 points would take 8 TiB; every entry point refuses first
    n = 2**40
    with pytest.raises(BudgetError):
        q_n(5, 5, n)
    with pytest.raises(BudgetError):
        region_volume(n, 2.0 * n, 1.0, 1.0)
    with pytest.raises(BudgetError):
        volume_sandwich(n, 2.0 * n, 1.0, 1.0)
    # Monte Carlo refuses past the mc_uniforms budget, samples * n
    uniforms = BUDGETS["mc_uniforms"]
    with pytest.raises(BudgetError):
        noncrossing_probability_mc(B([0.5]), uniforms + 1, seed=0)
    with pytest.raises(BudgetError):
        noncrossing_probability_mc(B([0.5, 0.6]), uniforms // 2 + 1, seed=0)
    # the budget is read on every call
    want = q_n(5, 5, 10)
    monkeypatch.setitem(BUDGETS, "exact_n", 10)
    assert q_n(5, 5, 10) == want
    monkeypatch.setitem(BUDGETS, "exact_n", 9)
    with pytest.raises(BudgetError):
        q_n(5, 5, 10)


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


def _whole_batch_mc(b, samples, seed):
    # each batch drawn, sorted and tested in one piece, as the stream contract says
    hits = 0
    for i, start in enumerate(range(0, samples, MC_BATCH)):
        gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, i))))
        u = np.sort(gen.random((min(MC_BATCH, samples - start), b.n)), axis=1)
        hits += int(np.all(u >= np.asarray(b.c), axis=1).sum())
    est = hits / samples
    return est, math.sqrt(est * (1 - est) / samples)


@pytest.mark.parametrize("samples", [MC_BATCH + 17, 10**4 + 1])
@pytest.mark.parametrize("rows", [None, 1, 3])
def test_mc_chunks_keep_the_stream(monkeypatch, samples, rows):
    # a chunk of one row, of 3 rows (3 does not divide MC_BATCH), and the
    # default MC_CHUNK // 30 = 4369 rows; both sample counts end in a partial
    # chunk, and MC_BATCH + 17 also in a partial batch.  One worker holds
    # the whole chunk
    b = SmirnovBoundary.from_line(30, 3.0, 4.0)
    monkeypatch.setattr(smirnov, "_cpus", lambda: 1)
    if rows is not None:
        monkeypatch.setattr(smirnov, "MC_CHUNK", rows * b.n)
    assert noncrossing_probability_mc(b, samples, 12345) == _whole_batch_mc(b, samples, 12345)


def test_mc_memory_bounded():
    # the whole 10^4 x 2000 draw would hold 160 MB; chunks hold about 1 MiB
    b = SmirnovBoundary.from_line(2000, 5.0, 5.0)
    tracemalloc.start()
    try:
        got = noncrossing_probability_mc(b, 10**4, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (0.0273, 0.001629561597485655)
    assert peak < 8 << 20, f"traced peak {peak} bytes"


@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
@pytest.mark.parametrize("samples", [MC_BATCH + 17, 3 * MC_BATCH + 5])
def test_mc_workers_keep_the_stream(monkeypatch, cpus, samples):
    # 2 and 4 batches, each ending in a partial one, on up to min(cpus,
    # batches) workers: the same bits as one whole-batch draw per batch
    b = SmirnovBoundary.from_line(30, 3.0, 4.0)
    monkeypatch.setattr(smirnov, "_cpus", lambda: cpus)
    assert noncrossing_probability_mc(b, samples, 12345) == _whole_batch_mc(b, samples, 12345)


class _CountingThread(threading.Thread):
    starts = 0

    def start(self):
        type(self).starts += 1
        super().start()


@pytest.mark.parametrize("samples", [MC_MIN_SAMPLES, MC_BATCH, MC_BATCH + 1, 3 * MC_BATCH])
def test_mc_starts_a_thread_per_extra_batch_at_most(monkeypatch, samples):
    # the calling thread is a worker, so a one-batch call starts none, and
    # no call starts more threads than it has batches; 64 CPUs are pretended,
    # never used
    monkeypatch.setattr(smirnov, "_cpus", lambda: 64)
    monkeypatch.setattr(threading, "Thread", _CountingThread)
    monkeypatch.setattr(_CountingThread, "starts", 0)
    b = B([0.2, 0.5])
    assert noncrossing_probability_mc(b, samples, 5) == _whole_batch_mc(b, samples, 5)
    batches = -(-samples // MC_BATCH)
    assert _CountingThread.starts == batches - 1


@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("bad", [0, 2])
def test_mc_worker_exception_reaches_the_caller(monkeypatch, cpus, bad):
    # the first batch or the last one fails, on whichever worker claims it:
    # the calling thread or, with more than one worker, maybe a started one
    real = smirnov._batch_hits

    def batch_hits(c, seed, i, *args):
        if i == bad:
            raise ZeroDivisionError(f"batch {i}")
        return real(c, seed, i, *args)

    monkeypatch.setattr(smirnov, "_cpus", lambda: cpus)
    monkeypatch.setattr(smirnov, "_batch_hits", batch_hits)
    with pytest.raises(ZeroDivisionError, match=f"batch {bad}"):
        noncrossing_probability_mc(B([0.2, 0.5]), 3 * MC_BATCH, seed=1)


@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_mc_workers_share_the_chunk(monkeypatch, cpus):
    # three batches on min(cpus, 3) workers: together they hold about one
    # chunk (1.2 MB of buffers); a chunk each would pass the second bound.
    # The first bound is test_mc_memory_bounded's
    b = SmirnovBoundary.from_line(200, 5.0, 5.0)
    monkeypatch.setattr(smirnov, "_cpus", lambda: cpus)
    noncrossing_probability_mc(b, MC_MIN_SAMPLES, seed=3)  # the first draw imports modules
    tracemalloc.start()
    try:
        got = noncrossing_probability_mc(b, 3 * MC_BATCH, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == _whole_batch_mc(b, 3 * MC_BATCH, 3)
    assert peak < 8 << 20, f"traced peak {peak} bytes"
    assert peak < 2 * 9 * smirnov.MC_CHUNK, f"traced peak {peak} bytes"


def test_mc_rejects_negative_seed():
    with pytest.raises(PreconditionError):
        noncrossing_probability_mc(B([0.2, 0.5]), 10**4, seed=-1)


def test_entry_points_take_integers_only():
    # a float n used to answer for its ceiling (from_line, q_n) or run
    # ceil(n) points beside a factor computed with n itself (volume_sandwich)
    with pytest.raises(PreconditionError):
        SmirnovBoundary.from_line(10.5, 2.0, 2.0)
    with pytest.raises(PreconditionError):
        SmirnovBoundary.from_region(10.5, 30.0, 1.0, 9.0)
    for n in (10.5, "10"):
        with pytest.raises(PreconditionError):
            q_n(2, 2, n)
    with pytest.raises(PreconditionError):
        volume_sandwich(10.5, 30.0, 1.0, 9.0)
    for n in (10.5, 3.0):  # 3.0 * 1.0 - 0 > 1: an empty region, refused all the same
        with pytest.raises(PreconditionError):
            region_volume(n, 1.0, 1.0, 0.0)
    b = B([0.2, 0.5])
    for samples, seed in ((1e5, 0), (10**4 + 0.5, 0), ("10000", 0), (10**4, 0.0), (10**4, "1")):
        with pytest.raises(PreconditionError):
            noncrossing_probability_mc(b, samples, seed)
    # numpy integers are integers
    assert SmirnovBoundary.from_line(np.int64(10), 2.0, 2.0) == SmirnovBoundary.from_line(10, 2.0, 2.0)
    assert q_n(2, 2, np.int32(10)) == q_n(2, 2, 10)
    assert volume_sandwich(np.int64(10), 30.0, 1.0, 9.0) == volume_sandwich(10, 30.0, 1.0, 9.0)
    assert (noncrossing_probability_mc(b, np.int64(10**4), np.uint8(7))
            == noncrossing_probability_mc(b, 10**4, 7))


def test_qn_examples():
    assert q_n(3, 2, 2) == 1.0  # u >= n: boundary vacuous
    assert q_n(1, 1, 2) == pytest.approx(0.75, abs=1e-10)
    v = q_n(5, 5, 100)
    assert 0.29 <= v <= 0.49


def test_qn_deviation_statistic_grid(monkeypatch):
    # full (u, w) grid at n = 100; the n = 1000 rows need the budget raised
    # past its 400 default and each cost seconds, so they are subsampled
    pairs_by_n = {
        100: [(u, w) for u in (2, 5, 10, 20) for w in (2, 5, 10, 20)],
        1000: [(2, 2), (5, 20), (20, 5), (20, 20)],
    }
    monkeypatch.setitem(BUDGETS, "exact_n", 1024)
    worst = 0.0
    for n, pairs in pairs_by_n.items():
        for u, w in pairs:
            if max(u, w) > math.sqrt(n) * math.log(n):
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                v = q_n(u, w, n)
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


@pytest.mark.parametrize("n", [0, -1])
def test_sandwich_refuses_no_points(n):
    with pytest.raises(PreconditionError):
        volume_sandwich(n, 1.0, 1.0, 1.0)


def test_sandwich_one_dimensional():
    # n = 1: volume is N - max(0, alpha - beta) when the region is nonempty
    for N, alpha, beta in [(2.0, 1.0, 0.5), (3.0, 0.5, 1.0), (1.0, 0.9, 0.2)]:
        r = volume_sandwich(1, N, alpha, beta)
        want = N - max(0.0, alpha - beta)
        assert r.volume == pytest.approx(want, rel=1e-12)
        if r.hypotheses_met and r.lower_applicable:
            assert r.lower <= r.volume <= r.upper


def _serial_exact(b):
    # the recursion as it ran on one thread, step after step, kept as the
    # oracle for the blocked one: each weight and each sum bit for bit
    n = b.n
    carr = np.concatenate([[0.0], np.asarray(b.c, dtype=np.float64), [1.0]])
    lgam = np.array([log_gamma_int(k) for k in range(n + 2)])
    F = np.zeros((n + 1, n + 2), dtype=np.longdouble)
    F[0, :] = 1.0
    for r in range(1, n + 1):
        cr = carr[r]
        if cr == 0.0:
            F[r, r + 1 :] = 1.0
            continue
        x = cr / carr[r + 1 :]
        rr = np.arange(r, dtype=np.float64)
        lcomb = lgam[r + 1] - lgam[1 : r + 1] - lgam[r + 1 : 1 : -1]
        with np.errstate(divide="ignore"):
            logs = np.outer(np.log(x), rr)
            term = np.outer(np.log1p(-x), r - rr)
        logs += lcomb
        logs += term
        np.exp(logs, out=logs)
        np.dot(logs.astype(np.longdouble), F[:r, r], out=F[r, r + 1 :])
    return float(F[n, n + 1])


class _InlineThread:
    # stands in for threading.Thread where many CPUs are pretended: the
    # target runs at start(), in the calling thread, so no thread starts
    def __init__(self, target, args=()):
        self.run = lambda: target(*args)

    def start(self):
        self.run()

    def join(self):
        pass


def test_cpus_without_an_affinity_mask(monkeypatch):
    monkeypatch.delattr(smirnov.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(smirnov.os, "cpu_count", lambda: 3)
    assert smirnov._cpus() == 3
    monkeypatch.setattr(smirnov.os, "cpu_count", lambda: None)
    assert smirnov._cpus() == 1


def _pretend_cpus(mp, cpus):
    mp.setattr(smirnov, "_cpus", lambda: cpus)
    if cpus > 4:
        mp.setattr(threading, "Thread", _InlineThread)


def _exact_quietly(b):
    # the precision warning past n = 200 is the only warning allowed: a
    # worker's floating-point warning would be recorded here too
    if b.n <= smirnov.PRECISION_WARN_AT:
        return noncrossing_probability_exact(b)
    with pytest.warns(RuntimeWarning) as seen:
        got = noncrossing_probability_exact(b)
    assert [str(w.message) for w in seen] == [f"n = {b.n} > 200: precision may degrade"]
    return got


_BLOCKED_CASES = [
    *(SmirnovBoundary.from_line(n, 1.5, 2.5) for n in (1, 2, 5, 64, 201, 400)),
    SmirnovBoundary.from_line(150, 0.7, 3.0),
    B([0.0] * 40),  # all zero: no weights at all
    SmirnovBoundary.from_line(90, 6.5, 2.0),  # a zero prefix, c_1..c_6 = 0
    SmirnovBoundary.from_region(80, 30.0, 0.5, 3.0),  # clamped at 1 from j = 66
    B([0.1, 0.1, 0.4, 1.0, 1.0]),
]


@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
@pytest.mark.parametrize("b", _BLOCKED_CASES, ids=lambda b: f"n{b.n}")
def test_exact_bits_at_any_worker_count(monkeypatch, cpus, b):
    _pretend_cpus(monkeypatch, cpus)
    assert _exact_quietly(b) == _serial_exact(b)


@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
@given(st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]), min_size=1, max_size=60))
def test_exact_bits_property(cpus, c):
    b = B(sorted(c))
    with pytest.MonkeyPatch.context() as mp:
        _pretend_cpus(mp, cpus)
        assert noncrossing_probability_exact(b) == _serial_exact(b)


def _count_blocks(monkeypatch):
    seen = []
    real = smirnov._block_weights

    def block_weights(*args):
        seen.append(args[3])
        return real(*args)

    monkeypatch.setattr(smirnov, "_block_weights", block_weights)
    return seen


@pytest.mark.parametrize("cpus, n, one_block", [
    (2, 5, True), (2, 40, True), (2, 200, False), (3, 200, False), (64, 5, True), (64, 30, False),
])
def test_exact_starts_a_thread_per_extra_block_at_most(monkeypatch, cpus, n, one_block):
    # the calling thread is a worker, so a one-block call starts none and no
    # call starts more than blocks - 1; with 64 CPUs pretended, n = 30 makes
    # 5 blocks, so only 4 threads start for real
    monkeypatch.setattr(smirnov, "_cpus", lambda: cpus)
    monkeypatch.setattr(threading, "Thread", _CountingThread)
    monkeypatch.setattr(_CountingThread, "starts", 0)
    blocks = _count_blocks(monkeypatch)
    b = SmirnovBoundary.from_line(n, 1.5, 2.5)
    assert noncrossing_probability_exact(b) == _serial_exact(b)
    assert (len(blocks) == 1) == one_block
    assert _CountingThread.starts == min(cpus, len(blocks)) - 1


@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("where", [0, -1])
def test_exact_worker_exception_reaches_the_caller(monkeypatch, cpus, where):
    # the first or the last block fails, on whichever worker claims it, late
    # enough that another worker already waits for its turn; the call
    # returns with the error instead of leaving that worker waiting
    b = SmirnovBoundary.from_line(150, 1.5, 2.5)
    monkeypatch.setattr(smirnov, "_cpus", lambda: cpus)
    blocks = _count_blocks(monkeypatch)
    noncrossing_probability_exact(b)
    assert len(blocks) > 4
    bad = blocks[where]
    real = smirnov._block_weights

    def block_weights(*args):
        if args[3] == bad:
            time.sleep(0.05)
            raise ZeroDivisionError(f"block {bad}")
        return real(*args)

    monkeypatch.setattr(smirnov, "_block_weights", block_weights)
    outcome = []

    def call():
        try:
            noncrossing_probability_exact(b)
        except ZeroDivisionError as e:
            outcome.append(e)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(30)
    assert not caller.is_alive(), "the call did not return"
    assert [str(e) for e in outcome] == [f"block {bad}"]


@pytest.mark.parametrize("cpus", [2, 4])
def test_exact_memory_bounded(monkeypatch, cpus):
    # half the one-thread recursion's (n + 1)(n + 2) table, plus each
    # worker's block of weights: the one-thread recursion peaked at 3.84 MiB
    monkeypatch.setattr(smirnov, "_cpus", lambda: cpus)
    b = SmirnovBoundary.from_line(400, 5, 5)
    want = _serial_exact(b)
    with pytest.warns(RuntimeWarning):
        noncrossing_probability_exact(b)  # the first call imports and warms up
        tracemalloc.start()
        try:
            got = noncrossing_probability_exact(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert got == want
    assert peak < 5 << 20, f"traced peak {peak} bytes"


def test_region_and_sandwich_edges():
    # p = 0 below the emptiness test: the line alpha j - beta reaches N only at j = n
    assert region_volume(5, 5.0, 1.0, 0.0) == 0.0
    assert volume_sandwich(5, 1.0, 1.0, 0.0).volume == 0.0
    # n = 400 > PRECISION_WARN_AT; 1000^400 / 400! is past the float range
    with pytest.warns(RuntimeWarning), pytest.raises(BudgetError):
        region_volume(400, 1e3, 1.0, 1.0)
    with pytest.warns(RuntimeWarning):
        r = volume_sandwich(400, 1e3, 1.0, 10.0)
    assert r.volume == r.lower == r.upper == math.inf


def test_boundary_constructors_and_mc_refusals():
    for call in (
        lambda: SmirnovBoundary.from_line(3, 10.0, 1.0),  # n + w - u <= 0
        lambda: SmirnovBoundary.from_line(3, -1.7e308, 1.7e308),  # n + w - u past the float range
        lambda: SmirnovBoundary.from_region(3, 0.0, 1.0, 1.0),  # N <= 0
        lambda: region_volume(0, 1.0, 1.0, -5.0),  # n < 1, refused before the empty-region answer
        lambda: region_volume(-3, 1.0, 1.0, -5.0),
        lambda: noncrossing_probability_mc(B([0.5]), 100, 0),  # below MC_MIN_SAMPLES
    ):
        with pytest.raises(PreconditionError):
            call()
