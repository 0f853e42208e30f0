"""One-sided boundary non-crossing probabilities for uniform order statistics
and the matching constrained ordered-simplex volumes.

P(U_(j) >= c_j for all j) is computed exactly by conditioning on how many
of the m points fall below c_m: points below c_j for j > m are then
automatically few enough, so the sub-problem is the same event for the
points squeezed into [0, c_m).  Writing G(m, s) for the probability with m
points uniform on [0, s],

    G(0, s) = 1,
    G(m, s) = sum_{r < m} C(m, r) (c_m/s)^r ((s - c_m)/s)^(m-r) G(r, c_m),

and the answer is G(n, 1).  The binomial weights are evaluated as stable
binomial pmf values and the tables accumulate in extended precision.

The weights' log-factorials come from ``log_gamma_int``, which repeats the
Cephes ``lgam`` routine (the one SciPy's ``gammaln`` runs) operation for
operation at integer arguments, so the weights keep the bits they had when
the table came from ``gammaln``.  It calls ``math.log``, the C library's
log as Cephes does, rather than ``np.log``, whose own implementation rounds
differently at a few integers (8 from 13 to 200,000 with numpy 2.4 on
x86-64).

Monte Carlo draws batch i from its own SFC64 stream seeded with
SeedSequence((seed, i)) and counts the rows that clear the boundary in an
integer.  The batches run on one worker thread per CPU the process may use
(its affinity mask, which taskset or a cpuset limits), at most one per batch;
the counts add up to the same total in any order, so estimates are
bit-identical at any worker count.  Each batch is drawn, sorted and tested in
consecutive chunks from its one generator, which yields the bits of one
whole-batch draw.  The workers share MC_CHUNK uniforms between them, so
memory grows as workers * max(n, MC_CHUNK // workers) and not with the batch
or the sample count.  This stream replaced 0.1.0's Philox keyed (seed, batch):
Monte Carlo estimates differ from 0.1.0 at the same seed, exact values do not.

The exact recursion's weights depend on the boundary alone, so workers
compute them ahead in blocks of steps, on the same CPUs, while the
extended-precision sums run one step after another in step order: exact
values are bit-identical at any worker count too.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, PreconditionError, check_budget
from .progressions import _integer

PRECISION_WARN_AT = 200
MC_MIN_SAMPLES = 10**4
MC_BATCH = 1 << 14
MC_CHUNK = 1 << 17  # values all workers hold at once: Monte Carlo uniforms, exact weights
SANDWICH_C = 8.0  # C of volume_sandwich's hypotheses beta >= C alpha, C <= w

# Cephes lgam: log sqrt(2 pi) and the Stirling-series coefficients used for
# 13 <= x < 1000, highest power first
_LS2PI = 0.91893853320467274178
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


def log_gamma_int(k: int) -> float:
    """log Gamma(k) = log (k-1)! for an integer k >= 0, inf at k = 0.

    Cephes lgam at integer x: log of the exact factorial below 13, Stirling's
    series in p = 1/x^2 above (five terms below 1000, three from there on).
    Cephes drops the series past 10^8, where it is under half an ulp of the
    leading terms and so never changes the sum.
    """
    if k < 13:
        return math.inf if k == 0 else math.log(float(math.factorial(k - 1)))
    x = float(k)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    s = _LGAM_A[0]
    for a in _LGAM_A[1:]:
        s = s * p + a
    return q + s / x


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _on_workers(workers: int, tasks: int, run, then=None) -> None:
    """Run tasks 0..tasks-1 on ``workers`` workers: the calling thread is
    worker 0 and each further worker a started thread, so one worker starts
    none.  A worker claims the next task i under one lock and calls
    run(w, i), w being its own number; then(w, i), if given, follows once
    every task before i has finished its own.  After the first exception no
    task is claimed and no worker waits; it re-raises here once all return."""
    lock = threading.Condition(threading.Lock())
    todo = iter(range(tasks))
    finished = 0  # tasks whose ``then`` has run
    failed: list[BaseException] = []

    def work(w: int) -> None:
        nonlocal finished
        try:
            while True:
                with lock:
                    i = None if failed else next(todo, None)
                if i is None:
                    return
                run(w, i)
                if then is None:
                    continue
                with lock:
                    lock.wait_for(lambda: finished == i or failed)
                    if failed:
                        return
                then(w, i)
                with lock:
                    finished += 1
                    lock.notify_all()
        except BaseException as e:
            with lock:
                failed.append(e)
                lock.notify_all()

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for t in threads:
        t.start()
    work(0)
    for t in threads:
        t.join()
    if failed:
        raise failed[0]


def _require_finite(**values: float) -> None:
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    if bad:
        raise PreconditionError(f"needs finite {', '.join(bad)}")


@dataclass(frozen=True)
class SmirnovBoundary:
    """Non-decreasing boundary 0 <= c_1 <= ... <= c_n <= 1 for sorted uniforms."""

    c: tuple[float, ...]

    def __post_init__(self):
        if len(self.c) < 1:
            raise PreconditionError("boundary needs n >= 1")
        arr = np.asarray(self.c, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise PreconditionError("boundary values must be finite")
        if arr.min() < 0.0 or arr.max() > 1.0 or np.any(np.diff(arr) < 0):
            raise PreconditionError("boundary must be non-decreasing within [0, 1]")

    @property
    def n(self) -> int:
        return len(self.c)

    @classmethod
    def from_values(cls, c) -> "SmirnovBoundary":
        return cls(tuple(float(v) for v in c))

    @classmethod
    def from_line(cls, n: int, u: float, w: float) -> "SmirnovBoundary":
        """c_j = clamp((j - u) / (n + w - u)): the line count <= (n+w-u)t + u."""
        n = _integer("n", n)
        _require_finite(u=u, w=w)
        if n + w - u <= 0:
            raise PreconditionError("needs n + w - u > 0")
        return cls.from_region(n, n + w - u, 1.0, u)  # 1.0 * j is j, so the bits match

    @classmethod
    def from_region(cls, n: int, N: float, alpha: float, beta: float) -> "SmirnovBoundary":
        """c_j = clamp((alpha j - beta) / N); constraints below 0 are vacuous,
        boundaries clamped at 1 force emptiness."""
        n = _integer("n", n)
        _require_finite(N=N, alpha=alpha, beta=beta)
        if N <= 0:
            raise PreconditionError("needs N > 0")
        j = np.arange(1, n + 1, dtype=np.float64)
        return cls(tuple(np.clip((alpha * j - beta) / N, 0.0, 1.0).tolist()))


def _blocks(carr: np.ndarray, share: int) -> tuple[list[list[tuple[int, int, int, int]]], int]:
    """Cut the steps r with c_r > 0 into pieces (r0, r1, a, b): steps r0..r1,
    each with its weights for m = r0 + 1 + a .. r0 + b laid out in one
    (r1 - r0 + 1, b - a, r1) array that pads the steps' own (n + 1 - r, r).
    A piece takes consecutive whole steps while that array stays within
    ``share`` and pads no more lanes than the steps use; a step of more than
    ``share`` weights is cut into pieces of max(1, share // r) values of m.
    A block takes consecutive pieces while their lanes stay within
    ``share``, and at least one.  Returns the blocks and the most lanes one
    of them holds."""
    n = carr.size - 2
    pieces = []
    r0 = n + 1 - int(np.count_nonzero(carr[1:-1]))  # c is non-decreasing: zeros lead
    while r0 <= n:
        rows = n + 1 - r0
        if rows * r0 > share:
            cut = max(1, share // r0)
            pieces += [(r0, r0, a, min(a + cut, rows)) for a in range(0, rows, cut)]
            r0 += 1
            continue
        r1, used = r0, rows * r0
        while r1 < n:
            lanes, more = (r1 + 2 - r0) * rows * (r1 + 1), used + (n - r1) * (r1 + 1)
            if lanes > share or lanes > 2 * more:
                break
            r1, used = r1 + 1, more
        pieces.append((r0, r1, 0, rows))
        r0 = r1 + 1
    blocks, held, most = [], 0, 0
    for piece in pieces:
        r0, r1, a, b = piece
        lanes = (r1 + 1 - r0) * (b - a) * r1
        if blocks and held + lanes <= share:
            blocks[-1].append(piece)
            held += lanes
        else:
            blocks.append([piece])
            held = lanes
        most = max(most, held)
    return blocks, most


def _block_weights(carr: np.ndarray, lgam: np.ndarray, lgam_nan: np.ndarray,
                   block: list[tuple[int, int, int, int]], logs: np.ndarray,
                   wide: np.ndarray) -> None:
    """The binomial weights of a block's pieces, one after another from the
    start of ``wide``, widened to extended precision.  In a piece's array,
    step r's weights for m are row m of its (n + 1 - r, r) matrix; the other
    lanes hold nan or numbers nothing reads.  The float64 ``logs`` holds the
    exponents, and the terms added to them fill the bytes of ``wide``.
    lgam[k] = log (k-1)!, and lgam_nan[n + k] = lgam[k] for k >= 2 and nan
    for k <= 1."""
    n = carr.size - 2
    ints = np.arange(n + 1)
    counts = ints.astype(np.float64)  # 0..r-1 in each step's lanes
    term = wide.view(np.float64)
    o = 0
    # the error state is per thread, so each worker sets its own
    with np.errstate(all="ignore"):
        for r0, r1, a, b in block:
            shape = (r1 + 1 - r0, b - a, r1)
            lanes = shape[0] * shape[1] * shape[2]
            steps = ints[r0 : r1 + 1, None]
            x = carr[r0 : r1 + 1, None] / carr[r0 + 1 + a : r0 + 1 + b]
            # binomial pmf over counts 0..r-1, log-space for stability near
            # x = 1: logs = (lcomb + log(x) counts) + log1p(-x) (r - counts),
            # in that order.  Lanes past a step's own counts take nan from
            # lgam_nan, which exp passes at full speed (inf or an underflow
            # would not)
            lcomb = lgam[steps + 1] - lgam[1 : r1 + 1] - lgam_nan[n + 1 + steps - ints[:r1]]
            piece = logs[o : o + lanes].reshape(shape)
            np.multiply(np.log(x)[:, :, None], counts[:r1], out=piece)
            piece += lcomb[:, None, :]
            np.multiply(np.log1p(-x)[:, :, None], (steps - counts[:r1])[:, None, :],
                        out=term[o : o + lanes].reshape(shape))
            o += lanes
        logs = logs[:o]
        logs += term[:o]
        # exp stays in float64 (a longdouble exp would change the weights' bits)
        np.exp(logs, out=logs)
    np.copyto(wide[:o], logs)


def noncrossing_probability_exact(b: SmirnovBoundary) -> float:
    """P(U_(j) >= c_j for all j) for n iid uniforms, by the conditioning
    recursion; O(n^3) work, extended-precision accumulation.

    Warns above n = 200 (binomial weights start losing digits) and refuses
    above the ``exact_n`` budget, both before any work starts.  The callers
    that build a boundary from n check that budget before they build it.

    Step r's binomial weights depend on the boundary alone, so they are
    computed ahead, in blocks of consecutive steps of at most MC_CHUNK //
    CPUs weights, padding included (a larger step is cut into blocks of its
    own).  The blocks run on min(CPUs in the process's affinity mask,
    blocks) workers: the calling thread and one started thread per further
    worker, so a one-block call (n up to 57 on 2 CPUs) starts none.  A
    worker computes a block's weights, waits until the block before it has
    added up its steps, then adds up its own in step order.  Every weight
    goes through the same float64 operations and every sum is the same
    extended-precision dot, so the value is bit-identical at any worker
    count; an exception in a worker re-raises here.  The calling thread
    allocates every buffer: the table of G, 8 (n + 1)(n + 2) bytes, and 24
    bytes a weight for each worker's block, 24 max(MC_CHUNK, workers n)
    bytes (3 MiB) at most in all; each worker adds NumPy's iterator buffer,
    about 128 KiB.  At n = 400 the traced peak is 4.5 MiB on 1 CPU, 4.6 MiB
    on 2 and 4.9 MiB on 4.
    """
    n = b.n
    check_budget("exact_n", n)
    if n > PRECISION_WARN_AT:
        warnings.warn(f"n = {n} > {PRECISION_WARN_AT}: precision may degrade", RuntimeWarning)
    # carr[m] = c_m for 1 <= m <= n, with the sentinel c_{n+1} = 1 (full scale)
    carr = np.concatenate([[0.0], np.asarray(b.c, dtype=np.float64), [1.0]])
    lgam = np.array([log_gamma_int(k) for k in range(n + 2)])  # lgam[k] = log (k-1)!
    lgam_nan = np.concatenate([np.full(n + 2, np.nan), lgam[2:]])
    # G(r, c_m) for r < m <= n + 1, column by column: G[col[m] + r]; a step
    # with c_r = 0 has G(r, c_m) = 1, as row 0 has
    col = np.arange(n + 2) * np.arange(-1, n + 1) // 2
    G = np.empty((n + 1) * (n + 2) // 2, dtype=np.longdouble)
    zeros = n - int(np.count_nonzero(carr[1:-1]))
    for r in range(zeros + 1):
        G[col[r + 1 :] + r] = 1.0
    cpus = _cpus()
    blocks, most = _blocks(carr, MC_CHUNK // cpus)
    workers = min(cpus, len(blocks))
    # every buffer comes from the calling thread's heap, which reuses it
    # after the call; a started thread's heap would keep it
    bufs = [(np.empty(most), np.empty(most, dtype=np.longdouble)) for _ in range(workers)]
    row = np.empty(n, dtype=np.longdouble)  # the sums run one block at a time

    def weights(w: int, i: int) -> None:
        _block_weights(carr, lgam, lgam_nan, blocks[i], *bufs[w])

    def sums(w: int, i: int) -> None:
        wide = bufs[w][1]
        o = 0
        for r0, r1, a, b in blocks[i]:
            shape = (r1 + 1 - r0, b - a, r1)
            piece = wide[o : o + shape[0] * shape[1] * shape[2]].reshape(shape)
            o += piece.size
            for r in range(r0, r1 + 1):
                t = max(0, r - r0 - a)  # the first lane with m > r
                cells = col[r0 + 1 + a + t : r0 + 1 + b] + r
                # np.dot adds each row's products in index order in one
                # extended-precision accumulator
                out = row[: cells.size]
                np.dot(piece[r - r0, t:, :r], G[col[r] : col[r] + r], out=out)
                G[cells] = out

    _on_workers(workers, len(blocks), weights, sums)
    return float(G[-1])


def _batch_hits(c: np.ndarray, seed: int, i: int, size: int,
                buf: np.ndarray, above: np.ndarray) -> int:
    """How many of batch i's ``size`` rows clear c.  The rows come from the
    batch's own generator, len(buf) at a time into the reused buffers."""
    gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, i))))
    hits = 0
    # consecutive fills of one generator give the bits of one whole-batch fill
    for lo in range(0, size, len(buf)):
        k = min(len(buf), size - lo)
        u, ok = buf[:k], above[:k]
        gen.random(out=u)
        u.sort(axis=1)
        np.greater_equal(u, c, out=ok)
        hits += int(ok.all(axis=1).sum())
    return hits


def noncrossing_probability_mc(
    b: SmirnovBoundary, samples: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate and binomial standard error of the non-crossing
    probability.  Batch i of MC_BATCH rows draws from SFC64 seeded with
    SeedSequence((seed, i)).

    The batches run on min(CPUs in the process's affinity mask, batches)
    workers: the calling thread and one started thread per further worker,
    so a one-batch call starts none.  Each worker counts its hits in an
    integer, so the estimate and its error are bit-identical at any worker
    count; an exception in a worker stops the others' claims and re-raises
    here.  A worker fills, sorts and tests max(1, MC_CHUNK // workers // n)
    rows at a time, in one reused float64 buffer and one bool buffer: at
    most 9 workers max(n, MC_CHUNK // workers) bytes in all, whatever the
    batch or sample count.  Refuses past the ``mc_uniforms`` budget of
    samples * n uniforms before any is drawn."""
    samples, seed = _integer("samples", samples), _integer("seed", seed)
    if samples < MC_MIN_SAMPLES:
        raise PreconditionError(f"needs at least {MC_MIN_SAMPLES} samples")
    if seed < 0:
        raise PreconditionError("needs seed >= 0")
    check_budget("mc_uniforms", samples * b.n)
    c = np.asarray(b.c, dtype=np.float64)
    batches = -(-samples // MC_BATCH)
    workers = min(_cpus(), batches)
    rows = max(1, min(MC_BATCH, samples, MC_CHUNK // workers // b.n))
    # every worker's buffers come from the calling thread's heap, which
    # reuses them after the call; a started thread's heap would keep them
    bufs = [(np.empty((rows, b.n)), np.empty((rows, b.n), dtype=bool)) for _ in range(workers)]
    hits = [0] * workers

    def count(w: int, i: int) -> None:
        size = min(MC_BATCH, samples - i * MC_BATCH)
        hits[w] += _batch_hits(c, seed, i, size, *bufs[w])

    _on_workers(workers, batches, count)
    est = sum(hits) / samples
    return est, math.sqrt(est * (1.0 - est) / samples)


def check_line(u: float, w: float) -> None:
    """Raise PreconditionError unless u and w are finite and positive, as
    the line approximation 1 - exp(-2uw/n) needs."""
    _require_finite(u=u, w=w)
    if u <= 0 or w <= 0:
        raise PreconditionError("needs u, w > 0")


def q_n(u: float, w: float, n: int) -> float:
    """Probability that the empirical count stays below (n+w-u)t + u, i.e.
    the exact value approximated by 1 - exp(-2uw/n) up to O((u+w)/n)."""
    n = _integer("n", n)
    check_line(u, w)
    check_budget("exact_n", n)
    return noncrossing_probability_exact(SmirnovBoundary.from_line(n, u, w))


def _scaled(n: int, N: float, v: float) -> float:
    """(N^n / n!) v through logarithms: 0 for v <= 0, inf past the float range."""
    if v <= 0.0:
        return 0.0
    try:
        return math.exp(n * math.log(N) - math.lgamma(n + 1) + math.log(v))
    except OverflowError:
        return math.inf


def region_volume(n: int, N: float, alpha: float, beta: float) -> float:
    """Volume of {0 <= x_1 <= ... <= x_n <= N, x_j >= alpha j - beta}.

    Equals (N^n / n!) P(U_(j) >= c_j) with c_j = clamp((alpha j - beta)/N):
    scaling the box to [0, 1] turns the sorted coordinates into uniform
    order statistics.  Returns 0 for an empty region.
    """
    n = _integer("n", n)
    if n < 1:
        raise PreconditionError("needs n >= 1")
    _require_finite(N=N, alpha=alpha, beta=beta)
    if alpha * n - beta > N:
        return 0.0
    check_budget("exact_n", n)
    vol = _scaled(n, N, noncrossing_probability_exact(SmirnovBoundary.from_region(n, N, alpha, beta)))
    if vol == math.inf:
        raise BudgetError("volume exceeds float range; use the normalized probability")
    return vol


@dataclass
class SandwichReport:
    """Two-sided envelope X/4 <= volume <= 3X with X = (N^n/n!) uw/n.

    ``factor`` is uw/n = beta (N - alpha n + beta) / (n alpha^2); the
    ``probability`` and its envelope [factor/4, 3*factor] carry the same
    content as the raw volume fields with the (N^n/n!) scale divided out,
    and stay finite when the raw values overflow.
    """

    lower: float
    upper: float
    volume: float
    hypotheses_met: bool
    lower_applicable: bool
    factor: float
    probability: float


def volume_sandwich(n: int, N: float, alpha: float, beta: float) -> SandwichReport:
    """Compare the exact region volume against the closed-form envelope.

    ``hypotheses_met`` records beta >= C*alpha and C <= (N - alpha n + beta)
    / alpha for the constant C = SANDWICH_C; the lower envelope additionally
    needs factor <= 1 (``lower_applicable``).  Callers assert containment
    only when the flags hold; otherwise the report is informational.
    """
    n = _integer("n", n)
    if n < 1:
        raise PreconditionError("needs n >= 1")
    if alpha <= 0:
        raise PreconditionError("needs alpha > 0")
    u = beta / alpha
    w = (N - alpha * n + beta) / alpha
    factor = u * w / n
    check_budget("exact_n", n)
    p = noncrossing_probability_exact(SmirnovBoundary.from_region(n, N, alpha, beta))
    return SandwichReport(
        lower=_scaled(n, N, factor) / 4,
        upper=3 * _scaled(n, N, factor),
        volume=_scaled(n, N, p),
        hypotheses_met=(beta >= SANDWICH_C * alpha) and (SANDWICH_C <= w),
        lower_applicable=factor <= 1.0,
        factor=factor,
        probability=p,
    )
