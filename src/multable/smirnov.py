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
SeedSequence((seed, i)), so results are bit-identical under any parallel
schedule.  This stream replaced 0.1.0's Philox keyed (seed, batch): Monte
Carlo estimates differ from 0.1.0 at the same seed, exact values do not.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, PreconditionError

EXACT_BUDGET = 400
PRECISION_WARN_AT = 200
MC_MIN_SAMPLES = 10**4
MC_MAX_UNIFORMS = 1 << 32  # max samples * n of one Monte Carlo call, about 40 s
MC_BATCH = 1 << 14

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
        _require_finite(u=u, w=w)
        if n + w - u <= 0:
            raise PreconditionError("needs n + w - u > 0")
        j = np.arange(1, n + 1, dtype=np.float64)
        return cls(tuple(np.clip((j - u) / (n + w - u), 0.0, 1.0).tolist()))

    @classmethod
    def from_region(cls, n: int, N: float, alpha: float, beta: float) -> "SmirnovBoundary":
        """c_j = clamp((alpha j - beta) / N); constraints below 0 are vacuous,
        boundaries clamped at 1 force emptiness."""
        _require_finite(N=N, alpha=alpha, beta=beta)
        if N <= 0:
            raise PreconditionError("needs N > 0")
        j = np.arange(1, n + 1, dtype=np.float64)
        return cls(tuple(np.clip((alpha * j - beta) / N, 0.0, 1.0).tolist()))


def check_exact_budget(n: int, budget: int = EXACT_BUDGET) -> None:
    """Raise BudgetError when n points exceed the recursion's budget; callers
    check before they build an n-point boundary."""
    if n > budget:
        raise BudgetError(f"n = {n} beyond recursion budget {budget}")


def noncrossing_probability_exact(b: SmirnovBoundary, budget: int = EXACT_BUDGET) -> float:
    """P(U_(j) >= c_j for all j) for n iid uniforms, by the conditioning
    recursion; O(n^3) work, extended-precision accumulation.

    Warns above n = 200 (binomial weights start losing digits) and refuses
    above the budget, which defaults to 400 and can be raised explicitly.
    """
    n = b.n
    check_exact_budget(n, budget)
    if n > PRECISION_WARN_AT:
        warnings.warn(f"n = {n} > {PRECISION_WARN_AT}: precision may degrade", RuntimeWarning)
    # carr[m] = c_m for 1 <= m <= n, with the sentinel c_{n+1} = 1 (full scale)
    carr = np.concatenate([[0.0], np.asarray(b.c, dtype=np.float64), [1.0]])
    lgam = np.array([log_gamma_int(k) for k in range(n + 2)])  # lgam[k] = log (k-1)!
    # F[r, m] = G(r, c_m) for r < m <= n+1
    F = np.zeros((n + 1, n + 2), dtype=np.longdouble)
    F[0, :] = 1.0
    # the binomial weights of one step: their logs in two float64 buffers,
    # then widened to extended precision in a third; the largest step holds
    # (n + 1 - r) * r <= (n + 2)^2 / 4 weights
    size = (n + 2) ** 2 // 4
    lbuf, tbuf = np.empty(size), np.empty(size)
    wbuf = np.empty(size, dtype=np.longdouble)
    for r in range(1, n + 1):
        cr = carr[r]
        if cr == 0.0:
            F[r, r + 1 :] = 1.0
            continue
        x = cr / carr[r + 1 :]
        # binomial pmf over counts 0..r-1, log-space for stability near x = 1
        rr = np.arange(r, dtype=np.float64)
        lcomb = lgam[r + 1] - lgam[1 : r + 1] - lgam[r + 1 : 1 : -1]
        shape = (x.size, r)
        logs = lbuf[: x.size * r].reshape(shape)
        term = tbuf[: x.size * r].reshape(shape)
        # logs = (lcomb + log(x) rr) + log1p(-x) (r - rr), in that order
        with np.errstate(divide="ignore"):
            np.outer(np.log(x), rr, out=logs)
            np.outer(np.log1p(-x), r - rr, out=term)
        logs += lcomb
        logs += term
        # exp stays in float64 (a longdouble exp would change the weights'
        # bits); np.dot adds each row's products in index order in one
        # extended-precision accumulator
        np.exp(logs, out=logs)
        w = wbuf[: x.size * r].reshape(shape)
        np.copyto(w, logs)
        np.dot(w, F[:r, r], out=F[r, r + 1 :])
    return float(F[n, n + 1])


def noncrossing_probability_mc(
    b: SmirnovBoundary, samples: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate and binomial standard error of the non-crossing
    probability.  Batch i of MC_BATCH rows draws from SFC64 seeded with
    SeedSequence((seed, i)), so the result is independent of scheduling and
    thread count; the batches share one reused buffer.  Refuses past
    MC_MAX_UNIFORMS uniforms, samples * n, before any is drawn."""
    if samples < MC_MIN_SAMPLES:
        raise PreconditionError(f"needs at least {MC_MIN_SAMPLES} samples")
    if seed < 0:
        raise PreconditionError("needs seed >= 0")
    if samples * b.n > MC_MAX_UNIFORMS:
        raise BudgetError(f"{samples} samples of n = {b.n} exceed {MC_MAX_UNIFORMS} uniforms")
    c = np.asarray(b.c, dtype=np.float64)
    buf = np.empty((min(MC_BATCH, samples), b.n))
    hits = 0
    for i, start in enumerate(range(0, samples, MC_BATCH)):
        u = buf[: min(MC_BATCH, samples - start)]
        gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, i))))
        gen.random(out=u)
        u.sort(axis=1)
        hits += int((u >= c).all(axis=1).sum())
    est = hits / samples
    return est, math.sqrt(est * (1.0 - est) / samples)


def check_line(u: float, w: float) -> None:
    """Raise PreconditionError unless u and w are finite and positive, as
    the line approximation 1 - exp(-2uw/n) needs."""
    _require_finite(u=u, w=w)
    if u <= 0 or w <= 0:
        raise PreconditionError("needs u, w > 0")


def q_n(u: float, w: float, n: int, budget: int = EXACT_BUDGET) -> float:
    """Probability that the empirical count stays below (n+w-u)t + u, i.e.
    the exact value approximated by 1 - exp(-2uw/n) up to O((u+w)/n)."""
    check_line(u, w)
    check_exact_budget(n, budget)
    return noncrossing_probability_exact(SmirnovBoundary.from_line(n, u, w), budget=budget)


def region_volume(n: int, N: float, alpha: float, beta: float, budget: int = EXACT_BUDGET) -> float:
    """Volume of {0 <= x_1 <= ... <= x_n <= N, x_j >= alpha j - beta}.

    Equals (N^n / n!) P(U_(j) >= c_j) with c_j = clamp((alpha j - beta)/N):
    scaling the box to [0, 1] turns the sorted coordinates into uniform
    order statistics.  Returns 0 for an empty region.
    """
    _require_finite(N=N, alpha=alpha, beta=beta)
    if alpha * n - beta > N:
        return 0.0
    check_exact_budget(n, budget)
    p = noncrossing_probability_exact(SmirnovBoundary.from_region(n, N, alpha, beta), budget=budget)
    if p == 0.0:
        return 0.0
    log_vol = n * math.log(N) - math.lgamma(n + 1) + math.log(p)
    try:
        return math.exp(log_vol)
    except OverflowError:
        raise BudgetError("volume exceeds float range; use the normalized probability")


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


def volume_sandwich(
    n: int, N: float, alpha: float, beta: float, C: float = 8.0, budget: int = EXACT_BUDGET
) -> SandwichReport:
    """Compare the exact region volume against the closed-form envelope.

    ``hypotheses_met`` records beta >= C*alpha and C <= (N - alpha n + beta)
    / alpha for the configurable constant C; the lower envelope additionally
    needs factor <= 1 (``lower_applicable``).  Callers assert containment
    only when the flags hold; otherwise the report is informational.
    """
    if alpha <= 0:
        raise PreconditionError("needs alpha > 0")
    u = beta / alpha
    w = (N - alpha * n + beta) / alpha
    factor = u * w / n
    check_exact_budget(n, budget)
    p = noncrossing_probability_exact(SmirnovBoundary.from_region(n, N, alpha, beta), budget=budget)
    log_scale = n * math.log(N) - math.lgamma(n + 1)
    def scaled(v: float) -> float:
        if v <= 0.0:
            return 0.0
        try:
            return math.exp(log_scale + math.log(v))
        except OverflowError:
            return math.inf
    return SandwichReport(
        lower=scaled(factor) / 4,
        upper=3 * scaled(factor),
        volume=scaled(p),
        hypotheses_met=(beta >= C * alpha) and (C <= w),
        lower_applicable=factor <= 1.0,
        factor=factor,
        probability=p,
    )
