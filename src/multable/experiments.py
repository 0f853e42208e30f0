"""Experiment commands with machine-readable reports.

Each command is declared once, by ``@command`` over a body that wraps
library operations; it records the exact inputs it ran with, and returns an
``ExperimentReport`` whose result rows are fully reproducible from (command,
parameters, seed); wall time and version land in the provenance block only.
Normalizations use the multiplication-table exponent
theta = 1 - (1 + log log 4)/log 4 and natural logarithms throughout.
"""

from __future__ import annotations

import csv
import functools
import inspect
import io
import json
import math
import numbers
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, log

import numpy as np

from . import __version__
from .energy import cs_floor, energy, offdiag_tuples
from .errors import BUDGETS, BudgetError, InternalCheckError, PreconditionError, check_budget
from .progressions import ArithmeticProgression, _integer, int_array
from .reduction import DirectBound, Reduced, large_a_energy_bound, reduce
from .primestats import NkQuery, ShiuQuery, nk_last_prime_extension, nk_set, shiu_mean
from .sieve import mertens_sum, progression_table
from .smirnov import (
    SmirnovBoundary,
    check_line,
    noncrossing_probability_exact,
    noncrossing_probability_mc,
)

TABLE_WINDOW = 1 << 21  # values per window of the table counter, about L2-sized


# the multiplication-table exponent theta; |A.A| of a progression is |A|^2 over
# (log |A|)^(2 theta + o(1)), and of a dense subset of one over (log |A|)^(2 log 2 - 1 + o(1))
THETA = 1.0 - (1.0 + log(log(4.0))) / log(4.0)
TWO_THETA = 2.0 * THETA
TWO_LOG2_MINUS_1 = 2.0 * log(2.0) - 1.0


@dataclass
class ExperimentReport:
    command: str
    params: dict
    results: list[dict]
    provenance: dict = field(default_factory=dict)

    def to_json(self, indent: int | None = 2) -> str:
        payload = {
            "command": self.command,
            "params": self.params,
            "results": self.results,
            "provenance": self.provenance,
        }
        return json.dumps(payload, indent=indent, default=str, allow_nan=False)

    def to_csv(self) -> str:
        buf = io.StringIO()
        fields: list[str] = []
        for row in self.results:
            for k in row:
                if k not in fields:
                    fields.append(k)
        writer = csv.DictWriter(buf, fieldnames=fields, quoting=csv.QUOTE_MINIMAL)
        writer.writeheader()
        for row in self.results:
            writer.writerow({k: _csv_cell(row.get(k)) for k in fields})
        return buf.getvalue()


def _csv_cell(v):
    if isinstance(v, float):
        return repr(v)
    return v


def _finite(value) -> bool:
    """Whether every float in a report value, nested lists and dicts
    included, is finite."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    return True


def _finish(
    command: str, params: dict, results: list[dict], seed: int, threads: int, t0: float,
    kernel: dict | None = None,
) -> ExperimentReport:
    """The report, with provenance; ``kernel`` is the pair kernel's route
    and window counts, for the commands that ran it.  A non-finite float in
    the params or results is an internal failure: no report is valid JSON
    with one."""
    if not (_finite(params) and _finite(results)):
        raise InternalCheckError(f"non-finite value in the {command} report")
    provenance = {
        "seed": seed,
        "threads": threads,
        "version": __version__,
        "wall_time_ms": round(1000.0 * (time.perf_counter() - t0), 3),
    }
    if kernel is not None:
        provenance["kernel"] = kernel
    return ExperimentReport(command=command, params=params, results=results, provenance=provenance)


# name -> (help, argparse (flag, keywords) pairs, command); one subcommand each
COMMANDS: dict[str, tuple] = {}


def command(name: str, help: str, *args: tuple[str, dict]):
    """Declare the command ``name``: ``args`` are argparse's (flag, keywords)
    pairs, each dest a parameter of the body, which returns (params, results)
    or (params, results, kernel).  The command takes the body's parameters,
    then ``seed`` and ``threads`` (default 0); it reads them and every
    ``type=int`` argument as Python ints, refuses a negative seed and a
    non-number ``type=float`` argument (None where the default is None), and
    reports the body's result with its wall time."""
    declared = {kw.get("dest", flag.lstrip("-")): kw for flag, kw in args}
    ints = {"seed", "threads"} | {k for k, kw in declared.items() if kw.get("type") is int}
    floats = {k for k, kw in declared.items() if kw.get("type") is float}
    nullable = {k for k, kw in declared.items() if kw.get("default", 0) is None}

    def declare(body):
        sig = inspect.signature(body)
        extra = [inspect.Parameter(k, inspect.Parameter.POSITIONAL_OR_KEYWORD, default=0)
                 for k in ("seed", "threads") if k not in sig.parameters]
        full = sig.replace(parameters=[*sig.parameters.values(), *extra])

        @functools.wraps(body)
        def run(*a, **kw):
            bound = full.bind(*a, **kw)
            bound.apply_defaults()
            kw = bound.arguments
            for k, v in kw.items():
                if v is None and k in nullable:
                    continue
                if k in ints:
                    kw[k] = _integer(k, v)
                elif k in floats and not isinstance(v, numbers.Real):
                    raise PreconditionError(f"{k} must be a number")
            if kw["seed"] < 0:
                raise PreconditionError("seed must be non-negative")
            seed, threads = kw["seed"], kw.pop("threads")
            if "seed" not in sig.parameters:
                del kw["seed"]
            t0 = time.perf_counter()
            params, results, *kernel = body(**kw)
            return _finish(name, params, results, seed, threads, t0, *kernel)

        run.__signature__ = full
        COMMANDS[name] = (help, args, run)
        return run

    return declare


def table_count(N: int) -> int:
    """|[N].[N]| exactly, by a sweep over value windows [v, v + W).

    In a window, row i of the table (i <= j) holds the products i*j with j
    in [max(i, ceil(v/i)), min(N, (v + W - 1)//i)], one progression of step
    i, so each row is one strided slice of a reused bool buffer of
    W = TABLE_WINDOW entries.  Memory is O(W) for every N.
    """
    if N < 1:
        raise PreconditionError("N must be >= 1")
    check_budget("table_n", N)
    W = min(TABLE_WINDOW, N * N)
    win = np.empty(W, dtype=bool)
    total = 0
    for v in range(1, N * N + 1, W):
        end = v + W - 1
        win[:] = False
        for i in range((v + N - 1) // N, min(N, isqrt(end)) + 1):
            # plain comparisons: this loop runs about N^3 / (6W) times
            lo = (v + i - 1) // i
            if lo < i:
                lo = i
            hi = end // i
            if hi > N:
                hi = N
            # no multiple of i in the window: i*lo > end, so the slice is empty
            win[i * lo - v : i * hi - v + 1 : i] = True
        total += int(np.count_nonzero(win))
    return total


def normalized_ratio(N: int, count: int) -> float | None:
    """count * (log N)^(2 theta) (log log N)^(3/2) / N^2, defined for N >= 3."""
    if N < 3:
        return None
    return count * log(N) ** TWO_THETA * log(log(N)) ** 1.5 / (N * N)


@command("table", "exact |[N].[N]| and its normalized ratio", ("N", {"type": int}))
def cmd_table(N: int):
    count = table_count(N)
    row = {"N": N, "count": count, "normalized_ratio": normalized_ratio(N, count)}
    return {"N": N, "two_theta": TWO_THETA}, [row]


_AP_ARGS = (("a", {"type": int}), ("d", {"type": int}), ("L", {"type": int}))


@command("ap-product", "product set and energy of a progression", *_AP_ARGS)
def cmd_ap_product(a: int, d: int, L: int):
    ap = ArithmeticProgression(a, d, L)
    zeros_removed = int(0 in ap)
    n = L - zeros_removed
    # L comes from outside: refuse before the elements are built, on the
    # budget the energy kernel enforces once they exist
    check_budget("kernel_pairs", n * n)
    A = ap.a + ap.d * int_array(np.arange(L), ap.a, ap.last, ap.d)
    A = A[A != 0]
    rep = energy(A)
    e, n_prod = rep.energy, rep.product_count
    bound_rhs = large_a_energy_bound(ap, subset_size=len(A)) if a > 0 and gcd(a, d) == 1 else None
    # offdiag_tuples sieves the progression, whose sieving primes (up to the
    # sieve budget) cover only elements below about 2^48
    factorable = a > 0 and L <= 512 and isqrt(ap.last) <= BUDGETS["sieve"]
    tuples = offdiag_tuples(A, energy_value=e) if factorable else None
    row = {
        "a": a, "d": d, "L": L,
        "zeros_removed": zeros_removed,
        "product_count": n_prod,
        "energy": e,
        "cs_lower_bound": cs_floor(len(A), len(A), e, n_prod),
        "energy_upper_bound": bound_rhs,
        "offdiag_tuples": tuples,
        "normalized_ratio": (
            n_prod * log(L) ** TWO_THETA / (L * L) if L >= 2 else None
        ),
    }
    return {"a": a, "d": d, "L": L, "two_theta": TWO_THETA}, [row], rep.kernel


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


@command("energy", "multiplicative energy of an explicit set", ("--set", {
    "dest": "values", "type": _int_list, "required": True,
    "help": "comma-separated integers, all in one argument; Linux caps one argument at 128 KiB, "
            "about 20,000 small integers, so call energy() in-process for larger sets"}))
def cmd_energy(values):
    A = int_array(values)
    zeros_removed = int(0 in A)
    A = A[A != 0]
    rep = energy(A)
    row = {
        "size": len(A),
        "zeros_removed": zeros_removed,
        "energy": rep.energy,
        "diag_bound": rep.diag_bound,
    }
    return {"size": len(A)}, [row], rep.kernel


@command("reduce", "run the reduction pipeline", *_AP_ARGS,
         ("--delta", {"default": "1", "help": "density in (0, 1] as a fraction, e.g. 3/10"}))
def cmd_reduce(a: int, d: int, L: int, delta: str = "1", seed: int = 0):
    # L comes from outside: refuse before the L elements are built
    check_budget("reduce_L", L)
    try:
        dlt = Fraction(delta)
    except (ValueError, ZeroDivisionError):
        raise PreconditionError(f"delta must be a fraction, got {delta!r}") from None
    if not 0 < dlt <= 1:
        raise PreconditionError(f"delta must be in (0, 1], got {delta}")
    ap = ArithmeticProgression(a, d, L)
    idx = np.arange(L)
    if dlt != 1:
        idx = np.sort(np.random.default_rng(seed).choice(L, size=math.ceil(dlt * L), replace=False))
    A = ap.a + ap.d * int_array(idx, ap.a, ap.last, ap.d)  # ascending, as idx is
    trace = reduce(A, ap, dlt)
    rows = [
        {
            "step": s.step,
            "density_before": str(s.density_before),
            "density_after": str(s.density_after),
            "length_after": s.length_after,
            "note": s.note,
        }
        for s in trace.steps
    ]
    out = trace.outcome
    if isinstance(out, DirectBound):
        rows.append({
            "step": "outcome", "note": "DirectBound",
            "subset_size": len(out.subset), "energy_value": out.energy_value,
        })
    elif isinstance(out, Reduced):
        rows.append({
            "step": "outcome", "note": "Reduced",
            "core_size": len(out.B), "m": out.m,
            "P_prime": f"({out.P_prime.a},{out.P_prime.d},{out.P_prime.L})",
        })
    rows.append(_omega_trim_row(A, ap))
    return {"a": a, "d": d, "L": L, "delta": str(dlt)}, rows


def _omega_trim_row(A, ap) -> dict:
    """Fraction of A retained after dropping elements with many distinct
    prime factors, at the cutoff loglog(a+dL) + loglog(a+dL)^(2/3)."""
    pos = A[np.searchsorted(A, 0, side="right"):]
    hull_hi = ap.last + 1
    skipped = {"step": "omega-trim", "note": "skipped (hull outside sieve budget)"}
    if not pos.size or hull_hi < 16:
        return skipped
    try:  # A lies in ap, so its positive members lie in ap's positive part
        table = progression_table(ap.positive_part(), factor_lists=False)
    except BudgetError:
        return skipped
    cut = log(log(hull_hi)) + log(log(hull_hi)) ** (2 / 3)
    kept = int(np.count_nonzero(table.omega_array[table.positions(pos)] <= cut))
    return {
        "step": "omega-trim",
        "omega_cutoff": cut,
        "retained_fraction": kept / len(pos),
        "note": f"{kept}/{len(pos)} kept at omega <= loglog + loglog^(2/3)",
    }


@command("nk", "constrained square-free counts N_k", *_AP_ARGS,
         ("--alpha", {"type": float, "required": True}), ("--beta", {"type": float, "required": True}),
         ("-k", {"type": int, "required": True}),
         ("--witness", {"action": "store_true", "help": "also count last-prime-extension witnesses"}))
def cmd_nk(alpha: float, beta: float, k: int, a: int, d: int, L: int, witness: bool = False):
    ap = ArithmeticProgression(a, d, L)
    table = progression_table(ap.positive_part() or ap)  # no positive element: refused
    q = NkQuery(alpha, beta, k, ap=ap)
    members = nk_set(q, table)
    # the asymptotic depth floor(loglog L / log 4 - 5 sqrt(loglog L)) - 4,
    # reading the garbled radical as sqrt(log log L); negative at desk scale
    kstar = None
    if L >= 3:
        ll = log(log(L))
        kstar = math.floor(ll / log(4) - 5.0 * math.sqrt(ll)) - 4
    row = {
        "alpha": alpha, "beta": beta, "k": k,
        "count": len(members),
        "members_preview": members[:20],
        "asymptotic_k": kstar,
        "asymptotic_k_note": "floor(loglog L / log 4 - 5 sqrt(loglog L)) - 4",
    }
    if witness:
        row["witness_count"] = nk_last_prime_extension(q, len(members))
    return {"alpha": alpha, "beta": beta, "k": k, "a": a, "d": d, "L": L}, [row]


@command("smirnov", "order-statistic boundary probability",
         ("-n", {"type": int, "default": None}),
         ("--c", {"type": _float_list, "default": None, "help": "comma-separated boundary values"}),
         ("-u", {"type": float, "default": None}),
         ("-w", {"type": float, "default": None}),
         ("--samples", {"type": int, "default": 0, "help": "Monte Carlo samples (0 = exact only)"}))
def cmd_smirnov(n: int | None = None, c: list[float] | None = None, u: float | None = None,
                w: float | None = None, samples: int = 0, seed: int = 0):
    if (u is None) != (w is None):
        raise PreconditionError("give u and w together")
    if u is not None:
        check_line(u, w)  # both forms: the line approximation needs them
    if c is not None:
        b = SmirnovBoundary.from_values(c)
    elif n is not None and u is not None and w is not None:
        check_budget("exact_n", n)
        b = SmirnovBoundary.from_line(n, u, w)
    else:
        raise PreconditionError("give either c or (n, u, w)")
    exact = noncrossing_probability_exact(b)
    row: dict = {"n": b.n, "exact": exact}
    if u is not None and w is not None:
        approx = 1.0 - math.exp(-2.0 * u * w / b.n)
        row["line_approx"] = approx
        row["deviation_stat"] = abs(exact - approx) * b.n / (u + w)
        if not math.isfinite(row["deviation_stat"]):  # u + w near the smallest float
            raise PreconditionError("u + w too small: the deviation statistic overflows")
    if samples:
        est, se = noncrossing_probability_mc(b, samples, seed)
        row["mc_estimate"] = est
        row["mc_stderr"] = se
    params = {"n": b.n, "c": list(b.c) if c is not None else None,
              "u": u, "w": w, "samples": samples}
    return params, [row]


@command("mertens", "sum of prime reciprocals up to x", ("x", {"type": int}))
def cmd_mertens(x: int):
    v = mertens_sum(x)
    row = {"x": x, "sum": v, "loglog_x": log(log(x)), "difference": v - log(log(x))}
    return {"x": x}, [row]


@command("shiu", "short-interval mean of z^omega(n) vs envelope",
         ("x", {"type": int}), ("y", {"type": int}),
         ("-k", {"type": int, "default": 1}), ("-a", {"type": int, "default": 0}),
         ("-z", {"type": float, "default": 1.0}))
def cmd_shiu(x: int, y: int, k: int, a: int, z: float):
    exact, bound = shiu_mean(ShiuQuery(x, y, k, a, z))
    row = {"x": x, "y": y, "k": k, "a": a, "z": z,
           "exact": exact, "bound": bound, "ratio": exact / bound}
    return {"x": x, "y": y, "k": k, "a": a, "z": z}, [row]
