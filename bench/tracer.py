"""An outside tracer for the ``multable`` package.

It wraps every public function of each module in a span recorder, from
outside the package: the wrapper replaces the function in its defining
module and in every module that bound it with ``from .x import y``, so
calls between modules and within one module both pass through it.  Public
methods of ``ArithmeticProgression`` and ``ExperimentReport.to_json`` are
wrapped on their classes.  Modules are reached through
``sys.modules["multable.<name>"]`` because the package's ``__init__``
shadows ``multable.energy`` with the function ``energy``.

Spans are kept in memory as (name, start, end, parent, job) tuples.  A
span's self time is its duration minus the time its child spans cover.
Work counts (pairs, cells, elements, ...) are taken from the arguments at
the same boundaries and kept beside the span.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction

LAYERS = ("experiments", "energy", "sieve", "reduction", "primestats", "smirnov", "progressions")


def _size(s) -> int:
    return len(set(s))


def _arg(args, kwargs, i, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[i] if len(args) > i else default


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.info: dict[int, dict] = {}
        self._stack: list[int] = []
        self._saved: list = []
        self.job = -1

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the package's modules."""
        mods = [m for n, m in sys.modules.items() if n == "multable" or n.startswith("multable.")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules["multable." + layer]
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        ap_cls = sys.modules["multable.progressions"].ArithmeticProgression
        for attr, obj in list(vars(ap_cls).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                self._saved.append((ap_cls, attr, obj))
                setattr(ap_cls, attr, self._wrap(f"progressions.ArithmeticProgression.{attr}", obj))
        rep_cls = sys.modules["multable.experiments"].ExperimentReport
        self._saved.append((rep_cls, "to_json", rep_cls.to_json))
        rep_cls.to_json = self._wrap("experiments.to_json", rep_cls.to_json)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, self.info
        hook = _HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if hook is not None:
                t0 = clock()
                info[idx] = hook(args, kwargs, result)
                # the hook's own time is a child of the caller, so it is not
                # charged to the caller's self time
                spans.append(("trace.hook", t0, clock(), parent, self.job))
            return result

        return wrapper

    # -- jobs ---------------------------------------------------------------

    def run_job(self, job_id, fn, *args):
        """Run fn(*args) inside a root span for one job."""
        self.job = job_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = ("job", start, end, -1, job_id)

    def take(self) -> tuple[list, dict]:
        """Hand over the spans recorded so far and start afresh."""
        spans, info = list(self.spans), dict(self.info)
        self.spans.clear()
        self.info.clear()
        return spans, info


# -- work counts taken at the span boundaries ---------------------------------


def _energy_hook(args, kwargs, result):
    A = _arg(args, kwargs, 0, "A")
    B = _arg(args, kwargs, 1, "B")
    na = _size(A)
    # product side |A||B|, quotient side |A|^2, plus |B|^2 for a pair
    if B is None:
        pairs = 2 * na * na
    else:
        nb = _size(B)
        pairs = na * nb + na * na + nb * nb
    key = (hash(tuple(A)), None if B is None else hash(tuple(B)))
    return {"pairs": pairs, "key": key}


def _product_set_hook(args, kwargs, result):
    return {"pairs": _size(_arg(args, kwargs, 0, "A")) * _size(_arg(args, kwargs, 1, "B"))}


def _table_count_hook(args, kwargs, result):
    N = _arg(args, kwargs, 0, "N")
    return {"cells": N * (N + 1) // 2}


def _interval_hook(args, kwargs, result):
    lo, hi = _arg(args, kwargs, 0, "lo"), _arg(args, kwargs, 1, "hi")
    return {"elements": hi - lo, "lists": bool(_arg(args, kwargs, 2, "factor_lists", True))}


def _exact_hook(args, kwargs, result):
    n = _arg(args, kwargs, 0, "b").n
    return {"cells": n * (n + 1) * (n + 2) // 6}  # sum over r of r (n + 1 - r)


def _mc_hook(args, kwargs, result):
    return {"uniforms": _arg(args, kwargs, 1, "samples") * _arg(args, kwargs, 0, "b").n}


# elements of a sieved interval that its caller goes on to read
def _nk_reads(args, kwargs, result):
    return {"reads": _arg(args, kwargs, 5, "L")}


def _reduce_reads(args, kwargs, result):
    L, delta = _arg(args, kwargs, 2, "L"), Fraction(_arg(args, kwargs, 3, "delta", "1"))
    return {"reads": math.ceil(delta * L)}


def _shiu_reads(args, kwargs, result):
    q = _arg(args, kwargs, 0, "q")
    return {"reads": -(-q.y // q.k)}


def _ap_reads(args, kwargs, result):
    return {"reads": _arg(args, kwargs, 0, "ap").L}


_HOOKS = {
    "energy.energy": _energy_hook,
    "energy.product_set": _product_set_hook,
    "experiments.table_count": _table_count_hook,
    "sieve.build_table": _interval_hook,
    "sieve.prime_flags_interval": _interval_hook,
    "smirnov.noncrossing_probability_exact": _exact_hook,
    "smirnov.noncrossing_probability_mc": _mc_hook,
    "experiments.cmd_nk": _nk_reads,
    "experiments.cmd_reduce": _reduce_reads,
    "primestats.shiu_mean": _shiu_reads,
    "primestats.prime_count_ap": _ap_reads,
}


# -- per-layer metrics -----------------------------------------------------------


def self_times(spans) -> list[float]:
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(spans, info) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    own = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    idx: dict[str, list[int]] = defaultdict(list)  # spans by name, for hooked calls that returned
    for i, (s, t) in enumerate(zip(spans, own)):
        by_name[s[0]] += t
        if i in info:
            idx[s[0]].append(i)

    def st(name):
        return by_name.get(name, 0.0)

    def total(name, key):
        return sum(info[i][key] for i in idx[name])

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, t in by_name.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += t
    for layer, t in layer_self.items():
        m[f"{layer}.self_s"] = t
        m[f"{layer}.self_frac"] = ratio(t, sum(layer_self.values()))

    # energy
    e_idx = idx["energy.energy"]
    seen, repeats = set(), 0
    for i in e_idx:
        key = (spans[i][4], info[i]["key"])
        repeats += key in seen
        seen.add(key)
    m["energy.energy.self_s"] = st("energy.energy")
    m["energy.energy.calls"] = len(e_idx)
    m["energy.energy.pairs"] = total("energy.energy", "pairs")
    m["energy.energy.pairs_per_s"] = ratio(m["energy.energy.pairs"], st("energy.energy"))
    m["energy.energy.repeat_frac"] = ratio(repeats, len(e_idx))
    m["energy.product_set.self_s"] = st("energy.product_set")
    m["energy.product_set.pairs"] = total("energy.product_set", "pairs")
    m["energy.offdiag_tuples.self_s"] = st("energy.offdiag_tuples")

    # experiments
    m["experiments.table_count.self_s"] = st("experiments.table_count")
    m["experiments.table_count.cells"] = total("experiments.table_count", "cells")
    m["experiments.cmd.self_s"] = sum(t for n, t in by_name.items() if n.startswith("experiments.cmd_"))
    m["experiments.to_json.s"] = sum(s[2] - s[1] for s in spans if s[0] == "experiments.to_json")

    # sieve
    bt = idx["sieve.build_table"]
    m["sieve.build_table.self_s"] = st("sieve.build_table")
    m["sieve.build_table.calls"] = len(bt)
    m["sieve.build_table.elements"] = total("sieve.build_table", "elements")
    m["sieve.build_table.elements_per_s"] = ratio(m["sieve.build_table.elements"], st("sieve.build_table"))
    m["sieve.build_table.lists_share"] = ratio(
        sum(own[i] for i in bt if info[i]["lists"]), st("sieve.build_table")
    )
    sieved = read = 0
    for i in bt + idx["sieve.prime_flags_interval"]:
        n = info[i]["elements"]
        reads = _caller_reads(spans, info, i)
        sieved += n
        read += n if reads is None else min(reads, n)
    m["sieve.useful_frac"] = ratio(read, sieved)
    for fn in ("prime_flags_interval", "square_parts", "mertens_sum", "sieve_primes", "factorize"):
        m[f"sieve.{fn}.self_s"] = st(f"sieve.{fn}")
    m["sieve.factorize.calls"] = sum(1 for s in spans if s[0] == "sieve.factorize")

    # reduction
    m["reduction.reduce.self_s"] = st("reduction.reduce")
    m["reduction.reduce.calls"] = sum(1 for s in spans if s[0] == "reduction.reduce")
    m["reduction.largest_square_class.self_s"] = st("reduction.largest_square_class")
    m["reduction.trimmed_set.self_s"] = st("reduction.trimmed_set")

    # primestats
    for fn in ("nk_set", "nk_last_prime_extension", "prime_count_ap", "shiu_mean"):
        m[f"primestats.{fn}.self_s"] = st(f"primestats.{fn}")

    # smirnov
    exact, mc = "smirnov.noncrossing_probability_exact", "smirnov.noncrossing_probability_mc"
    m["smirnov.exact.self_s"] = st(exact)
    m["smirnov.exact.calls"] = len(idx[exact])
    m["smirnov.exact.cells"] = total(exact, "cells")
    m["smirnov.exact.cells_per_s"] = ratio(m["smirnov.exact.cells"], st(exact))
    m["smirnov.mc.self_s"] = st(mc)
    m["smirnov.mc.uniforms"] = total(mc, "uniforms")
    m["smirnov.mc.uniforms_per_s"] = ratio(m["smirnov.mc.uniforms"], st(mc))
    m["smirnov.volume_sandwich.self_s"] = st("smirnov.volume_sandwich")
    return m


def _caller_reads(spans, info, i):
    """Elements the nearest caller with known read pattern takes from span i's
    interval; None when the job itself asked for the table."""
    p = spans[i][3]
    while p >= 0:
        if p in info and "reads" in info[p]:
            return info[p]["reads"]
        p = spans[p][3]
    return None


def median_metrics(per_pass: list[dict]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}


def write_spans(path, passes) -> None:
    """Write the spans of every traced pass, one JSON array per line:
    [pass, name, start, end, parent, job]."""
    with open(path, "w") as fh:
        for p, spans in enumerate(passes):
            for s in spans:
                fh.write(json.dumps([p, *s]) + "\n")
