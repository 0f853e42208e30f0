"""Seeded job lists for the four benchmark workloads, and the code that runs
and summarizes one job.

A job is one ``experiments.cmd_*`` call followed by ``report.to_json()``,
which is what ``multable <cmd>`` does once the interpreter has started.
Where no subcommand exists, a job is one public library call.  Jobs look
their functions up in ``sys.modules`` at call time, so the tracer's
wrappers apply when it is installed.

Parameters are drawn from ``random.Random("<workload>/<seed>")``; the
library sees only the generated inputs.  Where a size sets a job's cost
and a workload has several such jobs, the sizes sit on a fixed grid over
the range and the seed draws everything else (elements, starts, boundaries,
offsets), so every seed has the same spread of job sizes and pass times
and latency percentiles stay comparable between seeds.  Anchors are fixed
jobs that every seed runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from dataclasses import asdict

WORKLOADS = ("products-large", "small-sets", "primes", "boundary")
DEFAULT_SEED = 0
# never used while the workloads were tuned; digests are recorded for it too
HOLDOUT_SEED = 9001

LOG4 = math.log(4.0)
# build_table windows up to this length are checked prime by prime
PRIME_CHECK_WINDOW = 1 << 17


def cmd(name, anchor=None, **args):
    """A command job; an anchor is a fixed job every seed runs, named by its label."""
    return {"kind": "cmd", "name": name, "args": args, "anchor": anchor}


def lib(name, anchor=None, **args):
    return {"kind": "lib", "name": name, "args": args, "anchor": anchor}


def spec_key(job) -> str:
    """Stable identity of a job's inputs, used to look up recorded digests."""
    text = json.dumps([job["kind"], job["name"], job["args"]], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def digest(summary) -> str:
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def grid(lo: int, hi: int, k: int) -> list[int]:
    """The midpoints of k equal slices of [lo, hi]."""
    width = (hi - lo + 1) / k
    return [lo + int(width * (i + 0.5)) for i in range(k)]


def ap_elements(a: int, d: int, L: int) -> list[int]:
    return list(range(a, a + d * L, d))


def _coprime_start(rng, lo, hi, d):
    while True:
        a = rng.randint(lo, hi)
        if math.gcd(a, d) == 1:
            return a


# Seconds each random products-large job took at sizes across its range, at
# the seed commit on a 2-core VM; costs between the sizes are interpolated.
_COST = {
    "ap-product": ((256, 320, 384, 448, 512), (0.144, 0.321, 0.807, 0.812, 0.969)),
    "subset": ((768, 896, 1024), (0.495, 0.726, 0.898)),
    "interval": ((1000, 1250, 1500, 1750, 2048), (0.445, 0.873, 1.225, 1.88, 2.356)),
    "table": ((2048, 4096, 6144, 8192), (0.015, 0.074, 0.283, 0.66)),
}
_RANDOM_BUDGET = 3.4  # modelled seconds of the random jobs in one pass


def _interp(xs, ys, x):
    """Piecewise-linear y(x) through the points, constant beyond the ends."""
    if x <= xs[0]:
        return ys[0]
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        if x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return ys[-1]


def _cost(kind, size):
    return _interp(*_COST[kind], size)


def products_large(rng: random.Random, toy: bool) -> list[dict]:
    s = 8 if toy else 1  # toy scale divides every size by 8
    jobs = [
        cmd("energy", anchor="energy AP(7, 1000, 1024)", values=ap_elements(7, 1000, 1024 // s)),
        cmd("energy", anchor="energy [1, 2048]", values=list(range(1, 2048 // s + 1))),
        cmd("table", anchor="table 8192", N=8192 // s),
    ]
    # ap-product cost rises 7-fold over L in [256, 512]; an antithetic pair,
    # one from each half, keeps the slow one near the top of every pass.
    # gcd(a, d) = 1 as in small-sets.
    L = rng.randint(256, 384)
    Ls = (L, 768 - L)
    size = rng.randint(768, 1024)
    N = rng.choice(range(2048, 8193, 512))
    # The interval [1, n] costs 0.45 s at n = 1000 and 2.4 s at n = 2048, more
    # than any other draw varies.  n is therefore set so that the pass's random
    # jobs reach a fixed modelled cost: seeds differ in their inputs, not in
    # how much work a pass holds.
    rest = _RANDOM_BUDGET - sum(_cost("ap-product", x) for x in Ls) - _cost("subset", size) - _cost("table", N)
    sizes, seconds = _COST["interval"]
    n = int(_interp(seconds, sizes, rest))  # the inverse of the interval's cost
    for x in Ls:
        d = rng.randint(1, 1000)
        jobs.append(cmd("ap-product", a=_coprime_start(rng, x, 10**6, d), d=d, L=x // s))
    jobs.append(cmd("energy", values=sorted(rng.sample(range(1, 10**6 + 1), size // s))))
    jobs.append(cmd("energy", values=list(range(1, n // s + 1))))
    # two fixed-size jobs sit at the middle of the pass's latency spread
    L = 512 // s
    for _ in range(2):
        A = ap_elements(rng.randint(L, 10**6), rng.randint(1, 1000), L)
        B = ap_elements(rng.randint(L, 10**6), rng.randint(1, 1000), L)
        jobs.append(lib("cs_energy_split", A=A, B=B))
    jobs.append(cmd("table", N=N // s))
    return jobs


def shuffled_grid(rng, lo, hi, k):
    out = grid(lo, hi, k)
    rng.shuffle(out)
    return out


def small_sets(rng: random.Random, toy: bool) -> list[dict]:
    s = 8 if toy else 1  # toy scale divides every job count by 8
    # a and d highly composite: offdiag_tuples meets the most shared divisors,
    # so this job sets peak memory on every seed, before any random job runs
    jobs = [cmd("ap-product", anchor="ap-product 720720 60 200", a=720720, d=60, L=200 // s)]
    # acceptance criterion 1 shape
    for na, nb in zip(shuffled_grid(rng, 1, 60, 160 // s), shuffled_grid(rng, 1, 60, 160 // s)):
        A = sorted(rng.sample(range(1, 10**6 + 1), na))
        B = sorted(rng.sample(range(1, 10**6 + 1), nb))
        jobs.append(lib("cs_energy_split", A=A, B=B))
    for n in grid(2, 40, 40 // s):  # beyond 2^31: the exact Fraction/Counter fallback
        jobs.append(cmd("energy", values=sorted(rng.sample(range(1 << 31, (1 << 40) + 1), n))))
    for delta in ("3/10", "1/2", "1"):  # acceptance criterion 5 shape
        for i, L in enumerate(shuffled_grid(rng, 60, 319, 24 // s)):
            d = rng.choice([1, 1, 1, 2, 3, 5])
            style = i % 4
            if style == 0:
                a = rng.randint(1, 7)
            elif style == 1:
                a = rng.randint(1, 3 * L - 1)
            elif style == 2:
                a = rng.randint(10**5, 10**7 - 1)
            else:
                a = -rng.randint(L // 2, 2 * L - 1) * d
            jobs.append(cmd("reduce", a=a, d=d, L=L, delta=delta, seed=rng.randrange(1 << 31)))
    # offdiag_tuples runs for L <= 512; its work grows with the divisors all
    # elements share, so gcd(a, d) = 1 keeps one draw from outweighing the rest
    for L in grid(2, 200, 24 // s):
        d = rng.randint(1, 1000)
        jobs.append(cmd("ap-product", a=_coprime_start(rng, 1, 10**6, d), d=d, L=L))
    # acceptance criterion 12 shape
    for i, n in enumerate(shuffled_grid(rng, 3, 100, 30 // s)):
        if i % 3 == 0:
            A = sorted(rng.sample(range(1, 10**6), n))
        elif i % 3 == 1:
            A = list(range(1, n + 1))
        else:
            base = rng.randint(2, 3)
            A = sorted({base**j for j in range(min(n, 40))})
        jobs.append(lib("random_energy_subset", A=A, seed=i))
    return jobs


def primes(rng: random.Random, toy: bool) -> list[dict]:
    s = 16 if toy else 1  # toy scale divides every length by 16
    jobs = [
        lib("build_table", anchor="build_table [1, 1e6) with lists", lo=1, hi=10**6 // s, factor_lists=True),
        lib("build_table", anchor="build_table [1e12, 1e12 + 1e6) no lists", lo=10**12, hi=10**12 + 10**6 // s,
            factor_lists=False),
    ]
    # each d once, and each k twice; only 1/d of the hull is read
    for i, (dl, d) in enumerate(zip(grid(2 * 10**4 // s, 10**5 // s, 6), [1, 2, 3, 7, 10, 30])):
        jobs.append(cmd(
            "nk", a=rng.randint(1, 10**5), d=d, L=max(dl // d, 1), k=1 + i % 3,
            alpha=rng.choice([0.0, 0.5, LOG4]), beta=rng.choice([0.0, 1.0, 4.0]),
        ))
    # witness regime: dL <= a <= L sqrt(log L) and gcd(a, d) = 1
    L = rng.randint(10**4, 2 * 10**4) // s
    d = rng.choice([1, 2])
    a = _coprime_start(rng, d * L, int(L * math.sqrt(math.log(L))), d)
    jobs.append(cmd("nk", a=a, d=d, L=L, k=2, alpha=0.0, beta=30.0, witness=True))
    for _ in range(2):
        x = rng.randint(10**6, 2 * 10**6) // s
        k, a = rng.choice([(1, 0), (3, 1), (3, 2), (5, 1), (5, 2), (5, 3), (5, 4)])
        jobs.append(cmd("shiu", x=x, y=rng.randint(x // 4, x // 2), k=k, a=a, z=rng.choice([0.5, 1.0, 2.0])))
        jobs.append(cmd("mertens", x=rng.randint(10**6, 3 * 10**6) // s))
    for L in (10**4 // s, 10**4 // s, 10**5 // s, 10**5 // s):  # acceptance criterion 7 grid
        d = rng.choice([1, 2, 3, 5])
        hi = int(10 * L * math.sqrt(math.log(L)))
        jobs.append(lib("prime_count_ap", a=_coprime_start(rng, d * L + 1, hi - 1, d), d=d, L=L))
    for _ in range(3):  # large-prime branch: nearly every sieving prime hits once
        lo = rng.randint(10**11, 10**12)
        jobs.append(lib("build_table", lo=lo, hi=lo + (1 << 16) // s, factor_lists=False))
    for L, delta in zip(grid(4096 // s, 16384 // s, 3), ["3/10", "1/2", "1"]):
        jobs.append(cmd(
            "reduce", a=rng.randint(1, 3 * L), d=rng.choice([1, 2, 3, 5]), L=L,
            delta=delta, seed=rng.randrange(1 << 31),
        ))
    return jobs


def boundary(rng: random.Random, toy: bool) -> list[dict]:
    s = 4 if toy else 1  # toy scale divides every n and sample count by 4

    def monte_carlo(n):
        return cmd("smirnov", n=n, u=rng.uniform(1, 10), w=rng.uniform(1, 10),
                   samples=200000 // s, seed=rng.randrange(1 << 31))

    jobs = [
        cmd("smirnov", anchor="q_n exact n = 400", n=400 // s, u=5.0, w=5.0),
        cmd("smirnov", anchor="Monte Carlo n = 100, 2e5 samples", n=100 // s, u=5.0, w=5.0,
            samples=200000 // s),
        # The largest Monte Carlo batch sets peak memory, so every seed runs
        # n = 120, right after the anchors, where the heap it meets is the same.
        monte_carlo(120 // s),
    ]
    for n in grid(50 // s, 400 // s, 12):
        jobs.append(cmd("smirnov", n=n, u=rng.uniform(1, 10), w=rng.uniform(1, 10)))
    for n in grid(50 // s, 300 // s, 8):  # acceptance criterion 10 shape
        beta = rng.uniform(8, 16) * LOG4
        N = LOG4 * n - beta + rng.uniform(16, 64) * LOG4
        jobs.append(lib("volume_sandwich", n=n, N=N, alpha=LOG4, beta=beta))
    jobs += [monte_carlo(n) for n in grid(20 // s, 119 // s, 3)]
    return jobs


GENERATORS = {
    "products-large": products_large,
    "small-sets": small_sets,
    "primes": primes,
    "boundary": boundary,
}


def generate(workload: str, seed: int, toy: bool = False) -> list[dict]:
    rng = random.Random(f"{workload}/{seed}")
    jobs = GENERATORS[workload](rng, toy)
    for job in jobs:
        if job["kind"] == "cmd":
            job["args"].setdefault("seed", 0)
    return jobs


def _mod(name):
    return sys.modules["multable." + name]


def run_job(job):
    """Run one job and return its output: report JSON for commands, the
    library's return value otherwise."""
    args = job["args"]
    if job["kind"] == "cmd":
        fn = getattr(_mod("experiments"), "cmd_" + job["name"].replace("-", "_"))
        return fn(**args, threads=0).to_json()
    name = job["name"]
    if name == "cs_energy_split":
        return _mod("energy").cs_energy_split(args["A"], args["B"])
    if name == "random_energy_subset":
        return _mod("energy").random_energy_subset(args["A"], seed=args["seed"])
    if name == "build_table":
        return _mod("sieve").build_table(args["lo"], args["hi"], factor_lists=args["factor_lists"])
    if name == "prime_count_ap":
        ap = _mod("progressions").ArithmeticProgression(args["a"], args["d"], args["L"])
        return _mod("primestats").prime_count_ap(ap)
    if name == "volume_sandwich":
        return _mod("smirnov").volume_sandwich(args["n"], args["N"], args["alpha"], args["beta"])
    raise ValueError(f"unknown job {name}")


def summarize(job, out) -> dict:
    """A JSON-able summary of a job's output, for checks and digests."""
    if job["kind"] == "cmd":
        return {"results": json.loads(out)["results"]}
    name = job["name"]
    if name == "cs_energy_split":
        return {"sqrt": out[0], "ok": out[1]}
    if name == "random_energy_subset":
        return {"subset": out}
    if name == "prime_count_ap":
        return {"count": out}
    if name == "volume_sandwich":
        return {k: repr(v) for k, v in asdict(out).items()}
    if name == "build_table":
        # imported here, not at the top: the setup probe times numpy's import
        import numpy as np

        omega, sqdiv = out.omega_array, out.square_divisor_array
        h = hashlib.sha256(omega.astype(np.int64).tobytes() + sqdiv.astype(np.int64).tobytes())
        if job["args"]["factor_lists"]:
            # one list at a time: the summary must not add to the peak memory measured
            for n in range(out.lo, out.hi):
                h.update(repr(out.prime_factors(n)).encode())
        summary = {"tables": h.hexdigest()[:20]}
        if out.hi - out.lo <= PRIME_CHECK_WINDOW:
            summary["prime_idx"] = np.nonzero((omega == 1) & (sqdiv == 1))[0].tolist()
        return summary
    raise ValueError(f"unknown job {name}")
