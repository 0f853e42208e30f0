"""Per-job output checks, run in the parent process after the sweep.

Integer results are checked by an independent route where one is cheap:
``energy_bruteforce`` for |A||B| <= 10^4, sorted products or a Python
Counter above that, a Python set for product counts, Miller-Rabin over the
elements for prime counts and prime positions, a smallest-prime-factor
sieve for N_k counts, and a plain sieve for the prime-reciprocal sum.
Monte Carlo rows pass when they lie within 4 binomial standard deviations
of the exact value in the same row.  Every row whose job inputs were recorded in
digests.json must also reproduce the recorded result-row digest, taken over
the part of the row that no change to a random stream may alter
(``stable_part``).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from workloads import digest, spec_key

DIGESTS = Path(__file__).resolve().parent / "digests.json"
BRUTEFORCE_PAIRS = 10**4  # energy_bruteforce's own budget


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


# -- independent routes -----------------------------------------------------


def energy_second_route(A, B=None):
    """E(A) or E(A, B) without the library's product/quotient kernels:
    energy_bruteforce for small int64 inputs, run lengths of the sorted
    int64 products above that, and a Counter of Python-int products when
    the products may not fit in int64."""
    from multable.energy import energy_bruteforce

    A = sorted(set(A))
    B = A if B is None else sorted(set(B))
    n = len(A) * len(B)
    if max(-A[0], A[-1]) * max(-B[0], B[-1]) >= 1 << 62:
        return sum(c * c for c in Counter(a * b for a in A for b in B).values())
    if n <= BRUTEFORCE_PAIRS:
        return energy_bruteforce(A, B)
    prods = np.sort(np.multiply.outer(np.array(A, dtype=np.int64), np.array(B, dtype=np.int64)), axis=None)
    runs = np.diff(np.flatnonzero(np.diff(prods, prepend=prods[0] - 1, append=prods[-1] + 1)))
    return int((runs * runs).sum())


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL = [p for p in range(2, 200) if all(p % q for q in range(2, p))]


def _miller_rabin(n: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_mask(values: np.ndarray) -> np.ndarray:
    """Primality of each entry (int64 >= 0) by small-prime division, then
    deterministic Miller-Rabin (exact below 3.3e24)."""
    alive = values >= 2
    for p in _SMALL:
        alive &= (values % p != 0) | (values == p)
    out = alive.copy()
    for i in np.nonzero(alive & (values > _SMALL[-1]))[0].tolist():
        out[i] = _miller_rabin(int(values[i]))
    return out


def _spf(limit: int) -> np.ndarray:
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            seg = spf[p * p :: p]
            seg[seg == 0] = p
    idx = np.arange(limit + 1)
    spf[(spf == 0) & (idx >= 2)] = idx[(spf == 0) & (idx >= 2)]
    return spf


def nk_members(values: np.ndarray, k: int, alpha: float, beta: float) -> np.ndarray:
    """Square-free values with exactly k prime factors, the j-th smallest
    satisfying log log p_j >= alpha j - beta."""
    spf = _spf(int(values.max()))
    primes = np.nonzero(spf == np.arange(len(spf)))[0][1:]  # index 0 is not a prime
    loglog = np.zeros(len(spf))
    loglog[primes] = [math.log(math.log(p)) for p in primes.tolist()]
    rem = values.copy()
    omega = np.zeros(len(values), dtype=np.int64)
    ok = np.ones(len(values), dtype=bool)
    live = rem > 1
    while live.any():
        p = spf[rem[live]]
        j = omega[live] + 1
        rem[live] //= p
        good = ok[live] & (rem[live] % p != 0) & (loglog[p] >= alpha * j - beta)
        ok[live] = good
        omega[live] = j
        live = rem > 1
    return values[ok & (omega == k)]


def prime_reciprocal_sum(x: int) -> float:
    flags = np.ones(x + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(x) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return math.fsum(1.0 / p for p in np.nonzero(flags)[0].tolist())


# -- per-job checks ------------------------------------------------------------


def _independent(job, s) -> tuple[bool, str | None]:
    """(whether a second route ran, problem found or None)."""
    name, args = job["name"], job["args"]
    row = s["results"][0] if "results" in s else None
    if job["kind"] == "cmd" and name == "energy":
        A = [x for x in set(args["values"]) if x != 0]
        e = energy_second_route(A)
        if (row["energy"], row["size"], row["diag_bound"]) != (e, len(A), 2 * len(A) ** 2):
            return True, f"energy row {row} != second route {e}"
        return True, None
    if job["kind"] == "cmd" and name == "ap-product":
        A = [x for x in range(args["a"], args["a"] + args["d"] * args["L"], args["d"]) if x != 0]
        want = (len({a * b for a in A for b in A}), energy_second_route(A))
        if (row["product_count"], row["energy"]) != want:
            return True, f"(product_count, energy) {row['product_count'], row['energy']} != {want}"
        return True, None
    if name == "cs_energy_split":
        A, B = args["A"], args["B"]
        e_ab, e_a, e_b = energy_second_route(A, B), energy_second_route(A), energy_second_route(B)
        want = {"sqrt": math.sqrt(e_a * e_b), "ok": e_ab * e_ab <= e_a * e_b}
        return True, None if s == want else f"{s} != {want}"
    if name == "random_energy_subset":
        A, sub = args["A"], s["subset"]
        e_a, e_sub = energy_second_route(A), energy_second_route(sub) if sub else 0
        good = (sub and set(sub) <= set(A) and e_sub <= 4 * len(sub) ** 2
                and 2 * e_a * len(sub) >= len(A) ** 3)
        return True, None if good else f"subset {sub} breaks the certified inequalities"
    if name == "prime_count_ap":
        vals = np.arange(args["a"], args["a"] + args["d"] * args["L"], args["d"], dtype=np.int64)
        want = int(prime_mask(vals).sum())
        return True, None if s["count"] == want else f"prime count {s['count']} != {want}"
    if name == "build_table" and "prime_idx" in s:
        vals = np.arange(args["lo"], args["hi"], dtype=np.int64)
        want = np.nonzero(prime_mask(vals))[0].tolist()
        return True, None if s["prime_idx"] == want else "prime positions differ from Miller-Rabin"
    if job["kind"] == "cmd" and name == "nk":
        vals = np.arange(args["a"], args["a"] + args["d"] * args["L"], args["d"], dtype=np.int64)
        members = nk_members(vals, args["k"], args["alpha"], args["beta"]).tolist()
        got = (row["count"], row["members_preview"])
        return True, None if got == (len(members), members[:20]) else f"N_k {got} != {len(members)}"
    if job["kind"] == "cmd" and name == "mertens":
        want = prime_reciprocal_sum(args["x"])
        return True, None if row["sum"] == want else f"sum {row['sum']} != {want}"
    if job["kind"] == "cmd" and name == "smirnov" and "mc_estimate" in row:
        # sigma of the binomial estimate at the exact probability: an estimate
        # of exactly 0 or 1 reports a zero standard error of its own
        est, exact = row["mc_estimate"], row["exact"]
        sigma = math.sqrt(max(exact * (1.0 - exact), 0.0) / args["samples"])
        good = abs(est - exact) <= 4 * sigma if sigma else est == exact
        return True, None if good else f"Monte Carlo {est} is not within 4 sigma ({sigma}) of {exact}"
    return False, None


def stable_part(job, summary):
    """The part of a job's output summary that digests cover, or None when
    nothing is left.  Monte Carlo estimates and random_energy_subset's subset
    come from a random stream that a correct change may alter; their
    independent checks alone judge them."""
    if job["name"] == "random_energy_subset":
        return None
    if job["kind"] == "cmd" and job["name"] == "smirnov":
        return {"results": [{k: v for k, v in row.items() if k not in ("mc_estimate", "mc_stderr")}
                            for row in summary["results"]]}
    return summary


def check(job, summary, digests: dict) -> tuple[list[str], str | None]:
    """Check one job's output summary.  Returns the routes that checked it
    and the first problem found, or None."""
    routes = []
    ran, problem = _independent(job, summary)
    if ran:
        routes.append("independent")
    if problem:
        return routes, problem
    want = digests.get(spec_key(job))
    part = stable_part(job, summary)
    if want is not None and part is not None:
        routes.append("digest")
        got = digest(part)
        if got != want:
            return routes, f"result-row digest {got} != recorded {want}"
    return routes, None
