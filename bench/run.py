"""The multable benchmark: one command, four seeded workloads.

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a checkout.  The workload's jobs run in one fresh
process (bench/worker.py) as a closed loop with one client: each job waits
for the one before it.  Children get BLAS pools pinned to one thread and
commands get threads=0, the CLI default.  After the sweep this process
checks every job's output (bench/checks.py), outside the timed region.

With --trace 0 the last line of standard output carries the end-to-end
metrics:
  setup_s      median over fresh interpreters of the time from
               `import multable` until the first job is ready, probed
               between jobs throughout the sweep (worker.Prober)
  sweep_s      median over timed passes of one warm pass's wall time
               (the sum of its jobs' wall times)
  job_ms_p50   median per-job wall time, pooled over timed passes
  job_ms_p90   90th percentile per-job wall time; when fewer than 10 of the
               jobs x MIN_PASSES samples lie beyond it, the highest
               percentile with 10 beyond it (never below the median); the
               line before the result names the percentile
  peak_rss_mb  peak resident set of the workload process
With --trace 1 it carries the per-layer metrics of bench/tracer.py, as the
median over traced passes, and trace.overhead_frac.

Jobs that raised or failed their check count in "failed"; failed_frac is
printed on the line before the result.  The default seed is 0 and the
holdout seed is 9001 (see workloads.py); result-row digests are recorded
for both in bench/digests.json (bench/record_digests.py).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER_TIMEOUT_S = 150
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in PINNED})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def worker(role: str, args, extra=()) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), role, "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {role} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_level(samples: int) -> float:
    """The highest percentile, at most 90 and at least 50, with 10 samples beyond it."""
    return max(50.0, min(90.0, 100.0 * (1.0 - 10.0 / samples)))


def tally(jobs, result, digests) -> tuple[int, int, dict, list]:
    """Attempted and failed job runs, the check routes used, and the problems
    found.  The warm pass's outputs are checked; the outputs of later passes
    that were summarized must match them."""
    from checks import check
    from workloads import digest

    runs = result["passes"]
    bad = [0] * len(jobs)
    problems = []
    for p, i, msg in result["errors"]:
        bad[i] += 1
        problems.append(f"job {i} ({jobs[i]['name']}) pass {p}: {msg}")
    routes = {"independent": 0, "digest": 0, "unchecked": 0}
    for i, (job, summary) in enumerate(zip(jobs, result["summaries"])):
        if summary is None:
            continue  # it raised, and is counted above
        used, problem = check(job, summary, digests)
        for r in used or ["unchecked"]:
            routes[r] += 1
        if problem:
            bad[i] = runs  # the program is deterministic: every run shares the fault
            problems.append(f"job {i} ({job['name']}): {problem}")
        for t in result.get("timed", []):
            if t["digests"] is not None and t["digests"][i] != digest(summary):
                bad[i] += 1
                problems.append(f"job {i} ({job['name']}): output changed between passes")
    return len(jobs) * runs, sum(min(b, runs) for b in bad), routes, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="multable benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full",
                    help="toy shrinks every job, for the self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "multable" / "__init__.py").is_file():
        print(f"no multable sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from checks import load_digests
    from worker import MIN_PASSES

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    try:
        result = worker("sweep", args, ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    jobs = generate(args.workload, args.seed, args.scale == "toy")
    attempted, failed, routes, problems = tally(jobs, result, load_digests())
    for line in problems[:20]:
        print("FAILED", line)

    detail = {"workload": args.workload, "seed": args.seed, "jobs": len(jobs),
              "checks": routes, "failed_frac": failed / attempted}
    if args.trace:
        from tracer import median_metrics

        metrics = median_metrics(result["layers"])
        metrics["trace.overhead_frac"] = (
            statistics.median(result["traced"]) / statistics.median(result["untraced"]) - 1.0
        )
        detail.update(traced_passes=result["traced"], untraced_passes=result["untraced"])
    else:
        passes = [sum(t["times"]) for t in result["timed"]]
        samples = [dt for t in result["timed"] for dt in t["times"]]
        level = tail_level(len(jobs) * MIN_PASSES)
        setup = result["setup"]
        metrics = {
            "setup_s": statistics.median(setup),
            "sweep_s": statistics.median(passes),
            "job_ms_p50": 1000.0 * statistics.median(samples),
            "job_ms_p90": 1000.0 * percentile(samples, level),
            "peak_rss_mb": result["rss_mb"],
        }
        anchors = {job["anchor"]: 1000.0 * statistics.median(t["times"][i] for t in result["timed"])
                   for i, job in enumerate(jobs) if job["anchor"]}
        detail.update(job_ms_p90_is=f"p{level:g}", job_samples=len(samples),
                      passes=len(passes), setup_probes=setup, anchor_ms=anchors)
    units = json.loads((BENCH / "metric_map.json").read_text())["per_layer" if args.trace else "end_to_end"]
    print("detail", json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]["unit"]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
