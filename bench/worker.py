"""The workload process: one client that runs a workload's jobs in a closed
loop, each job waiting for the one before it.

    python3 bench/worker.py setup --workload W --seed S
        time from `import multable` until the first job is ready
    python3 bench/worker.py sweep --workload W --seed S --seconds T --trace 0|1
        one warm pass, then timed passes until T seconds and MIN_PASSES
        passes have gone by; with --trace 0, setup probes run between jobs
        every PROBE_EVERY_S seconds (see Prober); with --trace 1 untraced
        and traced passes alternate and per-layer metrics come from the
        traced ones

Both print one JSON object on the last line of standard output.  bench/run.py
starts this process with BLAS pools pinned to one thread; it is not meant
to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

from workloads import WORKLOADS, digest, generate, run_job, summarize

ROOT = Path(__file__).resolve().parents[1]
SPANS_DIR = ROOT / "bench" / "out"
MIN_PASSES = 3  # timed passes per run, whatever --seconds says
TRACE_MIN_PASSES = 2  # per side in a traced run
PROBE_EVERY_S = 2.0
MIN_PROBES = 5


def import_package():
    """Import multable and its command layer, as `multable <cmd>` does, from
    this checkout's src/ and never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import multable
    import multable.experiments  # noqa: F401

    if not Path(multable.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"multable imported from {multable.__file__}, not from {src}")
    return multable


def setup(workload: str, seed: int, toy: bool) -> dict:
    t0 = time.perf_counter()
    import_package()
    generate(workload, seed, toy)
    return {"setup_s": time.perf_counter() - t0}


class Prober:
    """Set-up probes spread evenly over the whole sweep.  Between two jobs,
    once PROBE_EVERY_S seconds have gone by since the last probe ended, it
    times one fresh interpreter's set-up (the `setup` role) and waits for
    it.  Machine speed on a shared host changes within seconds, so probes
    spread like this see the same mix of speeds as the sweep, where probes
    bunched together would all see one.  Jobs are timed one by one, so a
    probe never falls inside a timed region."""

    def __init__(self, workload: str, seed: int, toy: bool):
        self.cmd = [sys.executable, __file__, "setup", "--workload", workload, "--seed", str(seed),
                    "--scale", "toy" if toy else "full"]
        self.values: list[float] = []
        self.spent = 0.0  # wall time inside probes, which the --seconds window leaves out
        self.due = time.perf_counter()

    def __call__(self, force: bool = False) -> None:
        start = time.perf_counter()
        if not force and start < self.due:
            return
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        self.values.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        end = time.perf_counter()
        self.spent += end - start
        self.due = end + PROBE_EVERY_S


class Sweep:
    def __init__(self, jobs, between=None):
        self.jobs = jobs
        self.between = between  # called after each job, outside its timed region
        self.errors: list = []  # [pass, job, message]
        self.passes = 0

    def run_pass(self, keep: bool, tracer=None):
        """Run every job once; returns per-job wall times and, when keep is
        set, a summary of each output (made outside the timed region)."""
        p, self.passes = self.passes, self.passes + 1
        times, summaries = [], []
        for i, job in enumerate(self.jobs):
            out = None
            t0 = time.perf_counter()
            try:
                out = tracer.run_job(i, run_job, job) if tracer else run_job(job)
            except Exception as e:  # a failed job is counted, the sweep goes on
                self.errors.append([p, i, f"{type(e).__name__}: {e}"])
            times.append(time.perf_counter() - t0)
            if keep:
                summaries.append(None if out is None else summarize(job, out))
            del out
            if self.between:
                self.between()
        return times, summaries


def sweep(workload: str, seed: int, seconds: float, trace: bool, toy: bool) -> dict:
    import_package()
    warnings.filterwarnings("ignore", message=r"n = \d+ > 200", category=RuntimeWarning)
    jobs = generate(workload, seed, toy)
    prober = None if trace else Prober(workload, seed, toy)
    run = Sweep(jobs, prober)
    warm_times, warm = run.run_pass(keep=True)
    warm_s = sum(warm_times)
    out = {"jobs": len(jobs), "warm_s": warm_s, "summaries": warm}
    t_begin = time.perf_counter()
    spent_before = prober.spent if prober else 0.0

    def elapsed():
        return time.perf_counter() - t_begin - ((prober.spent - spent_before) if prober else 0.0)

    def more(done):
        least = TRACE_MIN_PASSES if trace else MIN_PASSES
        return done < least or elapsed() < seconds

    if not trace:
        timed = []
        while more(len(timed)):
            # summarize the passes that may be the last one, to compare with the warm pass
            last = len(timed) + 1 >= MIN_PASSES and elapsed() + warm_s >= seconds
            times, summaries = run.run_pass(keep=last)
            timed.append({"times": times, "digests": [s and digest(s) for s in summaries] if last else None})
        while len(prober.values) < MIN_PROBES:
            prober(force=True)
        out["timed"] = timed
        out["setup"] = prober.values
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        from tracer import Tracer, layer_metrics, write_spans

        tracer = Tracer()
        untraced, traced, per_pass, all_spans = [], [], [], []
        while more(min(len(untraced), len(traced))):
            untraced.append(sum(run.run_pass(keep=False)[0]))
            tracer.install()
            try:
                traced.append(sum(run.run_pass(keep=False, tracer=tracer)[0]))
            finally:
                tracer.uninstall()
            spans, info = tracer.take()
            per_pass.append(layer_metrics(spans, info))
            all_spans.append(spans)
        out.update(untraced=untraced, traced=traced, layers=per_pass)
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        write_spans(SPANS_DIR / f"spans-{workload}-{seed}.jsonl", all_spans)
    out["errors"] = run.errors
    out["passes"] = run.passes
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("role", choices=("setup", "sweep"))
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full")
    args = ap.parse_args(argv)
    toy = args.scale == "toy"
    if args.role == "setup":
        result = setup(args.workload, args.seed, toy)
    else:
        result = sweep(args.workload, args.seed, args.seconds, bool(args.trace), toy)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
