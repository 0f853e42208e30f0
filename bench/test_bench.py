"""Self-test of the benchmark, at toy size.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import multable.experiments  # noqa: E402,F401
from checks import check, stable_part  # noqa: E402
from run import tally  # noqa: E402
from tracer import LAYERS, Tracer, self_times  # noqa: E402
from worker import Sweep  # noqa: E402
from workloads import WORKLOADS, cmd, digest, generate, lib, run_job, spec_key, summarize  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MAP = json.loads((BENCH / "metric_map.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_and_every_job_passes(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", str(trace), "--scale", "toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    mapped = MAP["per_layer"] if trace else MAP["end_to_end"]
    assert set(mapped) == set(result["metrics"])
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_sum_to_at_most_the_pass_wall_time(workload):
    run = Sweep(generate(workload, 3, toy=True))
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        run.run_pass(keep=False, tracer=tracer)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    spans, _ = tracer.take()
    own = self_times(spans)
    layer_self = sum(t for s, t in zip(spans, own) if s[0].split(".")[0] in LAYERS)
    assert run.errors == []
    assert 0 < layer_self <= sum(own) <= wall
    assert min(own) > -1e-9


def test_tracer_restores_every_function():
    energy_mod = sys.modules["multable.energy"]
    before = energy_mod.energy
    tracer = Tracer()
    tracer.install()
    assert sys.modules["multable.experiments"].energy is not before
    tracer.uninstall()
    assert energy_mod.energy is before and sys.modules["multable.experiments"].energy is before


def _checked_run(workload):
    jobs = generate(workload, 3, toy=True)
    summaries = [summarize(job, run_job(job)) for job in jobs]
    return jobs, {"passes": 1, "errors": [], "summaries": summaries}


def test_a_corrupted_result_counts_as_failed():
    jobs, result = _checked_run("small-sets")
    attempted, failed, _, _ = tally(jobs, result, {})
    assert (attempted, failed) == (len(jobs), 0)
    i = next(i for i, j in enumerate(jobs) if j["kind"] == "cmd" and j["name"] == "energy")
    result["summaries"][i]["results"][0]["energy"] += 1
    _, failed, _, problems = tally(jobs, result, {})
    assert failed == 1 and f"job {i}" in problems[0]


def test_a_row_that_no_longer_matches_its_digest_counts_as_failed():
    jobs, result = _checked_run("boundary")
    i = next(i for i, j in enumerate(jobs) if j["name"] == "volume_sandwich")
    digests = {spec_key(jobs[i]): digest(result["summaries"][i])}
    assert tally(jobs, result, digests)[1] == 0
    result["summaries"][i]["probability"] = "0.5"
    assert tally(jobs, result, digests)[1] == 1


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "boundary", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_monte_carlo_is_judged_by_the_binomial_sigma_at_the_exact_value():
    job = cmd("smirnov", n=10, u=9.0, w=9.0, samples=50000, seed=0)

    def row(est, exact):
        return {"results": [{"mc_estimate": est, "mc_stderr": 0.0, "exact": exact}]}

    assert check(job, row(1.0, 1.0 - 1e-9), {})[1] is None  # no crossing seen: fine
    assert check(job, row(1.0, 0.99), {})[1] is not None  # 500 crossings expected


def test_a_changed_random_stream_within_4_sigma_passes_its_digest():
    job = cmd("smirnov", n=12, u=5.0, w=5.0, samples=20000, seed=0)
    summary = summarize(job, run_job(job))
    digests = {spec_key(job): digest(stable_part(job, summary))}
    row = summary["results"][0]
    sigma = math.sqrt(row["exact"] * (1 - row["exact"]) / 20000)
    row["mc_estimate"], row["mc_stderr"] = row["exact"] + 3 * sigma, 1.01 * sigma
    assert check(job, summary, digests) == (["independent", "digest"], None)
    row["exact"] += 1e-9
    assert check(job, summary, digests)[1] is not None
    # a subset drawn by random_energy_subset is never digested
    assert stable_part(lib("random_energy_subset", A=[1, 2, 3], seed=0), {"subset": [1, 2]}) is None
