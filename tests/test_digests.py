"""Replay the benchmark's recorded result-row digests.

bench/digests.json holds one digest per job of every workload at the default
and holdout seeds, plus `table N` for N = 2048..8192 in steps of 512, as
bench/record_digests.py records them.  Every such job is run here and must
reproduce its digest, so a change to a result row fails Tier-1 and not only
a benchmark run.  bench/ is imported read-only.
"""

import sys
import warnings
from pathlib import Path

import multable.experiments  # noqa: F401  (bench's jobs find the package in sys.modules)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from checks import load_digests, stable_part  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, HOLDOUT_SEED, WORKLOADS, cmd, digest, generate, run_job, spec_key, summarize,
)


def test_every_recorded_digest_replays():
    digests = load_digests()
    jobs = [job for w in WORKLOADS for seed in (DEFAULT_SEED, HOLDOUT_SEED) for job in generate(w, seed)]
    jobs += [cmd("table", N=N, seed=0) for N in range(2048, 8193, 512)]
    checked, mismatched = set(), []
    with warnings.catch_warnings():
        # the exact recursion warns past n = 200, and the boundary workload goes there
        warnings.filterwarnings("ignore", message=r"n = \d+ > 200", category=RuntimeWarning)
        for job in jobs:
            key = spec_key(job)
            if key not in digests or key in checked:
                continue
            checked.add(key)
            if digest(stable_part(job, summarize(job, run_job(job)))) != digests[key]:
                mismatched.append((job["name"], key))
    assert mismatched == []
    assert checked == digests.keys()
