"""Record result-row digests for bench/checks.py.

    python3 bench/record_digests.py

Runs every job of every workload once for the default and holdout seeds,
plus `table N` for every N the products-large workload can draw, and writes
{job-inputs key: result-row digest} to bench/digests.json.  Jobs whose
output comes wholly from a random stream get no digest (checks.stable_part).  Rerun it only
when a change is meant to alter result rows, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import multable.experiments  # noqa: E402,F401
from checks import DIGESTS, stable_part  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, HOLDOUT_SEED, WORKLOADS, cmd, digest, generate, run_job, spec_key, summarize,
)


def main() -> int:
    warnings.filterwarnings("ignore", message=r"n = \d+ > 200", category=RuntimeWarning)
    jobs = [job for w in WORKLOADS for seed in (DEFAULT_SEED, HOLDOUT_SEED) for job in generate(w, seed)]
    jobs += [cmd("table", N=N, seed=0) for N in range(2048, 8193, 512)]
    digests = {}
    for job in jobs:
        key = spec_key(job)
        if key in digests:
            continue
        part = stable_part(job, summarize(job, run_job(job)))
        if part is not None:
            digests[key] = digest(part)
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
