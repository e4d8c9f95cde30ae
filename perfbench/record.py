"""Record the exact answer of every job any seed can draw.

    python3 perfbench/record.py

writes `perfbench/answers.json`: the recorded pools of random inputs, the
SHA-256 of each job's output, and each job's calibrated time (as in
`run.py`), which forms the cost classes the workloads draw from.  Every
job must pass its own verdict and the benchmark's independent checks, or
nothing is written.  Run it only at a commit whose outputs are known to be
right: the benchmark judges every later commit against this file.  It
takes about ten minutes on one core.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import jobs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    answers = {"pools": {"S8": workloads.s8_pool()}, "digests": {}, "costs": {}}
    universe = workloads.universe(answers)
    for i, job in enumerate(universe, 1):
        outcome = jobs.run_job(job, None, cap_s=600)
        if outcome.failed:
            print(f"{job.key}: {outcome.error}", file=sys.stderr)
            return 1
        ref = statistics.median(run.reference() for _ in range(3))
        answers["digests"][job.key] = outcome.digest
        answers["costs"][job.key] = round(outcome.seconds * run.REF_S / ref, 6)
        if i % 100 == 0:
            print(f"{i}/{len(universe)} jobs recorded", file=sys.stderr)
    with open(workloads.ANSWERS, "w") as fh:
        json.dump(answers, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
