#!/usr/bin/env python3
"""Record the reference values the benchmark checks job outputs against.

    python3 perfbench/record_reference.py

Runs the algebra job once (its report does not depend on the seed beyond the
echoed configuration) and both apriori calls for every job seed in
``0 .. SEED_CYCLE-1``, then writes ``perfbench/reference.json``.  Run it only
on a commit whose outputs are trusted; takes about four minutes on 2 cores.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from phi4local import cli  # noqa: E402

import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from run import run_job  # noqa: E402


def main() -> int:
    out = HERE / "out" / "reference"
    ref = {"seed_cycle": workloads.SEED_CYCLE, "algebra": {}, "apriori": {}}
    speed = HostSpeed()
    jobs = [("algebra", 0)] + [("apriori", seed)
                               for seed in range(workloads.SEED_CYCLE)]
    try:
        for workload, seed in jobs:
            calls = workloads.job_calls(workload, seed)
            job = run_job(cli, calls, out, speed)
            if job.errors:
                raise SystemExit("\n".join(job.errors))
            row = {}
            for (argv, name), raw in zip(calls, job.reports):
                doc = json.loads(raw)
                if workload == "algebra":
                    if doc["failures"]:
                        raise SystemExit("algebra report has failures")
                    delta = argv[argv.index("--delta") + 1]
                    ref["algebra"][delta] = workloads.algebra_digest(raw, 0)
                else:
                    row.update((key, doc[key]) for key in workloads.NUMERIC_KEYS[name])
            if workload == "apriori":
                ref["apriori"][str(seed)] = row
                print("seed", seed, row, flush=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
