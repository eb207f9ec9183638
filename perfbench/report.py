#!/usr/bin/env python3
"""Run every workload untraced and traced, and print all metrics.

    python3 perfbench/report.py [--seed 0] [--seconds N]

Prints, for every workload, the six end-to-end metrics with units (the tail with
its percentile and job count), the tracing overhead (traced minus untraced
``job_s_p50``) and the per-layer metrics of the traced run.  Exits 1 when any
job failed a check.  ``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s exited with %d" % (" ".join(cmd), proc.returncode))
    path = HERE / "results" / ("%s-trace%d-seed%d.json" % (workload, trace, seed))
    return json.loads(path.read_text())


def fmt(value) -> str:
    return "%.6g" % value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    failed = 0
    for workload in workloads.FAMILIES:
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        failed += plain["failed"] + traced["failed"]
        print("== %s  (seed %d, %d jobs, %d attempted, %d failed)"
              % (workload, args.seed, len(plain["job_seconds"]),
                 plain["attempted"], plain["failed"]))
        for name, (value, unit) in plain["end_to_end"].items():
            note = ""
            if name == "job_s_tail":
                note = "  (p%.4g of %d jobs)" % (plain["tail_percentile"],
                                                 len(plain["job_seconds"]))
            elif name == "setup_s":
                note = "  (median of %d)" % len(plain["setup_seconds"])
            print("  %-14s %12s %-6s%s" % (name, fmt(value), unit, note))
        p50 = plain["end_to_end"]["job_s_p50"][0]
        tp50 = traced["end_to_end"]["job_s_p50"][0]
        print("  tracing overhead: %s s (traced p50 %s s, untraced %s s, %+.1f%%)"
              % (fmt(tp50 - p50), fmt(tp50), fmt(p50), 100 * (tp50 / p50 - 1)))
        hcv = [r["half_cylinder_variation"] for r in plain["reported"]
               if "half_cylinder_variation" in r]
        if hcv:
            print("  half_cylinder_variation (reported, not gated): %s"
                  % ", ".join(fmt(v) for v in hcv))
        layers = traced["per_layer"]
        selfs = {k: v for k, (v, _u) in layers.items()
                 if k.endswith(".self_s") and not k.startswith("trace.")}
        total = sum(selfs.values()) or 1.0
        print("  self time per job: " + ", ".join(
            "%s %.0f%%" % (k[:-7], 100 * v / total)
            for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])))
        for name, (value, unit) in layers.items():
            print("    %-32s %14s %s" % (name, fmt(value), unit))
        for msg in plain["failures"] + traced["failures"]:
            print("  FAIL " + msg.splitlines()[0])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
