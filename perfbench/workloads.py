"""The three job families the benchmark drives, and the checks on their reports.

A job is a short list of CLI calls.  Job ``j`` of a run with seed ``S`` uses
the job seed ``(S + j) % SEED_CYCLE`` wherever its argv takes a seed, so every
job seed has recorded reference values in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED_CYCLE = 32

# Relative tolerance on the recorded scan outputs.  The scans are float64
# pipelines with a fixed reduction order; the tolerance only absorbs a
# different SIMD summation order on another CPU.
NUMERIC_RTOL = 1e-6

# Seed-bearing argv fragments use "{s}" for the job seed.
FAMILIES = {
    # The two largest acceptance universes (424 and 970 trees in T): pure
    # exact rational algebra, about 5.6M cminus lookups per job.
    "algebra": [
        (["verify", "--suite", "algebra", "--delta", "3/10", "--seed", "{s}"],
         "verify-algebra"),
        (["verify", "--suite", "algebra", "--delta", "13/50", "--seed", "{s}"],
         "verify-algebra"),
    ],
    # Point reads of the stored tables: ~48k Path.value_at calls and ~2.3k
    # continuity-error evaluations per job on the default grid.
    "pointwise": [
        (["verify", "--suite", "path", "--delta", "9/20",
          "--noise", "gauss:{s}:1/8", "--seed", "{s}"], "verify-path"),
        (["verify", "--suite", "products", "--delta", "9/20",
          "--noise", "gauss:{s}:1/8", "--seed", "{s}"], "verify-products"),
    ],
    # Whole-field sweeps over the same tables: the 10-trace remainder march,
    # heat solves and mollifier smoothing.
    "apriori": [
        (["scan", "--kind", "apriori", "--delta", "9/20", "--noise", "trig:{s}:0",
          "--radii", "0.1,0.2,0.25,0.4,0.5"], "scan-apriori"),
        (["scan", "--kind", "reconstruction", "--delta", "9/20",
          "--noise", "gauss:{s}:1/8", "--seed", "{s}"], "scan-reconstruction"),
    ],
}

# Scan outputs compared against the reference, per report name.
NUMERIC_KEYS = {
    "scan-apriori": ("c_hat", "half_cylinder_variation"),
    "scan-reconstruction": ("measured_exponent", "predicted_exponent"),
}


def job_seed(run_seed: int, j: int) -> int:
    return (run_seed + j) % SEED_CYCLE


def job_calls(workload: str, seed: int) -> list:
    """[(argv, report name)] for one job; argv has no --out yet."""
    return [([a.replace("{s}", str(seed)) for a in argv], name)
            for argv, name in FAMILIES[workload]]


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def algebra_digest(raw: bytes, seed: int) -> str:
    """sha256 of an algebra report with its config seed set to 0.

    The algebra report does not depend on the seed except through the echoed
    configuration, so one digest per delta covers every job seed.
    """
    line = b'\n  "seed": %d,\n' % seed
    if raw.count(line) != 1:
        raise ValueError("report has no single config seed line")
    return hashlib.sha256(raw.replace(line, b'\n  "seed": 0,\n')).hexdigest()


def check_job(workload: str, seed: int, calls: list, reports: list,
              reference: dict) -> tuple:
    """Check one job's reports.

    Returns (errors, reported): a list of failure messages, empty when the
    job passed, and the scan values recorded for the result file.
    """
    errors = []
    reported = {}
    for (argv, name), raw in zip(calls, reports):
        where = "%s seed %d" % (name, seed)
        try:
            doc = json.loads(raw)
        except ValueError as exc:
            errors.append("%s: unreadable report: %s" % (where, exc))
            continue
        if name.startswith("verify-"):
            if doc.get("failures"):
                errors.append("%s: %d failures" % (where, len(doc["failures"])))
            for suite, rows in doc.get("reports", {}).items():
                bad = [r for r in rows if r.get("status") != "pass"]
                if bad:
                    errors.append("%s: %d %s rows not pass" % (where, len(bad), suite))
        if workload == "algebra":
            delta = argv[argv.index("--delta") + 1]
            try:
                digest = algebra_digest(raw, seed)
            except ValueError as exc:
                errors.append("%s: %s" % (where, exc))
                continue
            if digest != reference["algebra"][delta]:
                errors.append("%s: report differs from the reference (delta %s)"
                              % (where, delta))
        for key in NUMERIC_KEYS.get(name, ()):
            got = doc.get(key)
            want = reference[workload][str(seed)][key]
            reported[key] = got
            if not isinstance(got, (int, float)) or not math.isclose(
                    got, want, rel_tol=NUMERIC_RTOL, abs_tol=1e-12):
                errors.append("%s: %s = %r, reference %r" % (where, key, got, want))
    return errors, reported
