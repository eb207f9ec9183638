#!/usr/bin/env python3
"""Closed-loop benchmark of the phi4local CLI job families.

    python3 perfbench/run.py --workload algebra --seed 0 --seconds 22 --trace 0

One process, one client: jobs run back to back, each calling
``phi4local.cli.main(argv)`` in process with an ``--out`` directory, which is
what a user's ``phi4local ...`` command runs minus interpreter start-up.

Set-up is imports plus one untimed warm-up job (job 0).  The timed loop then
runs jobs 1, 2, ... and ends by replaying job 0, whose reports must equal the
warm-up's byte for byte; it starts a job only while the job and the replay
are expected to end within ``--seconds``.  After the loop, the set-up is
repeated in fresh processes so that ``setup_s`` is a median of
``SETUP_SAMPLES``.  Every job's reports are checked (see workloads.py); a
failed check, a non-zero exit code or an exception fails the job.

Times are reported at a fixed reference host speed: the shared host's speed
drifts, so each job's wall seconds are scaled by the host speed sampled
while it ran (hostspeed.py).  The unscaled seconds and the scale factors go
to the result file.

The last line of standard output is one JSON object: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of the traced run with
``--trace 1``, each set as listed in BENCHMARK.json.  The full record, with
the environment, goes to ``perfbench/results/<workload>-trace<k>-seed<S>.json``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-ups measured per untraced run: this process and SETUP_SAMPLES - 1
# fresh ones.  Each costs a job, so more would crowd out timed jobs.
SETUP_SAMPLES = 2

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.FAMILIES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="run the set-up only and print its outcome as JSON")
    return ap.parse_args(argv)


def import_program():
    """Import phi4local from this checkout's sources, never from elsewhere."""
    if not (SRC / "phi4local" / "__init__.py").is_file():
        raise SystemExit("error: no phi4local sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import phi4local
    if Path(phi4local.__file__).resolve().parent != SRC / "phi4local":
        raise SystemExit("error: phi4local imported from %s" % phi4local.__file__)
    from phi4local import cli
    return cli


class Job:
    """One job's outcome: CLI wall seconds (without host-speed sampling),
    the factor to reference-host seconds, report bytes and failure
    messages."""

    def __init__(self, seconds, scale, reports, errors):
        self.seconds = seconds
        self.scale = scale
        self.reports = reports
        self.errors = errors


def run_job(cli, calls, out_dir: Path, speed: HostSpeed) -> Job:
    seconds = 0.0
    reports = []
    mark = speed.mark()
    for argv, name in calls:
        path = out_dir / (name + ".json")
        if path.exists():
            path.unlink()
        t0, spent0 = time.perf_counter(), speed.spent
        try:
            rc = cli.main(argv + ["--out", str(out_dir)])
            error = None if rc == 0 else "%s exited with %r" % (" ".join(argv), rc)
        except (Exception, SystemExit):
            error = "%s raised:\n%s" % (" ".join(argv), traceback.format_exc())
        seconds += time.perf_counter() - t0 - (speed.spent - spent0)
        if error is None:
            try:
                reports.append(path.read_bytes())
            except OSError as exc:
                error = "%s wrote no report: %s" % (" ".join(argv), exc)
        if error is not None:
            return Job(seconds, speed.scale(mark), reports, [error])
    return Job(seconds, speed.scale(mark), reports, [])


def environment() -> dict:
    import numpy
    import scipy
    from phi4local import field
    caches = {}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        out = ""
    for line in out.splitlines():
        key, _, val = line.partition(":")
        if "cache" in key.lower() or key.strip() == "Model name":
            caches[key.strip()] = val.strip()
    grid = field.DEFAULT_GRID
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "lscpu": caches,
        "grid": {"nt": grid.nt, "nx": grid.nx, "substeps": grid.substeps,
                 "h": grid.h, "k_store": grid.k_store},
        "load": "one process, one client, closed loop",
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = benchmark_spec()
    cli = import_program()
    import tracing

    reference = workloads.load_reference()
    tracer = tracing.install() if args.trace else None
    out_dir = HERE / "out" / ("%s-%d" % (args.workload, os.getpid()))
    out_dir.mkdir(parents=True, exist_ok=True)
    checked = Checked(cli, tracer, HostSpeed(), reference, args, out_dir)
    try:
        if args.setup_only:
            checked.speed.start()
            checked.run(0)
            print(json.dumps({"setup_s": setup_seconds(checked.speed),
                              "failures": checked.failures}))
            return 0
        record = measure(checked)
    finally:
        checked.speed.stop()
        shutil.rmtree(out_dir, ignore_errors=True)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    produced = record["per_layer"] if args.trace else record["end_to_end"]
    metrics = {}
    for m in listed:
        value, unit = produced[m["name"]]
        if unit != m["unit"]:
            raise SystemExit("metric %s has unit %s, BENCHMARK.json says %s"
                             % (m["name"], unit, m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": unit}

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = "%s-trace%d-seed%d.json" % (args.workload, args.trace, args.seed)
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for msg in record["failures"]:
        print(msg, file=sys.stderr)
    print(json.dumps({"correct": not record["failures"],
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


class Checked:
    """Runs jobs by index, checks their reports and tallies the outcome."""

    def __init__(self, cli, tracer, speed, reference, args, out_dir):
        self.cli, self.tracer, self.speed = cli, tracer, speed
        self.reference = reference
        self.args, self.out_dir = args, out_dir
        self.attempted = self.failed = 0
        self.failures = []
        self.reported = []

    def run(self, j: int) -> Job:
        seed = workloads.job_seed(self.args.seed, j)
        calls = workloads.job_calls(self.args.workload, seed)
        job = run_job(self.cli, calls, self.out_dir, self.speed)
        if self.tracer is not None:
            self.tracer.end_job()
        if not job.errors:
            errs, rep = workloads.check_job(self.args.workload, seed, calls,
                                            job.reports, self.reference)
            job.errors += errs
            self.reported.append(dict(rep, job=j, seed=seed))
        self.fail(len(job.errors) > 0, ["job %d: %s" % (j, e) for e in job.errors])
        return job

    def fail(self, failed: bool, messages: list) -> None:
        self.attempted += 1
        self.failed += failed
        self.failures.extend(messages)


def setup_in_fresh_process(args, checked: Checked):
    """Seconds of the set-up in a new process, or None if it failed; its
    job counts as attempted."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        outcome = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.SubprocessError, ValueError, IndexError):
        checked.fail(True, ["set-up in a fresh process failed:\n%s" % (
            traceback.format_exc())])
        return None
    checked.fail(bool(outcome["failures"]),
                 ["fresh set-up: " + m for m in outcome["failures"]])
    return outcome["setup_s"]


TAIL_PERCENTILE = 90


def tail(times: list) -> float:
    """The TAIL_PERCENTILE-th percentile, interpolated (inclusive method)."""
    return statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


def setup_seconds(speed: HostSpeed) -> float:
    """Reference-host seconds from process start to now, the end of the
    warm-up job; host speed is sampled from the start of the warm-up."""
    return (time.perf_counter() - _T0 - speed.spent) * speed.scale(0)


def measure(checked: Checked) -> dict:
    args, tracer, speed = checked.args, checked.tracer, checked.speed
    speed.start()
    warm = checked.run(0)
    setups = [setup_seconds(speed)]
    if tracer is not None:
        tracer.reset()

    jobs, steps = [], []    # steps: wall seconds of each loop step

    def step(j):
        t0, spent0 = time.perf_counter(), speed.spent
        jobs.append(checked.run(j))
        steps.append(time.perf_counter() - t0 - (speed.spent - spent0))
        return jobs[-1]

    # A job starts only while it and the replay of job 0 are expected, at
    # the median loop step so far, to end within the run's seconds.
    loop_t0 = time.perf_counter()
    j = 1
    while True:
        step(j)
        j += 1
        if time.perf_counter() - loop_t0 + 2 * statistics.median(steps) > args.seconds:
            break
    replay = step(0)
    loop_s = time.perf_counter() - loop_t0
    speed.stop()
    if not replay.errors and replay.reports != warm.reports:
        checked.fail(True, ["replay of job 0: reports differ from the warm-up's"])
    times = [job.seconds * job.scale for job in jobs]
    # Loop steps (the job and the checks of its reports) in reference-host
    # seconds.
    busy = [w * job.scale for w, job in zip(steps, jobs)]

    if tracer is None:
        for _ in range(SETUP_SAMPLES - 1):
            seconds = setup_in_fresh_process(args, checked)
            if seconds is not None:
                setups.append(seconds)
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "job_s_p50": (statistics.median(times), "s"),
        # A run holds too few jobs for a percentile with ten jobs beyond
        # it, so the tail is p90 at every job count, interpolated between
        # the two nearest jobs: steadier than the slowest job, and one
        # definition keeps runs with different job counts comparable.
        "job_s_tail": (tail(times), "s"),
        "jobs_per_s": (len(times) / sum(busy), "1/s"),
        "failed_ratio": (checked.failed / checked.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": workloads.FAMILIES[args.workload],
        "environment": environment(),
        "end_to_end": end_to_end, "tail_percentile": TAIL_PERCENTILE,
        "setup_seconds": setups, "job_seconds": times, "loop_s": loop_s,
        "job_wall_seconds": [job.seconds for job in jobs],
        "job_scale": [job.scale for job in jobs],
        "host_speed_samples": len(speed.samples), "host_speed_spent_s": speed.spent,
        "attempted": checked.attempted, "failed": checked.failed,
        "failures": checked.failures, "reported": checked.reported,
        "report_bytes": [len(r) for r in warm.reports],
    }
    if tracer is not None:
        layers = tracer.layer_metrics(len(times))
        layers["cli.report_bytes"] = (float(sum(record["report_bytes"])), "B")
        layers["trace.job_s_p50"] = end_to_end["job_s_p50"]
        record["per_layer"] = layers
    return record


if __name__ == "__main__":
    sys.exit(main())
