"""Benchmark runner for dimer-hysteresis.

    python3 benchmarks/run.py --workload {conserve,sweep,diagram}
                              --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
its src/ directory. One run is one single-threaded Python process:

1. (--trace 0 only) set-up is timed SETUP_REPEATS times, each in a
   fresh interpreter that imports the package, builds the seeded inputs
   and runs the warm-up;
2. the same set-up runs in this process, untimed;
3. the workload's operation list is repeated for SETTLE_S seconds
   untimed, then for --seconds seconds timed; every pass draws fresh
   inputs and every result is checked by the oracles in oracles.py;
4. (--trace 1 only) one more pass runs with every public layer function
   wrapped by tracer.py, and the per-layer metrics are derived from it.

Every timed call is scaled to reference seconds, the time it would take
on an unloaded core of the reference machine. While an operation runs,
a SIGALRM every PROBE_INTERVAL_S runs a fixed calibration kernel for a
fraction of a millisecond; the kernel's speed relative to its reference
time, averaged over the call, scales the call's time (less the sampling
time). On a shared machine this cancels the slow stretches that
neighbours' load imposes on everything, which otherwise move a run's
times by up to half. Raw seconds are kept in the result record.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A fuller record, with the run's
seed and machine, goes to benchmarks/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_REPEATS = 5
# one step of calibration_kernel on an unloaded core of the reference
# machine (Intel Xeon, 2 vCPUs, Python 3.11), in seconds
REF_STEP_S = 0.5e-6
PROBE_STEPS = 400
PROBE_INTERVAL_S = 0.05
# conserve's operations run about 30 % slower, even in reference seconds,
# for the first 6-10 s of a process; passes in that time are not timed
SETTLE_S = 10.0


def import_package():
    """Import dimer_hysteresis from this checkout's src/, never from
    anywhere else on the path."""
    if not (SRC / "dimer_hysteresis" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'dimer_hysteresis'}; "
                 "run from the root of a dimer-hysteresis checkout")
    sys.path.insert(0, str(SRC))
    import dimer_hysteresis
    if Path(dimer_hysteresis.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: imported {dimer_hysteresis.__file__}, not {SRC}")
    return dimer_hysteresis


def set_up(workload, seed, workdir):
    """Everything a run does before its first timed operation; returns
    the package and the first pass's operations."""
    import workloads
    pkg = import_package()
    from dimer_hysteresis import cli, svgplot  # noqa: F401  (lazy layers)
    ops = workloads.build(workload, pkg, seed, 0, workdir)
    workloads.warm_up(workload, pkg, workdir)
    return pkg, ops


def work_dir(tag):
    path = RESULTS / f"work-{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def calibration_kernel(steps):
    """A fixed pure-Python kernel: RK4 steps of a pendulum."""
    z, p, h = 0.3, 0.0, 1e-3
    for _ in range(steps):
        k1z, k1p = p, -math.sin(z)
        k2z, k2p = p + 0.5 * h * k1p, -math.sin(z + 0.5 * h * k1z)
        k3z, k3p = p + 0.5 * h * k2p, -math.sin(z + 0.5 * h * k2z)
        k4z, k4p = p + h * k3p, -math.sin(z + h * k3z)
        z += h / 6.0 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        p += h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    return z


def speed(steps):
    """How fast this core runs Python code right now, relative to the
    reference machine (below 1 when slower)."""
    t0 = time.perf_counter()
    calibration_kernel(steps)
    return REF_STEP_S * steps / (time.perf_counter() - t0)


class SpeedProbe:
    """Times a call while sampling this core's speed during it."""

    def __init__(self):
        self.speeds = []
        self.sampling_s = 0.0

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.speeds.append(speed(PROBE_STEPS))
        self.sampling_s += time.perf_counter() - t0

    def time(self, call):
        """Run call(); return (raw seconds, reference seconds), both
        without the time spent sampling."""
        self.speeds = [speed(PROBE_STEPS)]
        self.sampling_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            raw = time.perf_counter() - t0 - self.sampling_s
            signal.signal(signal.SIGALRM, previous)
        self.speeds.append(speed(PROBE_STEPS))
        return raw, raw * statistics.fmean(self.speeds)


def measure_setup(args):
    """Set-up times of fresh interpreters, from launch to set-up done,
    as (median in reference seconds, raw seconds of each).

    The child prints time.monotonic() when its set-up is done; the
    parent subtracts its own monotonic clock read just before launch
    (both are the system-wide CLOCK_MONOTONIC)."""
    ref, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = speed(20 * PROBE_STEPS)
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: set-up child exited with {proc.returncode}")
        raw.append(float(proc.stdout.split()[-1]) - t0)
        ref.append(raw[-1] * 0.5 * (before + speed(20 * PROBE_STEPS)))
    return statistics.median(ref), raw


def no_span(name):
    return contextlib.nullcontext()


def run_op(op, problems, probe, span=no_span):
    """One timed operation and its untimed check.

    Returns (raw seconds, reference seconds, ok)."""
    outcome = []

    def call():
        try:
            with span(f"op.{op.name}"):
                outcome.append(op.run())
        except Exception:  # a raising operation is a failed one, keep going
            problems.append(f"{op.name}: raised\n{traceback.format_exc()}")

    raw, ref = probe.time(call)
    if not outcome:
        return raw, ref, False
    try:
        found = op.check(outcome.pop())
    except Exception:  # an output the oracle cannot read is wrong
        found = [f"check raised\n{traceback.format_exc()}"]
    problems.extend(f"{op.name}: {p}" for p in found)
    return raw, ref, not found


class Tally:
    """Times and outcomes of every operation run, by operation name."""

    def __init__(self, ops):
        self.raw = {op.name: [] for op in ops}
        self.ref = {op.name: [] for op in ops}
        self.attempted = self.failed = 0

    def add(self, name, result):
        raw, ref, ok = result
        self.raw[name].append(raw)
        self.ref[name].append(ref)
        self.attempted += 1
        self.failed += not ok


def run_passes(next_pass, first, seconds, problems, probe):
    """Settling passes for SETTLE_S, then timed passes for `seconds`, at
    least one of each; every pass has fresh inputs and is checked.
    Returns (settling tally, timed tally)."""
    settling, timed = Tally(first), Tally(first)
    done = 0
    for tally, length in ((settling, SETTLE_S), (timed, seconds)):
        start = time.perf_counter()
        while True:
            for op in next_pass(done) if done else first:
                tally.add(op.name, run_op(op, problems, probe))
            done += 1
            if time.perf_counter() - start >= length:
                break
    return settling, timed


def machine_info(pkg, args, passes):
    import numpy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode())
        src_hash.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "passes": passes,
        "git_commit": git_commit(), "source_sha256": src_hash.hexdigest(),
        "package_version": pkg.__version__,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu": cpu, "nproc": os.cpu_count(),
    }


def git_commit():
    """HEAD of the checkout, or None when it is not its own git work tree."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("conserve", "sweep", "diagram"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    sys.path.insert(0, str(BENCH_DIR))
    os.environ.pop("DIMER_HYSTERESIS_CONFIG", None)

    if args.setup_child:
        workdir = work_dir("setup")
        try:
            set_up(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(time.monotonic())
        return 0

    import_package()  # fail fast, before any child is started
    setup = measure_setup(args) if args.trace == 0 else (None, [])
    workdir = work_dir(args.workload)
    try:
        return measure(args, setup, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, setup, workdir):
    import workloads
    pkg, first = set_up(args.workload, args.seed, workdir)
    probe = SpeedProbe()
    problems = []

    def next_pass(k):
        return workloads.build(args.workload, pkg, args.seed, k, workdir)

    settling, tally = run_passes(next_pass, first, args.seconds, problems,
                                 probe)
    tally.attempted += settling.attempted
    tally.failed += settling.failed
    wall_s = sum(statistics.median(ts) for ts in tally.ref.values())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = len(tally.raw[first[0].name])

    if args.trace:
        import tracer
        rec = tracer.SpanRecorder()
        traced = Tally(first)
        with tracer.tracing(rec, pkg):
            for op in next_pass(0):
                traced.add(op.name, run_op(op, problems, probe, rec.span))
        tally.attempted += traced.attempted
        tally.failed += traced.failed
        metrics = tracer.layer_metrics(rec)
        traced_s = sum(ts[0] for ts in traced.ref.values())
        metrics["trace.overhead"] = (traced_s / wall_s - 1.0, "ratio")
        rec.save(RESULTS / f"{args.workload}.spans.npz")
    else:
        metrics = {"wall_s": (wall_s, "s"), "setup_s": (setup[0], "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}

    record = {
        "meta": machine_info(pkg, args, passes),
        "reference_step_s": REF_STEP_S,
        "op_seconds": tally.raw,
        "op_reference_seconds": tally.ref,
        "setup_seconds": setup[1],
        "fail_ratio": tally.failed / tally.attempted,
        "problems": problems,
    }
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    print("# meta " + json.dumps(record["meta"]))
    for name in tally.raw:
        print(f"# op {name}: median {statistics.median(tally.ref[name]):.4f} "
              f"reference s, {statistics.median(tally.raw[name]):.4f} s "
              f"measured, over {passes} passes")
    print(f"# fail_ratio {tally.failed}/{tally.attempted} = "
          f"{record['fail_ratio']:g}")
    result = {
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
