"""Tests of the benchmark itself: counts that repeat exactly, outputs
that the checks must reject, and the result line BENCHMARK.json
promises.

    python3 -m pytest benchmarks -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

pkg = run.import_package()

EXACT_COUNTS = ("dynamics.rhs_evals", "dynamics.samples",
                "bifurcation.fixed_points", "bifurcation.jacobian_at.calls",
                "bifurcation.stationary_residual.calls")

# a short slice of each workload: (workload, indices of its operations)
SLICES = {
    "conserve": (0,),              # r = 1, eta = -1
    "sweep": (0, 1, 2),            # simulate, read back, sweep at r = 1
    "diagram": (0, 8),             # one diagram, the find_fixed_points calls
}


def traced_counts(workload, seed, workdir):
    ops = workloads.build(workload, pkg, seed, 0, Path(workdir))
    rec = tracer.SpanRecorder()
    with tracer.tracing(rec, pkg):
        for i in SLICES[workload]:
            ops[i].run()
    metrics = tracer.layer_metrics(rec)
    return {name: metrics[name][0] for name in EXACT_COUNTS}


@pytest.mark.parametrize("workload", sorted(SLICES))
def test_counts_repeat_exactly_for_a_seed(workload, tmp_path):
    first = traced_counts(workload, 7, tmp_path)
    assert traced_counts(workload, 7, tmp_path) == first
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "import test_benchmark as t; "
            "print(json.dumps(t.traced_counts(sys.argv[2], 7, sys.argv[3])))")
    fresh = subprocess.run(
        [sys.executable, "-c", code, str(BENCH), workload, str(tmp_path)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONHASHSEED": "12345"})
    assert fresh.returncode == 0, fresh.stderr
    assert json.loads(fresh.stdout.splitlines()[-1]) == first
    if workload == "diagram":
        assert first["bifurcation.fixed_points"] > 0
        assert first["bifurcation.jacobian_at.calls"] > 0
        assert first["dynamics.rhs_evals"] == 0
    else:
        assert first["dynamics.rhs_evals"] > 0
        assert first["dynamics.samples"] > 0


def _tampered(op, corrupt):
    def run_then_corrupt():
        return corrupt(op.run())
    return dataclasses.replace(op, run=run_then_corrupt)


def _edit_csv_row(path, row, edit):
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[row] = edit(lines[row])
    path.write_text("\n".join(lines), encoding="utf-8")


def test_corrupted_trajectory_csv_row_is_a_failure(tmp_path):
    simulate, readback, _ = workloads.build("sweep", pkg, 3, 0, tmp_path)[:3]
    csv = tmp_path / "r1.csv"

    def nudge_z(code):
        _edit_csv_row(csv, 500, lambda ln: ",".join(
            c if i != 2 else repr(float(c) + 1e-3)
            for i, c in enumerate(ln.split(","))))
        return code

    problems = []
    *_, ok = run.run_op(_tampered(simulate, nudge_z), problems,
                        run.SpeedProbe())
    assert not ok
    assert any("H column" in p for p in problems)

    # tau = 1 spelled "1.0" instead of the writer's %.15g "1" no longer
    # re-serializes byte-identically
    assert run.run_op(simulate, [], run.SpeedProbe())[2]
    _edit_csv_row(csv, 11, lambda ln: ln.replace("1,", "1.0,", 1))
    problems = []
    assert not run.run_op(readback, problems, run.SpeedProbe())[2]
    assert any("byte-identically" in p for p in problems)


def test_corrupted_diagram_and_roots_are_failures(tmp_path):
    ops = workloads.build("diagram", pkg, 3, 0, tmp_path)

    def shift_point(data):
        eta_star, eta_plus, csv, js, svg = data
        head, first, rest = csv.split("\n", 2)
        cols = first.split(",")
        cols[4] = repr(float(cols[4]) + 1e-4)
        csv = "\n".join((head, ",".join(cols), rest))
        return eta_star, eta_plus, csv, js, svg

    problems = []
    assert not run.run_op(_tampered(ops[0], shift_point), problems,
                          run.SpeedProbe())[2]
    assert any("not stationary" in p for p in problems)

    def add_a_root(results):
        results[0] = results[0] + [SimpleNamespace(z_star=0.5, theta_star=0.0)]
        return results

    problems = []
    assert not run.run_op(_tampered(ops[8], add_a_root), problems,
                          run.SpeedProbe())[2]
    assert any("vs oracle" in p for p in problems)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_result_line_has_every_metric_of_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = _bench(ROOT, "--workload", "diagram", "--seed", "1",
                  "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "diagram", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
