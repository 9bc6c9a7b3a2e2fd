#!/usr/bin/env python3
"""Benchmark a revision against the working tree in alternating pairs.

Exports `src/` and `benchmarks/` of the base revision, and of the work
tree's tracked files (the commit `git stash create` makes of them, or
HEAD when they are unchanged), with `git archive` into a temporary
directory, as `same_outputs.py` does. Then runs

    python3 benchmarks/run.py --workload W --seed S --seconds X

in each export, pair by pair: both sides of a pair get the same seed,
and the side that runs first alternates. Appends one point to
`BENCH_<workload>.json` at the repo root, a list that grows by one point
per measured change: both revisions with their `src/` trees (and
whether the work tree's `src/` or `benchmarks/` differ from HEAD), the
seeds, every run's end-to-end metrics and operation counts, and per
metric each side's median and quartiles, the change's median relative
to the base's, and the pairs the work tree won and tied. Which
direction is better comes from BENCHMARK.json. Exits 1 if any run
failed an operation.

    python3 scripts/bench_pairs.py --workload diagram --base HEAD~ \\
        --pairs 10 --seconds 5
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "work")


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(commit: str, into: Path) -> None:
    """src/ and benchmarks/ of commit, extracted into the directory into."""
    into.mkdir()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", commit, "src", "benchmarks"],
        check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in the export side: its result record."""
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds)],
        cwd=side, capture_output=True, text=True)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{side}: run.py exited {done.returncode} without "
                         f"a result: {done.stderr.strip()[-2000:]}") from None


def spread(values: list) -> dict:
    """Median and quartiles of a side's runs, and the runs themselves."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summary(results: dict, better: dict) -> dict:
    """Per end-to-end metric: each side's spread, the work tree's median
    relative to the base's, and the pairs it won and tied."""
    metrics = {}
    for name, lower in better.items():
        values = {s: [r["metrics"][name]["value"] for r in results[s]]
                  for s in SIDES}
        pairs = list(zip(values["base"], values["work"]))
        wins = sum((w < b) if lower else (w > b) for b, w in pairs)
        base, work = (spread(values[s]) for s in SIDES)
        metrics[name] = {
            "unit": results["base"][0]["metrics"][name]["unit"],
            "better": "lower" if lower else "higher",
            "base": base, "work": work,
            "change": work["median"] / base["median"] - 1.0,
            "work_wins": wins, "ties": sum(b == w for b, w in pairs)}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("conserve", "sweep", "diagram"))
    parser.add_argument("--base", required=True,
                        help="revision to compare with, e.g. HEAD~")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--first-seed", type=int, default=1,
                        help="pair k runs seed first-seed + k")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    head = git("rev-parse", "HEAD")
    commits = {"base": git("rev-parse", args.base + "^{commit}"),
               "work": git("stash", "create") or head}
    changed = subprocess.run(["git", "-C", str(ROOT), "diff", "--quiet",
                              "HEAD", "--", "src", "benchmarks"]).returncode
    seeds = [args.first_seed + k for k in range(args.pairs)]
    results = {s: [] for s in SIDES}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        dirs = {s: Path(tmp) / s for s in SIDES}
        for s in SIDES:
            export(commits[s], dirs[s])
        for k, seed in enumerate(seeds):
            for s in SIDES[::-1] if k % 2 else SIDES:
                results[s].append(run(dirs[s], args.workload, seed,
                                      args.seconds))
            print(f"pair {k + 1}/{args.pairs}, seed {seed}: " + ", ".join(
                f"{s} wall_s {results[s][-1]['metrics']['wall_s']['value']:.4f}"
                for s in SIDES), flush=True)
    point = {
        "base": {"rev": args.base, "commit": commits["base"],
                 "src_tree": git("rev-parse", commits["base"] + ":src")},
        "work": {"head": head, "uncommitted_changes": changed != 0,
                 "src_tree": git("rev-parse", commits["work"] + ":src")},
        "pairs": args.pairs, "seconds": args.seconds, "seeds": seeds,
        "first_side": ["base" if k % 2 == 0 else "work"
                       for k in range(args.pairs)],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "machine": platform.machine(), "nproc": os.cpu_count(),
        "operations": {s: {"attempted": sum(r["attempted"]
                                            for r in results[s]),
                           "failed": sum(r["failed"] for r in results[s])}
                       for s in SIDES},
        "metrics": summary(results, better),
    }
    path = ROOT / f"BENCH_{args.workload}.json"
    doc = (json.loads(path.read_text(encoding="utf-8")) if path.exists()
           else {"workload": args.workload, "points": []})
    doc["points"].append(point)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for name, m in point["metrics"].items():
        print(f"{name}: base {m['base']['median']:.4g} "
              f"[{m['base']['q1']:.4g}, {m['base']['q3']:.4g}], work "
              f"{m['work']['median']:.4g} [{m['work']['q1']:.4g}, "
              f"{m['work']['q3']:.4g}] {m['unit']}, {m['change']:+.1%}, "
              f"work better in {m['work_wins']} of {args.pairs} pairs")
    failed = sum(v["failed"] for v in point["operations"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
