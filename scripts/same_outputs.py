#!/usr/bin/env python3
"""Compare the CLI's outputs on the working tree with those of a revision.

Exports the revision's `src/` with `git archive` into a temporary
directory, runs the same commands with each side's `src/` on the path,
and compares every output file byte for byte after replacing the side's
output directory, which the JSON files record in their settings, by a
placeholder:

- `simulate` (CSV and SVG) and `sweep --hysteresis` (JSON and SVG) on
  the reference ramps, r = 1 (eta -1 -> -3) and r = 5 (eta -3 -> -8),
  nu = 0.5, T = 4000, stride 10;
- the slow r = 5 ramp, `simulate` at T = 16000 (stride 10), CSV and
  SVG: its z column falls to 6e-320, so the file carries subnormals and
  three-digit exponents;
- one criterion-6 `simulate` (r = 5, nu = 0, eta = -6, T = 1000,
  tolerance 1e-10), CSV and SVG;
- one undamped ramp `simulate` (r = 5, nu = 0, eta -3 -> -8, T = 400,
  z0 = 0.3, theta0 = 0.7, stride 10), CSV and SVG: the undamped ramp's
  kernels;
- an undamped and a damped (nu = 0.5) `simulate` from z0 = theta0 =
  -0.0 (r = 5, eta 3 -> -8, T = 100, stride 10), CSV and SVG: every
  stage of their steps is a signed zero;
- one damped constant-coupling `simulate` that turns stiff (r = 5,
  nu = 0.5, eta = -8, z0 = 0.95, T = 50, stride 10; 153 RODAS3 steps),
  CSV and SVG;
- `bifurcate --r 5` over |eta| in [1.6, 8.96] at 400 steps (CSV, JSON
  and SVG);
- the atlas diagrams: `bifurcate` over (0.25, 1.4) eta_star, eta_star =
  2^r / r, at 400 steps for r = 0.5, 1, 2, 3, 3.4, 4, 4.5 and 6 (CSV,
  JSON and SVG);
- `bifurcate --r 1013` over |eta| in [1, 1e300] at 400 steps (CSV, JSON
  and SVG);
- `critical --r 1 --r 4 --r 5`, whose JSON lines go to stdout, kept as
  a file;
- `find_fixed_points` at 200 seeded (eta, r) in [-8, -0.5] x [0.5, 6],
  the benchmark's ranges, and at three large couplings, one JSON line
  per call with each point's z_star, theta_star, stability and
  eigenvalue parts, run with `python -c` and kept as a file;
- for each `simulate` CSV, a read-back file: the columns that side's
  `trajectory_from_csv` reads from it, a header and one row per sample
  of `float.hex` values, so that a change to the reader shows too; the
  command also reads the CSV with "\r\n" line ends and fails unless
  those columns have the same bits;
- the integrator's work counts: every `simulate` command above run
  again in one process with `cli.integrate` wrapped, one JSON line per
  run with its stem, `clamp_events` and the `IntegrationStats` fields,
  kept as a file, so that a change in the steps taken shows even where
  the samples keep their bits.

Prints "identical" or the first differing line for each of the 61
files. For a CSV, JSON, JSON-lines or read-back file that differs it
then prints, for each column or JSON key path, how many numbers
differ, the largest |difference|, how many became exactly 0.0, and how
many floats apart the others are at most (ulps), where a pair of
integers gives the first two alone; a key path writes an
index into a list of lists or objects as [] and keeps an index into a
list of plain values, so each eigenvalue's real and imaginary parts
are separate paths. It exits 0 only when every file is identical:

    python3 scripts/same_outputs.py --base HEAD~
"""

import argparse
import json
import math
import os
import subprocess
import struct
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLI = ["-m", "dimer_hysteresis.cli"]
FIXED_POINTS = """
import json, random
from dimer_hysteresis import find_fixed_points
rng = random.Random(20)
calls = [(rng.uniform(-8.0, -0.5), rng.uniform(0.5, 6.0)) for _ in range(200)]
for eta, r in calls + [(-1e20, 1.0), (1e20, 1.0), (-1e300, 5.0)]:
    print(json.dumps({"eta": eta, "r": r, "points": [
        {"z_star": p.z_star, "theta_star": p.theta_star,
         "stability": p.stability,
         "eigenvalues": [[v.real, v.imag] for v in p.eigenvalues]}
        for p in find_fixed_points(eta, r)]}))
"""
# the columns trajectory_from_csv reads from the CSV argv[1], written as
# float.hex, after checking that its CRLF form reads to the same bits;
# the reader uses neither params nor schedule
READ_BACK = """
import sys
from pathlib import Path
from dimer_hysteresis import EtaSchedule, ModelParams, trajectory_from_csv
text = Path(sys.argv[1]).read_text(encoding="utf-8")
args = ModelParams(r=1.0), EtaSchedule(kind="constant")
traj = trajectory_from_csv(text, *args)
crlf = trajectory_from_csv(text.replace("\\n", "\\r\\n"), *args)
names = ("tau", "eta", "z", "theta", "H", "E")
if any(getattr(traj, name).tobytes() != getattr(crlf, name).tobytes()
       for name in names):
    sys.exit("the CRLF text reads to other columns than the LF text")
print(",".join(names))
for row in zip(*(getattr(traj, name).tolist() for name in names)):
    print(",".join(map(float.hex, row)))
"""
# argv[1] holds [stem, CLI arguments] of each simulate run; each run's
# CSV goes to os.devnull and its counts, as one JSON line, to stdout
STATS = """
import json, os, sys
from dataclasses import asdict
from dimer_hysteresis import cli
integrate = cli.integrate
for stem, argv in json.loads(sys.argv[1]):
    def recorded(*args, stem=stem):
        traj = integrate(*args)
        print(json.dumps({"run": stem, "clamp_events": traj.clamp_events,
                          **asdict(traj.stats)}))
        return traj
    cli.integrate = recorded
    cli.main([*argv, "--out", os.devnull])
"""
RAMP = ["--nu", "0.5", "--T", "4000", "--schedule", "triangular",
        "--z0", "0.01", "--theta0", "0", "--sample-stride", "10"]
# (output stem, Python arguments, suffixes written next to the stem); a
# .jsonl or .hex file is the command's stdout, and "<out>" in an
# argument is the output directory
RUNS = [
    *((f"{name}-{cmd}", [*CLI, cmd, "--r", r, "--eta-start", start,
                          "--eta-peak", peak, *RAMP, *extra],
       suffixes)
      for name, r, start, peak in (("r1", "1", "-1", "-3"),
                                   ("r5", "5", "-3", "-8"))
      for cmd, extra, suffixes in (
          ("simulate", [], (".csv", ".svg")),
          ("sweep", ["--hysteresis", "--grid", "256"],
           (".json", ".svg")))),
    # the later --T overrides RAMP's
    ("r5-slow-simulate", [*CLI, "simulate", "--r", "5", "--eta-start", "-3",
                          "--eta-peak", "-8", *RAMP, "--T", "16000"],
     (".csv", ".svg")),
    ("c6-simulate", [*CLI, "simulate", "--r", "5", "--nu", "0", "--schedule",
                     "constant", "--eta-start", "-6", "--T", "1000",
                     "--z0", "0.3", "--theta0", "0.7", "--abs-tol", "1e-10",
                     "--rel-tol", "1e-10"], (".csv", ".svg")),
    ("undamped-ramp-simulate", [*CLI, "simulate", "--r", "5", "--nu", "0",
                                "--schedule", "triangular", "--eta-start",
                                "-3", "--eta-peak", "-8", "--T", "400",
                                "--z0", "0.3", "--theta0", "0.7",
                                "--sample-stride", "10"], (".csv", ".svg")),
    *((f"zero-{name}-simulate", [*CLI, "simulate", "--r", "5", "--nu", nu,
                                 "--schedule", "triangular", "--eta-start",
                                 "3", "--eta-peak", "-8", "--T", "100",
                                 "--z0", "-0.0", "--theta0", "-0.0",
                                 "--sample-stride", "10"], (".csv", ".svg"))
      for name, nu in (("undamped", "0"), ("damped", "0.5"))),
    ("stiff-simulate", [*CLI, "simulate", "--r", "5", "--nu", "0.5",
                        "--schedule", "constant", "--eta-start=-8",
                        "--z0", "0.95", "--theta0", "0.1", "--T", "50",
                        "--sample-stride", "10"], (".csv", ".svg")),
    ("r5-bifurcate", [*CLI, "bifurcate", "--r", "5", "--eta-min", "1.6",
                      "--eta-max", "8.96", "--steps", "400"],
     (".csv", ".json", ".svg")),
    *((f"atlas-r{r}-bifurcate",
       [*CLI, "bifurcate", "--r", repr(r),
        "--eta-min", repr(0.25 * 2.0 ** r / r),
        "--eta-max", repr(1.4 * 2.0 ** r / r), "--steps", "400"],
       (".csv", ".json", ".svg"))
      for r in (0.5, 1.0, 2.0, 3.0, 3.4, 4.0, 4.5, 6.0)),
    ("r1013-bifurcate", [*CLI, "bifurcate", "--r", "1013", "--eta-min", "1",
                         "--eta-max", "1e300", "--steps", "400"],
     (".csv", ".json", ".svg")),
    ("critical", [*CLI, "critical", "--r", "1", "--r", "4", "--r", "5"],
     (".jsonl",)),
    ("fixed-points", ["-c", FIXED_POINTS], (".jsonl",)),
]
SIMULATE = [(stem, argv) for stem, argv, _ in RUNS
            if stem.endswith("-simulate")]
RUNS += [(f"{stem}-read-back", ["-c", READ_BACK, f"<out>/{stem}.csv"],
          (".hex",)) for stem, _ in SIMULATE]
RUNS.append(("integration-stats", ["-c", STATS, json.dumps(
    [(stem, argv[len(CLI):]) for stem, argv in SIMULATE])], (".jsonl",)))


def run_all(src: Path, out: Path) -> None:
    """Run every command with src on the path, writing into out."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("DIMER_HYSTERESIS_CONFIG", None)
    for stem, argv, suffixes in RUNS:
        argv = [arg.replace("<out>", str(out)) for arg in argv]
        first = out / (stem + suffixes[0])
        stdout = suffixes[0] in (".jsonl", ".hex")
        files = [] if stdout else ["--out", str(first)]
        if ".svg" in suffixes:
            files += ["--plot", str(out / (stem + ".svg"))]
        done = subprocess.run(
            [sys.executable, *argv, *files],
            env=env, capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(f"{src}: {' '.join(argv)[:200]} exited "
                             f"{done.returncode}: {done.stderr.strip()}")
        if stdout:
            first.write_text(done.stdout, encoding="utf-8")


def first_difference(a: bytes, b: bytes):
    """None if a and b are the same bytes, else (line number, line of a,
    line of b, note) at the first line where they differ. Where the two
    lines differ only in their line endings, note names that, and the
    final newline where one side has none; it is "" otherwise."""
    if a == b:
        return None
    lines_a, lines_b = a.splitlines(True), b.splitlines(True)
    i = 0
    while i < min(len(lines_a), len(lines_b)) and lines_a[i] == lines_b[i]:
        i += 1
    la, lb = (lines[i] if i < len(lines) else b""
              for lines in (lines_a, lines_b))
    body_a, body_b = la.rstrip(b"\r\n"), lb.rstrip(b"\r\n")
    note = ""
    if body_a == body_b and la and lb:
        ends = (la[len(body_a):], lb[len(body_b):])
        note = ("only the final newline differs" if b"" in ends else
                "only the line ending differs")
        note += f": {ends[0]!r} against {ends[1]!r}"
    la, lb = (line.decode("utf-8", "replace").rstrip("\r\n")
              if line else "<end of file>" for line in (la, lb))
    return i + 1, la, lb, note


def _leaves(suffix: str, text: str) -> list:
    """(path, value) for every CSV or read-back cell or JSON leaf, in
    file order; a cell's path is its column's name, and a cell that
    reads as a float (by float.fromhex in a read-back file) is that
    float."""
    if suffix in (".csv", ".hex"):
        header, *rows = text.splitlines()
        names = header.split(",")
        parse = float.fromhex if suffix == ".hex" else float
        leaves = []
        for row in rows:
            for name, cell in zip(names, row.split(",")):
                try:
                    cell = parse(cell)
                except ValueError:
                    pass
                leaves.append((name, cell))
        return leaves
    leaves = []

    def walk(path, x):
        if isinstance(x, dict):
            for key, value in x.items():
                walk(f"{path}.{key}" if path else key, value)
        elif isinstance(x, list):
            plain = not any(isinstance(v, (dict, list)) for v in x)
            for i, value in enumerate(x):
                walk(f"{path}[{i if plain else ''}]", value)
        else:
            leaves.append((path, x))

    for line in text.splitlines() if suffix == ".jsonl" else [text]:
        if line.strip():
            walk("", json.loads(line))
    return leaves


def _ordered(x: float) -> int:
    """x's bits as an integer that counts the floats from 0.0 up or down."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def number_report(suffix: str, a: bytes, b: bytes) -> list:
    """For a CSV, JSON, JSON-lines or read-back pair, one line per
    column or JSON key path that differs: how many numbers differ of how
    many, the largest |difference|, how many became exactly 0.0, and the
    largest distance of the others in ulps (floats apart), the last two
    only where a pair of floats differs, then how many other values
    differ. When the two files' paths differ, one line saying how. Other
    files, and identical columns, give no line."""
    if suffix not in (".csv", ".json", ".jsonl", ".hex"):
        return []
    texts = a.decode("utf-8"), b.decode("utf-8")
    left, right = (_leaves(suffix, t) for t in texts)
    if [p for p, _ in left] != [p for p, _ in right]:
        if suffix in (".csv", ".hex"):
            sizes = [len(t.splitlines()) - 1 for t in texts]
            if sizes[0] != sizes[1]:
                return [f"{sizes[0]} rows against {sizes[1]}"]
            return ["the columns differ"]
        return [f"{len(left)} values against {len(right)}, "
                "with other key paths"]
    stats = {}
    for (path, x), (_, y) in zip(left, right):
        # numbers, differing, largest |difference|, became 0.0, largest
        # ulps of the others, other values differing, floats differing
        s = stats.setdefault(path, [0, 0, 0, 0, 0, 0, 0])
        if not (_number(x) and _number(y)):
            s[5] += x != y
            continue
        s[0] += 1
        if isinstance(x, int) and isinstance(y, int):
            s[1] += x != y
            s[2] = max(s[2], abs(x - y))
            continue
        x, y = float(x), float(y)
        if x.hex() == y.hex():
            continue
        s[1] += 1
        s[6] += 1
        gap = abs(x - y)
        s[2] = max(s[2], math.inf if math.isnan(gap) else gap)
        if y == 0.0 and x != 0.0:
            s[3] += 1
        else:
            s[4] = max(s[4], abs(_ordered(x) - _ordered(y)))
    lines = []
    for path, (n, differ, gap, zeroed, ulps, other, floats) in stats.items():
        parts = []
        if floats:
            parts.append(f"{differ} of {n} numbers differ, largest |Δ| "
                         f"{gap:.3g}, {zeroed} became 0.0, the others at "
                         f"most {ulps} ulps")
        elif differ:
            parts.append(f"{differ} of {n} numbers differ, largest |Δ| "
                         f"{gap}")
        if other:
            parts.append(f"{other} other values differ")
        if parts:
            lines.append(f"{path}: " + "; ".join(parts))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="revision to compare with, e.g. HEAD~")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        base.mkdir()
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", args.base, "src"],
            check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive,
                       check=True)
        sides = {}
        for name, src in (("base", base / "src"), ("work", ROOT / "src")):
            out = tmp / f"out-{name}"
            out.mkdir()
            run_all(src, out)
            sides[name] = out
        same = True
        for stem, _, suffixes in RUNS:
            for suffix in suffixes:
                file = stem + suffix
                a, b = ((sides[n] / file).read_bytes()
                        .replace(str(sides[n]).encode(), b"<out>")
                        for n in ("base", "work"))
                diff = first_difference(a, b)
                if diff is None:
                    print(f"{file}: identical")
                else:
                    same = False
                    line, la, lb, note = diff
                    print(f"{file}: differs at line {line}"
                          + (f", {note}" if note else "") + "\n"
                          f"  {args.base}: {la[:200]}\n  work: {lb[:200]}")
                    for line in number_report(suffix, a, b):
                        print(f"  {line}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
