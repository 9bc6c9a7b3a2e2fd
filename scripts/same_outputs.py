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
- one criterion-6 `simulate` (r = 5, nu = 0, eta = -6, T = 1000,
  tolerance 1e-10), CSV and SVG;
- one damped constant-coupling `simulate` that turns stiff (r = 5,
  nu = 0.5, eta = -8, z0 = 0.95, T = 50, stride 10; 153 RODAS3 steps),
  CSV and SVG;
- `bifurcate --r 5` over |eta| in [1.6, 8.96] at 400 steps (CSV, JSON
  and SVG);
- `critical --r 1 --r 4 --r 5`, whose JSON lines go to stdout, kept as
  a file.

Prints "identical" or the first differing line for each file, and exits
0 only when every file is identical:

    python3 scripts/same_outputs.py --base HEAD~
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RAMP = ["--nu", "0.5", "--T", "4000", "--schedule", "triangular",
        "--z0", "0.01", "--theta0", "0", "--sample-stride", "10"]
# (output stem, subcommand and flags, suffixes written next to the stem)
RUNS = [
    *((f"{name}-{cmd}", [cmd, "--r", r, "--eta-start", start,
                          "--eta-peak", peak, *RAMP, *extra],
       suffixes)
      for name, r, start, peak in (("r1", "1", "-1", "-3"),
                                   ("r5", "5", "-3", "-8"))
      for cmd, extra, suffixes in (
          ("simulate", [], (".csv", ".svg")),
          ("sweep", ["--hysteresis", "--grid", "256"],
           (".json", ".svg")))),
    ("c6-simulate", ["simulate", "--r", "5", "--nu", "0", "--schedule",
                     "constant", "--eta-start", "-6", "--T", "1000",
                     "--z0", "0.3", "--theta0", "0.7", "--abs-tol", "1e-10",
                     "--rel-tol", "1e-10"], (".csv", ".svg")),
    ("stiff-simulate", ["simulate", "--r", "5", "--nu", "0.5",
                        "--schedule", "constant", "--eta-start=-8",
                        "--z0", "0.95", "--theta0", "0.1", "--T", "50",
                        "--sample-stride", "10"], (".csv", ".svg")),
    ("r5-bifurcate", ["bifurcate", "--r", "5", "--eta-min", "1.6",
                      "--eta-max", "8.96", "--steps", "400"],
     (".csv", ".json", ".svg")),
    # critical has no --out; its stdout is the file
    ("critical", ["critical", "--r", "1", "--r", "4", "--r", "5"],
     (".jsonl",)),
]


def run_all(src: Path, out: Path) -> None:
    """Run every command with src on the path, writing into out."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("DIMER_HYSTERESIS_CONFIG", None)
    for stem, argv, suffixes in RUNS:
        first = out / (stem + suffixes[0])
        files = [] if argv[0] == "critical" else ["--out", str(first)]
        if ".svg" in suffixes:
            files += ["--plot", str(out / (stem + ".svg"))]
        done = subprocess.run(
            [sys.executable, "-m", "dimer_hysteresis.cli", *argv, *files],
            env=env, capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(f"{src}: {' '.join(argv)} exited "
                             f"{done.returncode}: {done.stderr.strip()}")
        if not files:
            first.write_text(done.stdout, encoding="utf-8")


def first_difference(a: str, b: str):
    """(line number, line of a, line of b) where a and b first differ."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i in range(max(len(lines_a), len(lines_b))):
        la = lines_a[i] if i < len(lines_a) else "<end of file>"
        lb = lines_b[i] if i < len(lines_b) else "<end of file>"
        if la != lb:
            return i + 1, la, lb
    return None


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
                a, b = ((sides[n] / file).read_text(encoding="utf-8")
                        .replace(str(sides[n]), "<out>")
                        for n in ("base", "work"))
                diff = first_difference(a, b)
                if diff is None:
                    print(f"{file}: identical")
                else:
                    same = False
                    line, la, lb = diff
                    print(f"{file}: differs at line {line}\n"
                          f"  {args.base}: {la[:200]}\n  work: {lb[:200]}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
