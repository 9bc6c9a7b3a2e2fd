#!/usr/bin/env python3
"""Reproduce the two reference ramp experiments and compare them.

Runs the supercritical null (r=1) and the subcritical hysteresis case
(r=5) with the standard protocol, writes trajectory CSVs, sweep
reports, and SVG plots, and prints a summary table. A slower r=5 ramp
is included to show the loop area is a property of the system, not of
the ramp rate.
"""

import argparse
import pathlib
import time

from dimer_hysteresis import (EtaSchedule, IntegratorConfig, ModelParams,
                              PhaseState, integrate, predict_window,
                              sweep_report)
from dimer_hysteresis.serialize import report_to_json, trajectory_to_csv
from dimer_hysteresis.svgplot import plot_sweep, plot_trajectory

CASES = [
    # label, r, eta_start, eta_peak, T
    ("r1_null", 1.0, -1.0, -3.0, 4000.0),
    ("r5_loop", 5.0, -3.0, -8.0, 4000.0),
    ("r5_slow", 5.0, -3.0, -8.0, 8000.0),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out/hysteresis",
                    help="where CSV/JSON/SVG land")
    ap.add_argument("--grid", type=int, default=128)
    args = ap.parse_args()
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    config = IntegratorConfig()
    rows = []
    for label, r, start, peak, T in CASES:
        params = ModelParams(r=r, nu=0.5)
        schedule = EtaSchedule(kind="triangular", eta_start=start,
                               eta_peak=peak, T=T)
        initial = PhaseState(z=0.01, theta=0.0)
        t0 = time.time()
        traj = integrate(initial, params, schedule, config, (0.0, T))
        report = sweep_report(traj, args.grid)
        wall = time.time() - t0
        (out / f"{label}.csv").write_text(trajectory_to_csv(traj))
        (out / f"{label}.json").write_text(report_to_json(report))
        (out / f"{label}_traj.svg").write_text(plot_trajectory(traj))
        (out / f"{label}_sweep.svg").write_text(plot_sweep(report))
        rows.append((label, r, report, abs(traj.final_state.z), wall))

    print(f"{'case':<10}{'r':>4}{'detected':>10}{'loop':>10}"
          f"{'bistable':>10}{'final|z|':>10}  window")
    for label, r, rep, zf, wall in rows:
        win = ("none" if rep.window is None
               else f"({rep.window[0]:.3f}, {rep.window[1]:.3f})")
        print(f"{label:<10}{r:>4.0f}{str(rep.detected):>10}"
              f"{rep.loop_area:>10.4f}{rep.bistable_area:>10.4f}"
              f"{zf:>10.2e}  {win}   [{wall:.2f}s]")
    pw = predict_window(5.0)
    print(f"predicted r=5 window: ({pw[0]:.4f}, {pw[1]:.4f})")
    fast = next(r for label, _, r, _, _ in rows if label == "r5_loop")
    slow = next(r for label, _, r, _, _ in rows if label == "r5_slow")
    change = abs(slow.loop_area - fast.loop_area) / fast.loop_area
    print(f"r=5 loop area change on doubling T: {100 * change:.2f}%")
    print(f"outputs in {out}/")


if __name__ == "__main__":
    main()
