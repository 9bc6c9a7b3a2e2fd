"""The three benchmark workloads: seeded inputs, operations, checks.

Each workload is a fixed list of operations run by one caller in a
closed loop (the next operation starts when the previous returns). A
run repeats the list; every pass draws fresh inputs from the run's seed
(`pass_rng`), so the same seed always gives the same inputs and no pass
can be answered from an earlier pass's results. An operation has two
parts:

- run(): the timed call into the package;
- check(out): untimed, compares the result (and any files the CLI
  wrote) with the oracles in oracles.py and returns a list of problems.

Operations reach the package through module attributes at call time,
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

CONSERVE_CASES = ((1.0, -1.0), (1.0, -6.0), (5.0, -1.0), (5.0, -6.0))
CONSERVE_T = 1000.0
CONSERVE_TOL = 1e-10

# r, eta_start, eta_peak, whether the ramp must show a hysteresis loop
SWEEP_CASES = ((1.0, -1.0, -3.0, False), (5.0, -3.0, -8.0, True))
SWEEP_NU = 0.5
SWEEP_T = 4000.0
SWEEP_STRIDE = 10
SWEEP_GRID = 256

DIAGRAM_BANDS = ((0.5, 3.2), (3.4, 6.0))
DIAGRAM_PER_BAND = 4
DIAGRAM_STEPS = 400
DIAGRAM_SPAN = (0.25, 1.4)  # |eta| range in units of eta_star
FIXED_POINT_CALLS = 200


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def pass_rng(seed, pass_index):
    """Generator of one pass's inputs; string seeds hash the same way in
    every process."""
    return random.Random(f"{seed}/{pass_index}")


def _read(path):
    return Path(path).read_text(encoding="utf-8")


def conserve(pkg, rng, workdir):
    """Criterion-6 runs: undamped, constant coupling, tight tolerance.
    The seed jitters the start within +-0.02 of (z, theta) = (0.3, 0.7)."""
    config = pkg.IntegratorConfig(abs_tol=CONSERVE_TOL, rel_tol=CONSERVE_TOL)
    ops = []
    for r, eta in CONSERVE_CASES:
        z0 = 0.3 + rng.uniform(-0.02, 0.02)
        theta0 = 0.7 + rng.uniform(-0.02, 0.02)
        start = pkg.PhaseState(z=z0, theta=theta0)
        params = pkg.ModelParams(r=r, nu=0.0)
        schedule = pkg.EtaSchedule(kind="constant", eta_start=eta,
                                   T=CONSERVE_T)

        def run(start=start, params=params, schedule=schedule):
            return pkg.integrate(start, params, schedule, config,
                                 (0.0, CONSERVE_T))

        def check(traj, r=r, eta=eta, z0=z0, theta0=theta0):
            cols = np.array([(s.tau, s.z, s.theta, s.eta, s.H)
                             for s in traj.samples]).T
            return oracles.check_conserved_trajectory(
                *cols, r=r, eta0=eta, z0=z0, theta0=theta0, T=CONSERVE_T)

        ops.append(Op(f"integrate_r{r:g}_eta{eta:g}", run, check))
    return ops


def sweep(pkg, rng, workdir):
    """The reference ramps as scripted CLI runs: simulate to CSV + SVG,
    read the CSV back, then sweep --hysteresis to JSON + SVG. The seed
    draws |z0| in [0.005, 0.02] with a random sign and theta0 in
    [-0.1, 0.1]."""
    from dimer_hysteresis import cli

    ops = []
    for r, eta_start, eta_peak, loop in SWEEP_CASES:
        z0 = rng.choice((-1.0, 1.0)) * rng.uniform(0.005, 0.02)
        theta0 = rng.uniform(-0.1, 0.1)
        tag = f"r{r:g}"
        csv, traj_svg = workdir / f"{tag}.csv", workdir / f"{tag}.svg"
        report, sweep_svg = (workdir / f"{tag}-sweep.json",
                             workdir / f"{tag}-sweep.svg")
        common = ["--r", repr(r), "--nu", repr(SWEEP_NU),
                  "--T", repr(SWEEP_T), "--schedule", "triangular",
                  "--eta-start", repr(eta_start), "--eta-peak", repr(eta_peak),
                  "--z0", repr(z0), "--theta0", repr(theta0),
                  "--sample-stride", str(SWEEP_STRIDE)]
        simulate_argv = (["simulate"] + common
                         + ["--out", str(csv), "--plot", str(traj_svg)])
        sweep_argv = (["sweep", "--hysteresis"] + common
                      + ["--grid", str(SWEEP_GRID), "--out", str(report),
                         "--plot", str(sweep_svg)])
        params = pkg.ModelParams(r=r, nu=SWEEP_NU)
        schedule = pkg.EtaSchedule(kind="triangular", eta_start=eta_start,
                                   eta_peak=eta_peak, T=SWEEP_T)

        def simulate(argv=simulate_argv):
            return cli.main(argv)

        def check_simulate(code, r=r, eta_start=eta_start, eta_peak=eta_peak,
                           z0=z0, theta0=theta0, csv=csv, svg=traj_svg):
            if code != 0:
                return [f"simulate exited with {code}"]
            return oracles.check_trajectory_csv(
                csv, r=r, eta_start=eta_start, eta_peak=eta_peak, T=SWEEP_T,
                stride=SWEEP_STRIDE, z0=z0, theta0=theta0) + \
                oracles.svg_problems(svg, "trajectory SVG")

        def readback(csv=csv, params=params, schedule=schedule):
            text = _read(csv)
            traj = pkg.trajectory_from_csv(text, params, schedule)
            return text, pkg.trajectory_to_csv(traj)

        def check_readback(pair):
            if pair[0] != pair[1]:
                return ["CSV read back does not re-serialize byte-identically"]
            return []

        def run_sweep(argv=sweep_argv):
            return cli.main(argv)

        def check_sweep(code, r=r, eta_start=eta_start, eta_peak=eta_peak,
                        loop=loop, report=report, svg=sweep_svg):
            if code != 0:
                return [f"sweep exited with {code}"]
            return oracles.check_sweep_report(
                _read(report), r=r, eta_start=eta_start, eta_peak=eta_peak,
                grid=SWEEP_GRID, expect_loop=loop) + \
                oracles.svg_problems(svg, "sweep SVG")

        ops += [Op(f"simulate_{tag}", simulate, check_simulate),
                Op(f"readback_{tag}", readback, check_readback),
                Op(f"sweep_{tag}", run_sweep, check_sweep)]
    return ops


def diagram_powers(rng):
    """Four powers per band, one in each quarter of the band, so every
    pass spreads its diagrams over the band the same way."""
    powers = []
    for lo, hi in DIAGRAM_BANDS:
        width = (hi - lo) / DIAGRAM_PER_BAND
        powers += [rng.uniform(lo + k * width, lo + (k + 1) * width)
                   for k in range(DIAGRAM_PER_BAND)]
    return powers


def diagram(pkg, rng, workdir):
    """A seeded atlas of branch diagrams, each written as CSV, JSON and
    SVG, plus seeded find_fixed_points calls."""
    from dimer_hysteresis import svgplot

    ops = []
    for slot, r in enumerate(diagram_powers(rng)):
        eta_star = 2.0 ** r / r
        lo, hi = DIAGRAM_SPAN[0] * eta_star, DIAGRAM_SPAN[1] * eta_star

        def run(r=r, lo=lo, hi=hi):
            d = pkg.trace_branches(r, (lo, hi), DIAGRAM_STEPS)
            return (d.eta_star, d.eta_plus, pkg.diagram_to_csv(d),
                    pkg.diagram_to_json(d), svgplot.plot_diagram(d))

        def check(data, r=r, lo=lo, hi=hi):
            eta_star, eta_plus, csv, js, svg = data
            return oracles.check_diagram(
                csv, js, svg, r=r, eta_star=eta_star, eta_plus=eta_plus,
                lo=lo, hi=hi, steps=DIAGRAM_STEPS)

        ops.append(Op(f"diagram_{slot}", run, check))

    calls = [(rng.uniform(-8.0, -0.5), rng.uniform(0.5, 6.0))
             for _ in range(FIXED_POINT_CALLS)]

    def find_all():
        return [pkg.find_fixed_points(eta, r) for eta, r in calls]

    def check_roots(results):
        problems = []
        for (eta, r), points in zip(calls, results):
            problems += oracles.check_fixed_points(
                eta, r, [(p.z_star, p.theta_star) for p in points])
        return problems

    ops.append(Op("find_fixed_points", find_all, check_roots))
    return ops


BUILDERS = {"conserve": conserve, "sweep": sweep, "diagram": diagram}


def build(name, pkg, seed, pass_index, workdir):
    """The operation list of one pass."""
    return BUILDERS[name](pkg, pass_rng(seed, pass_index), workdir)


def warm_up(name, pkg, workdir):
    """Small calls down each path a workload takes, so that first-call
    costs (lazy imports, allocator growth) land in set-up, not in the
    first timed operation."""
    if name == "conserve":
        pkg.integrate(pkg.PhaseState(z=0.3, theta=0.7), pkg.ModelParams(r=5.0),
                      pkg.EtaSchedule(kind="constant", eta_start=-6.0, T=1.0),
                      pkg.IntegratorConfig(abs_tol=CONSERVE_TOL,
                                           rel_tol=CONSERVE_TOL), (0.0, 1.0))
    elif name == "sweep":
        from dimer_hysteresis import cli
        common = ["--r", "5", "--nu", "0.5", "--T", "20", "--eta-start", "-3",
                  "--eta-peak", "-8", "--sample-stride", "10"]
        out = workdir / "warm-up"
        cli.main(["simulate"] + common + ["--out", f"{out}.csv",
                                          "--plot", f"{out}.svg"])
        pkg.trajectory_from_csv(_read(f"{out}.csv"), pkg.ModelParams(r=5.0),
                                pkg.EtaSchedule(kind="triangular",
                                                eta_start=-3.0,
                                                eta_peak=-8.0, T=20.0))
        cli.main(["sweep", "--hysteresis", "--grid", "16"] + common
                 + ["--out", f"{out}.json", "--plot", f"{out}-sweep.svg"])
    else:
        from dimer_hysteresis import svgplot
        d = pkg.trace_branches(5.0, (3.0, 8.0), 2)
        pkg.diagram_to_csv(d), pkg.diagram_to_json(d), svgplot.plot_diagram(d)
        pkg.find_fixed_points(-5.0, 5.0)
