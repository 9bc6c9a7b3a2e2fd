"""Command-line front end.

Four subcommands: simulate (one trajectory to CSV), bifurcate (branch
diagram to CSV plus a JSON sidecar), critical (critical couplings as
JSON lines), sweep (threshold bisection, or a full hysteresis run with
--hysteresis). Flag defaults can come from a key=value file named by
DIMER_HYSTERESIS_CONFIG; explicit flags always win.

Exit codes: 0 success, 1 numerical failure, 2 argument or config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import config as cfgmod
from . import serialize, svgplot
from .bifurcation import (classify_pitchfork, find_eta_plus, find_eta_star,
                          find_r_threshold, trace_branches)
from .dynamics import IntegratorConfig, integrate
from .errors import ConfigError
from .hysteresis import run_sweep
from .model import SCHEDULE_KINDS, EtaSchedule, ModelParams, PhaseState

_DEFAULTS = {
    "nu": 0.0,
    "z0": 0.01,
    "theta0": 0.0,
    "T": 4000.0,
    "schedule": "triangular",
    "eta-start": -1.0,
    "dt": 1e-3,
    "abs-tol": 1e-9,
    "rel-tol": 1e-9,
    "sample-stride": 1,
    "steps": 500,
    "grid": 128,
    "tol": 1e-4,
}

_SIM_KEYS = ("r", "nu", "z0", "theta0", "T", "schedule", "eta-start",
             "eta-peak", "dt", "abs-tol", "rel-tol", "sample-stride", "out",
             "plot")
_BIF_KEYS = ("r", "eta-min", "eta-max", "steps", "out", "plot")
_SWEEP_KEYS = _SIM_KEYS + ("grid", "hysteresis", "r-min", "r-max", "tol")


def _cli_values(args, keys):
    return {k: getattr(args, k.replace("-", "_"), None) for k in keys}


def _resolve(merged, keys):
    return {k: merged.get(k, _DEFAULTS.get(k)) for k in keys}


def _require(eff, keys):
    missing = [k for k in keys if eff.get(k) is None]
    if missing:
        raise ConfigError(
            "missing required setting(s): " + ", ".join(sorted(missing)))


def _add_sim_flags(sub):
    sub.add_argument("--r", type=float, help="nonlinearity power")
    sub.add_argument("--nu", type=float, help="damping constant")
    sub.add_argument("--z0", type=float, help="initial imbalance")
    sub.add_argument("--theta0", type=float, help="initial phase")
    sub.add_argument("--T", type=float, help="total sweep time")
    sub.add_argument("--schedule", choices=SCHEDULE_KINDS)
    sub.add_argument("--eta-start", type=float)
    sub.add_argument("--eta-peak", type=float)
    sub.add_argument("--dt", type=float, help="initial step")
    sub.add_argument("--abs-tol", type=float)
    sub.add_argument("--rel-tol", type=float)
    sub.add_argument("--sample-stride", type=int,
                     help="output samples per unit tau")
    sub.add_argument("--out", help="output CSV path (default stdout)")
    sub.add_argument("--plot", help="also write an SVG plot here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimer-hysteresis",
        description="damped two-mode condensate dynamics and bifurcations")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="integrate one trajectory")
    _add_sim_flags(sim)
    sim.set_defaults(handler=_cmd_simulate)

    bif = subs.add_parser("bifurcate", help="trace a bifurcation diagram")
    bif.add_argument("--r", type=float)
    bif.add_argument("--eta-min", type=float, help="|eta| lower bound")
    bif.add_argument("--eta-max", type=float, help="|eta| upper bound")
    bif.add_argument("--steps", type=int)
    bif.add_argument("--out", help="branch CSV path; JSON sidecar beside it")
    bif.add_argument("--plot", help="also write an SVG diagram here")
    bif.set_defaults(handler=_cmd_bifurcate)

    crit = subs.add_parser("critical", help="critical couplings per power")
    crit.add_argument("--r", type=float, action="append",
                      help="power, repeatable")
    crit.set_defaults(handler=_cmd_critical)

    sweep = subs.add_parser(
        "sweep", help="threshold bisection, or --hysteresis for a full run")
    _add_sim_flags(sweep)
    sweep.add_argument("--hysteresis", action="store_true", default=None)
    sweep.add_argument("--grid", type=int, help="|eta| bins for the report")
    sweep.add_argument("--r-min", type=float)
    sweep.add_argument("--r-max", type=float)
    sweep.add_argument("--tol", type=float)
    sweep.set_defaults(handler=_cmd_sweep)
    return parser


def _write_text(path: str | None, text: str):
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _build_run(eff):
    _require(eff, ("r",))
    if eff["schedule"] == "triangular" and eff.get("eta-peak") is None:
        raise ConfigError("a triangular schedule requires eta-peak")
    params = ModelParams(r=eff["r"], nu=eff["nu"])
    schedule = EtaSchedule(kind=eff["schedule"], eta_start=eff["eta-start"],
                           eta_peak=eff.get("eta-peak"), T=eff["T"])
    icfg = IntegratorConfig(dt=eff["dt"], abs_tol=eff["abs-tol"],
                            rel_tol=eff["rel-tol"],
                            sample_stride=eff["sample-stride"])
    initial = PhaseState(z=eff["z0"], theta=eff["theta0"])
    return initial, params, schedule, icfg


def _cmd_simulate(args, file_cfg) -> int:
    merged = cfgmod.merge(file_cfg, _cli_values(args, _SIM_KEYS))
    eff = _resolve(merged, _SIM_KEYS)
    initial, params, schedule, icfg = _build_run(eff)
    traj = integrate(initial, params, schedule, icfg, (0.0, schedule.T))
    _write_text(eff["out"], serialize.trajectory_to_csv(traj))
    if eff["plot"]:
        _write_text(eff["plot"], svgplot.plot_trajectory(traj))
    return 0


def _cmd_bifurcate(args, file_cfg) -> int:
    merged = cfgmod.merge(file_cfg, _cli_values(args, _BIF_KEYS))
    eff = _resolve(merged, _BIF_KEYS)
    _require(eff, ("r", "eta-min", "eta-max"))
    diagram = trace_branches(eff["r"], (eff["eta-min"], eff["eta-max"]),
                             eff["steps"])
    _write_text(eff["out"], serialize.diagram_to_csv(diagram))
    if eff["out"]:
        sidecar = Path(eff["out"]).with_suffix(".json")
        sidecar.write_text(serialize.diagram_to_json(diagram, effective=eff),
                           encoding="utf-8")
    if eff["plot"]:
        _write_text(eff["plot"], svgplot.plot_diagram(diagram))
    return 0


def _cmd_critical(args, file_cfg) -> int:
    rs = args.r
    if not rs and "r" in file_cfg:
        rs = [file_cfg["r"]]
    if not rs:
        raise ConfigError("critical requires at least one --r")
    for r in rs:
        # classify first: inside its refusal band the fold is not
        # resolvable either, and the refusal is the clearer error
        classification = classify_pitchfork(r)
        record = {
            "r": r,
            "eta_star": find_eta_star(r),
            "eta_plus": find_eta_plus(r),
            "classification": classification,
            "effective_config": {"r": rs},
        }
        sys.stdout.write(json.dumps(record) + "\n")
    return 0


def _cmd_sweep(args, file_cfg) -> int:
    merged = cfgmod.merge(file_cfg, _cli_values(args, _SWEEP_KEYS))
    if merged.get("hysteresis"):
        eff = _resolve(merged, _SWEEP_KEYS)
        initial, params, schedule, icfg = _build_run(eff)
        report = run_sweep(initial, params, schedule, icfg, eff["grid"])
        _write_text(eff["out"], serialize.report_to_json(report,
                                                         effective=eff))
        if eff["plot"]:
            _write_text(eff["plot"], svgplot.plot_sweep(report))
        return 0
    if merged.get("r-min") is not None or merged.get("r-max") is not None:
        eff = _resolve(merged, ("r-min", "r-max", "tol"))
        _require(eff, ("r-min", "r-max"))
        value = find_r_threshold(eff["r-min"], eff["r-max"], eff["tol"])
        sys.stdout.write(serialize.threshold_to_json(value, effective=eff))
        return 0
    raise ConfigError(
        "sweep needs either --hysteresis or a --r-min/--r-max bracket")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_cfg = cfgmod.load_config()
        return args.handler(args, file_cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
