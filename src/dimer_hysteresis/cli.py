"""Command-line front end.

Four subcommands: simulate (one trajectory to CSV), bifurcate (branch
diagram to CSV plus a JSON sidecar), critical (critical couplings as
JSON lines), sweep (threshold bisection, or a full hysteresis run with
--hysteresis). The flags are built from config.SETTINGS; each can also
be set in the key=value file named by DIMER_HYSTERESIS_CONFIG, and an
explicit flag wins.

Exit codes: 0 success, 1 numerical failure or a failed allocation, 2
argument or config error or an output file that cannot be written.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from . import config as cfgmod
from . import serialize, svgplot
from .bifurcation import (classify_pitchfork, find_eta_plus, find_eta_star,
                          find_r_threshold, trace_branches)
from .dynamics import IntegratorConfig, integrate
from .errors import ConfigError
from .hysteresis import run_sweep
from .model import EtaSchedule, ModelParams, PhaseState

# the settings each subcommand takes, in effective_config order
_SIM_KEYS = ("r", "nu", "z0", "theta0", "T", "schedule", "eta-start",
             "eta-peak", "dt", "abs-tol", "rel-tol", "sample-stride", "out",
             "plot")
_BIF_KEYS = ("r", "eta-min", "eta-max", "steps", "out", "plot")
_THRESHOLD_KEYS = ("r-min", "r-max", "tol")
_SWEEP_KEYS = _SIM_KEYS + ("grid", "hysteresis") + _THRESHOLD_KEYS
# negative numbers that are values, not options; argparse's own pattern
# misses exponent notation (-5e-05, -.5e-3)
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _require(eff, keys):
    missing = [k for k in keys if eff.get(k) is None]
    if missing:
        raise ConfigError(
            "missing required setting(s): " + ", ".join(sorted(missing)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimer-hysteresis",
        description="damped two-mode condensate dynamics and bifurcations")
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    subs = parser.add_subparsers(dest="command", required=True)
    for name, handler, keys, text in (
            ("simulate", _cmd_simulate, _SIM_KEYS, "integrate one trajectory"),
            ("bifurcate", _cmd_bifurcate, _BIF_KEYS,
             "trace a bifurcation diagram"),
            ("critical", _cmd_critical, (), "critical couplings per power"),
            ("sweep", _cmd_sweep, _SWEEP_KEYS,
             "threshold bisection, or --hysteresis for a full run")):
        sub = subs.add_parser(name, help=text)
        sub._negative_number_matcher = _NEGATIVE_NUMBER
        sub.set_defaults(handler=handler)
        for key in keys:
            sub.add_argument("--" + key, **cfgmod.SETTINGS[key].flag())
        if name == "critical":
            sub.add_argument("--r", type=float, action="append",
                             help="power, repeatable")
    return parser


def _distinct_outputs(eff, sidecar: str | None = None):
    """Refuse two of out, plot and bifurcate's JSON sidecar naming one file."""
    seen = {}
    for name, path in (("out", eff["out"]), ("plot", eff["plot"]),
                       ("the JSON sidecar of out", sidecar)):
        if not path:
            continue
        path = Path(path).resolve()
        if path in seen:
            raise ConfigError(f"{seen[path]} and {name} both name {path}")
        seen[path] = name


def _write_text(path: str | None, text: str):
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _build_run(eff):
    _require(eff, ("r",))
    _distinct_outputs(eff)
    if eff["schedule"] == "triangular" and eff["eta-peak"] is None:
        raise ConfigError("a triangular schedule requires eta-peak")
    params = ModelParams(r=eff["r"], nu=eff["nu"])
    schedule = EtaSchedule(kind=eff["schedule"], eta_start=eff["eta-start"],
                           eta_peak=eff["eta-peak"], T=eff["T"])
    icfg = IntegratorConfig(dt=eff["dt"], abs_tol=eff["abs-tol"],
                            rel_tol=eff["rel-tol"],
                            sample_stride=eff["sample-stride"])
    initial = PhaseState(z=eff["z0"], theta=eff["theta0"])
    return initial, params, schedule, icfg


def _cmd_simulate(args, file_cfg) -> int:
    eff = cfgmod.resolve(file_cfg, args, _SIM_KEYS)
    initial, params, schedule, icfg = _build_run(eff)
    traj = integrate(initial, params, schedule, icfg, (0.0, schedule.T))
    _write_text(eff["out"], serialize.trajectory_to_csv(traj))
    if eff["plot"]:
        _write_text(eff["plot"], svgplot.plot_trajectory(traj))
    return 0


def _cmd_bifurcate(args, file_cfg) -> int:
    eff = cfgmod.resolve(file_cfg, args, _BIF_KEYS)
    _require(eff, ("r", "eta-min", "eta-max"))
    sidecar = eff["out"] and str(Path(eff["out"]).with_suffix(".json"))
    _distinct_outputs(eff, sidecar)
    diagram = trace_branches(eff["r"], (eff["eta-min"], eff["eta-max"]),
                             eff["steps"])
    _write_text(eff["out"], serialize.diagram_to_csv(diagram))
    if sidecar:
        _write_text(sidecar, serialize.diagram_to_json(diagram, effective=eff))
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
        sys.stdout.write(serialize._json({
            "r": r,
            "eta_star": find_eta_star(r),
            "eta_plus": find_eta_plus(r),
            "classification": classification,
        }, {"r": rs}, indent=None))
    return 0


def _cmd_sweep(args, file_cfg) -> int:
    eff = cfgmod.resolve(file_cfg, args, _SWEEP_KEYS)
    if eff["hysteresis"]:
        initial, params, schedule, icfg = _build_run(eff)
        report = run_sweep(initial, params, schedule, icfg, eff["grid"])
        _write_text(eff["out"], serialize.report_to_json(report,
                                                         effective=eff))
        if eff["plot"]:
            _write_text(eff["plot"], svgplot.plot_sweep(report))
        return 0
    if eff["r-min"] is not None or eff["r-max"] is not None:
        out, eff = eff["out"], {k: eff[k] for k in _THRESHOLD_KEYS}
        _require(eff, ("r-min", "r-max"))
        value = find_r_threshold(eff["r-min"], eff["r-max"], eff["tol"])
        _write_text(out, serialize.threshold_to_json(value, effective=eff))
        return 0
    raise ConfigError(
        "sweep needs either --hysteresis or a --r-min/--r-max bracket")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_cfg = cfgmod.load_config()
        return args.handler(args, file_cfg)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
