"""SVG plots: byte identity with the point-by-point writer, and ticks
that end for every finite input.

The oracle below is the former writer, kept verbatim: it formatted each
point through scalar closures from lists of (x, y) tuples and stacked
the trajectory's panels by re-parsing their <svg> documents.
"""

import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import dimer_hysteresis
from dimer_hysteresis import (EtaSchedule, IntegratorConfig, ModelParams,
                              PhaseState, find_eta_star, integrate,
                              sweep_report, trace_branches)
from dimer_hysteresis import svgplot
from dimer_hysteresis.config import ENV_VAR

# --- oracle: the former writer, verbatim ---------------------------------

_WIDTH = 640
_HEIGHT = 420
_MARGIN = 52
_COLORS = ("#1f6feb", "#d03050", "#2f9e44", "#b8860b", "#7048e8", "#444444")


def _finite_bounds(series):
    xs = [x for s in series for x, _ in s["points"] if math.isfinite(x)]
    ys = [y for s in series for _, y in s["points"] if math.isfinite(y)]
    if not xs or not ys:
        return (0.0, 1.0, 0.0, 1.0)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5
    return (x0, x1, y0, y1)


def _ticks(lo, hi, n=5):
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / n))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9 * span:
        out.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return out


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def render_panel(series, xlabel: str, ylabel: str, title: str = "") -> str:
    """One SVG panel from a list of series dicts.

    Each series: {"points": [(x, y), ...], "label": str, "style":
    "solid"|"dashed"}. Returns a complete <svg> element as a string.
    """
    x0, x1, y0, y1 = _finite_bounds(series)
    iw = _WIDTH - 2 * _MARGIN
    ih = _HEIGHT - 2 * _MARGIN

    def px(x):
        return _MARGIN + (x - x0) / (x1 - x0) * iw

    def py(y):
        return _HEIGHT - _MARGIN - (y - y0) / (y1 - y0) * ih

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{iw}" height="{ih}" '
        'fill="none" stroke="#999" stroke-width="1"/>',
    ]
    for t in _ticks(x0, x1):
        parts.append(
            f'<line x1="{px(t):.1f}" y1="{_HEIGHT - _MARGIN}" '
            f'x2="{px(t):.1f}" y2="{_HEIGHT - _MARGIN + 5}" stroke="#666"/>')
        parts.append(
            f'<text x="{px(t):.1f}" y="{_HEIGHT - _MARGIN + 18}" '
            f'font-size="11" text-anchor="middle" fill="#333">{_fmt(t)}</text>')
    for t in _ticks(y0, y1):
        parts.append(
            f'<line x1="{_MARGIN - 5}" y1="{py(t):.1f}" x2="{_MARGIN}" '
            f'y2="{py(t):.1f}" stroke="#666"/>')
        parts.append(
            f'<text x="{_MARGIN - 8}" y="{py(t):.1f}" font-size="11" '
            f'text-anchor="end" dominant-baseline="middle" '
            f'fill="#333">{_fmt(t)}</text>')
    for k, s in enumerate(series):
        pts = [(x, y) for x, y in s["points"]
               if math.isfinite(x) and math.isfinite(y)]
        if not pts:
            continue
        color = _COLORS[k % len(_COLORS)]
        dash = ' stroke-dasharray="6 4"' if s.get("style") == "dashed" else ""
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        if len(pts) == 1:
            x, y = pts[0]
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" '
                         f'fill="{color}"/>')
        else:
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="1.6"{dash}/>')
        label = s.get("label")
        if label:
            ly = _MARGIN + 16 + 15 * k
            parts.append(f'<line x1="{_WIDTH - _MARGIN - 60}" y1="{ly - 4}" '
                         f'x2="{_WIDTH - _MARGIN - 40}" y2="{ly - 4}" '
                         f'stroke="{color}" stroke-width="1.6"{dash}/>')
            parts.append(f'<text x="{_WIDTH - _MARGIN - 35}" y="{ly}" '
                         f'font-size="11" fill="#333">{label}</text>')
    parts.append(f'<text x="{_WIDTH / 2:.0f}" y="{_HEIGHT - 12}" '
                 f'font-size="12" text-anchor="middle" '
                 f'fill="#111">{xlabel}</text>')
    parts.append(f'<text x="16" y="{_HEIGHT / 2:.0f}" font-size="12" '
                 f'text-anchor="middle" fill="#111" '
                 f'transform="rotate(-90 16 {_HEIGHT / 2:.0f})">{ylabel}</text>')
    if title:
        parts.append(f'<text x="{_WIDTH / 2:.0f}" y="24" font-size="13" '
                     f'text-anchor="middle" fill="#111">{title}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def stack_panels(panels) -> str:
    """Stack rendered panels vertically into one SVG document."""
    total_h = _HEIGHT * len(panels)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
             f'height="{total_h}" viewBox="0 0 {_WIDTH} {total_h}">']
    for k, panel in enumerate(panels):
        inner = panel.split(">", 1)[1].rsplit("</svg>", 1)[0]
        parts.append(f'<g transform="translate(0 {k * _HEIGHT})">{inner}</g>')
    parts.append("</svg>")
    return "\n".join(parts)


def plot_trajectory(traj) -> str:
    """Two stacked panels: z against tau, and z against |eta|."""
    z = traj.z.tolist()
    zs = list(zip(traj.tau.tolist(), z))
    z_eta = list(zip(abs(traj.eta).tolist(), z))
    top = render_panel([{"points": zs, "label": "z", "style": "solid"}],
                       "tau", "z", "population imbalance")
    bottom = render_panel(
        [{"points": z_eta, "label": "z", "style": "solid"}],
        "|eta|", "z", "imbalance against coupling")
    return stack_panels([top, bottom])


def plot_diagram(diagram) -> str:
    """Bifurcation diagram: z* against |eta|, stability by line style."""
    series = []
    for branch in diagram.branches:
        pts = [(abs(p.eta), p.z_star) for p in branch.points]
        style = "solid" if all(
            p.stability == "stable" for p in branch.points) else "dashed"
        series.append({"points": pts, "style": style,
                       "label": f"{branch.kind} {branch.branch_id}"})
    return render_panel(series, "|eta|", "z*",
                        f"stationary states, r={diagram.r:g}")


def plot_sweep(report) -> str:
    """Forward and backward traces on the shared |eta| grid."""
    series = [
        {"points": list(report.forward_trace), "label": "forward",
         "style": "solid"},
        {"points": list(report.backward_trace), "label": "backward",
         "style": "dashed"},
    ]
    return render_panel(series, "|eta|", "mean |z|",
                        f"sweep r={report.r:g}")


# --- byte identity with the oracle ---------------------------------------

def assert_same_plot(new, old):
    assert new == old
    ET.fromstring(new)


class TestMatchesThePointByPointWriter:
    def test_reference_ramp(self, reference_ramp):
        assert len(reference_ramp.tau) == 40_001
        assert_same_plot(svgplot.plot_trajectory(reference_ramp),
                         plot_trajectory(reference_ramp))

    def test_reference_sweep(self, reference_ramp):
        report = sweep_report(reference_ramp, 128)
        assert_same_plot(svgplot.plot_sweep(report), plot_sweep(report))

    def test_constant_schedule(self):
        # |eta| is flat, so the lower panel's x axis takes the padding
        traj = integrate(PhaseState(z=0.3, theta=0.0),
                         ModelParams(r=2.0, nu=0.1),
                         EtaSchedule(kind="constant", eta_start=-1.5, T=50.0),
                         IntegratorConfig(sample_stride=10), (0.0, 50.0))
        assert_same_plot(svgplot.plot_trajectory(traj), plot_trajectory(traj))
        report = sweep_report(traj, 16)
        assert_same_plot(svgplot.plot_sweep(report), plot_sweep(report))

    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0, 4.0, 5.0])
    def test_diagram(self, r):
        star = find_eta_star(r)
        diagram = trace_branches(r, (0.25 * star, 1.4 * star), 400)
        assert_same_plot(svgplot.plot_diagram(diagram), plot_diagram(diagram))

    def test_two_step_diagram_draws_circles(self):
        # asymmetric states exist only at the upper grid point, so each
        # asymmetric branch is a single point
        star = find_eta_star(1.0)
        diagram = trace_branches(1.0, (0.5 * star, 1.5 * star), 2)
        new = svgplot.plot_diagram(diagram)
        assert new.count("<circle") == 2
        assert_same_plot(new, plot_diagram(diagram))


def synthetic_traj(tau, z, eta):
    return SimpleNamespace(tau=np.array(tau, dtype=float),
                           z=np.array(z, dtype=float),
                           eta=np.array(eta, dtype=float))


def synthetic_report(forward, backward, r=5.0):
    return SimpleNamespace(r=r, forward_trace=tuple(forward),
                           backward_trace=tuple(backward))


NAN, INF = math.nan, math.inf

SYNTHETIC_TRAJECTORIES = {
    "non-finite points": synthetic_traj(
        [0.0, 1.0, 2.0, INF, 4.0, 5.0, 6.0],
        [0.1, NAN, -0.4, 0.2, INF, 0.9, -INF],
        [-1.0, -2.0, NAN, -4.0, -5.0, -INF, -7.0]),
    "no finite point": synthetic_traj(
        [NAN, INF, 2.0], [NAN, -INF, INF], [-1.0, NAN, -3.0]),
    "no point finite on both axes": synthetic_traj(
        [NAN, INF, 2.0], [0.5, NAN, -INF], [-1.0, NAN, -3.0]),
    "flat": synthetic_traj([0.0, 1.0, 2.0, 3.0], [0.3] * 4, [-2.5] * 4),
    "nearly flat": synthetic_traj(
        [0.0, 1.0, 2.0], [0.3, 0.3 + 4e-13, 0.3], [-2.5, -2.5 - 5e-13, -2.5]),
    "one point": synthetic_traj([0.0], [-0.25], [-1.0]),
    "negative zero": synthetic_traj(
        [0.0, 1.0, 2.0], [-0.0, 0.0, -0.0], [-0.0, -1.0, -2.0]),
}

SYNTHETIC_REPORTS = {
    "non-finite points": synthetic_report(
        [(1.0, 0.2), (2.0, NAN), (3.0, 0.6), (INF, 0.1)],
        [(1.0, 0.1), (2.0, 0.3), (3.0, INF), (INF, 0.2)]),
    "one finite point each": synthetic_report(
        [(1.0, 0.2), (2.0, NAN)], [(1.0, NAN), (2.0, 0.4)]),
    "no finite point": synthetic_report([(NAN, 0.2)], [(1.0, NAN)]),
    "one series empty": synthetic_report(
        [(1.0, NAN), (2.0, NAN)], [(1.0, 0.7), (2.0, 0.5)]),
    "flat": synthetic_report([(4.0, 0.0)] * 3, [(4.0, 0.0)] * 3, r=1.0),
}


class TestSyntheticSeries:
    @pytest.mark.parametrize("name", SYNTHETIC_TRAJECTORIES)
    def test_trajectory(self, name):
        traj = SYNTHETIC_TRAJECTORIES[name]
        assert_same_plot(svgplot.plot_trajectory(traj), plot_trajectory(traj))

    @pytest.mark.parametrize("name", SYNTHETIC_REPORTS)
    def test_sweep(self, name):
        report = SYNTHETIC_REPORTS[name]
        assert_same_plot(svgplot.plot_sweep(report), plot_sweep(report))

    def test_no_finite_point_takes_the_unit_bounds(self):
        doc = svgplot.plot_trajectory(SYNTHETIC_TRAJECTORIES["no finite point"])
        assert ">0</text>" in doc and ">1</text>" in doc
        assert "<polyline" not in doc and "<circle" not in doc


# --- ticks end for every finite input -------------------------------------

class TestTicksEnd:
    @pytest.mark.parametrize("x", [3e15, 2.0 ** 52, 5e15, 2.0 ** 53 + 2,
                                   1e17, 1e300, sys.float_info.max,
                                   -sys.float_info.max])
    def test_flat_range_at_large_magnitude(self, x):
        lo, hi = svgplot._bounds(np.array([x, x]))
        assert hi - lo > 0
        ticks = svgplot._ticks(lo, hi)
        assert 1 <= len(ticks) <= 11
        assert all(lo - (hi - lo) <= t <= hi + (hi - lo) for t in ticks)

    def test_step_below_half_an_ulp_stops(self):
        # a 1-wide range at 3e15, where one ulp is 0.5: the 0.2 step
        # cannot move t, so a loop that only adds it never ends
        ticks = svgplot._ticks(3e15 - 0.5, 3e15 + 0.5)
        assert ticks == [3e15 - 0.5]

    def test_padding_unchanged_below_two_to_the_52(self):
        for x in (0.0, -1.5, 1e-13, 3e15, 2.0 ** 52 - 1):
            assert svgplot._bounds(np.array([x])) == (x - 0.5, x + 0.5)


PACKAGE_ROOT = str(Path(dimer_hysteresis.__file__).resolve().parents[1])


def run_cli_process(args, timeout=60):
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    env.pop(ENV_VAR, None)
    return subprocess.run(
        [sys.executable, "-m", "dimer_hysteresis.cli", *args],
        capture_output=True, text=True, timeout=timeout, env=env)


@pytest.mark.parametrize("args", [
    ["simulate", "--r", "1", "--schedule", "constant", "--eta-start=-3e15",
     "--z0", "0", "--T", "1"],
    ["simulate", "--r", "1", "--schedule", "constant", "--eta-start=-5e15",
     "--z0", "0", "--T", "1"],
    ["simulate", "--r", "1", "--schedule", "constant", "--eta-start=-1e17",
     "--z0", "0", "--T", "1"],
    ["bifurcate", "--r", "1", "--eta-min", "3e15",
     "--eta-max", "3000000000000001", "--steps", "2"],
], ids=["simulate-3e15", "simulate-5e15", "simulate-1e17", "bifurcate-3e15"])
def test_large_coupling_plots_end(tmp_path, args):
    out, plot = tmp_path / "out.csv", tmp_path / "plot.svg"
    done = run_cli_process([*args, "--out", str(out), "--plot", str(plot)])
    assert done.returncode == 0, done.stderr
    assert ET.fromstring(plot.read_text()).tag.endswith("svg")
