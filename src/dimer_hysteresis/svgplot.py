"""Minimal SVG line plots, no plotting dependency.

Produces self-contained SVG documents for trajectory and bifurcation
output. A series is an (x, y, label, style) tuple of two float arrays,
a legend label and "solid" or "dashed"; stable branches draw solid,
unstable dashed. Aimed at quick inspection, not publication.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .serialize import _decimal_text

_WIDTH = 640
_HEIGHT = 420
_MARGIN = 52
_FLOAT_MAX = sys.float_info.max
_COLORS = ("#1f6feb", "#d03050", "#2f9e44", "#b8860b", "#7048e8", "#444444")


def _bounds(values):
    """Finite (lo, hi) of an axis; a flat range is padded to a positive span."""
    values = values[np.isfinite(values)]
    if not values.size:
        return None
    lo, hi = float(values.min()), float(values.max())
    if hi - lo < 1e-12:
        # past 2**52 a half unit is lost to rounding; one ulp is not
        pad = max(0.5, math.ulp(hi))
        lo, hi = max(lo - pad, -_FLOAT_MAX), min(hi + pad, _FLOAT_MAX)
    return lo, hi


def _scaled(lo, hi):
    """(scale, lo * scale, hi * scale) of an axis: scale is 1, or 1/2
    where the span hi - lo overflows, so that the scaled span is finite;
    a scale of 1 leaves every value as it is."""
    scale = 1.0 if math.isfinite(hi - lo) else 0.5
    return scale, lo * scale, hi * scale


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
        if t + step == t:
            # the step is below half an ulp of t: t would never advance
            break
        t += step
    return out


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _svg(height: int, body: str) -> str:
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{height}" viewBox="0 0 {_WIDTH} {height}">\n'
            f'{body}\n</svg>')


def render_panel(series, xlabel: str, ylabel: str, title: str) -> str:
    """The SVG elements of one panel, one per line, without an <svg> root.

    Each series is an (x, y, label, style) tuple: x and y are float
    arrays of equal length, label names the series in the legend, and
    style "dashed" dashes its line. Points where x or y is not finite
    are skipped; a series with a single finite point draws a circle.
    The coordinates of every series are written by one call of
    serialize's decimal kernel. An axis whose finite values span more
    than the largest float is laid out on halved values.
    """
    bounds = (_bounds(np.concatenate([s[0] for s in series])),
              _bounds(np.concatenate([s[1] for s in series])))
    if None in bounds:
        bounds = ((0.0, 1.0), (0.0, 1.0))
    (sx, x0, x1), (sy, y0, y1) = (_scaled(*b) for b in bounds)
    iw = _WIDTH - 2 * _MARGIN
    ih = _HEIGHT - 2 * _MARGIN

    # px and py take scaled values
    def px(x):
        return _MARGIN + (x - x0) / (x1 - x0) * iw

    def py(y):
        return _HEIGHT - _MARGIN - (y - y0) / (y1 - y0) * ih

    parts = [
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
            f'font-size="11" text-anchor="middle" fill="#333">'
            f'{_fmt(t / sx)}</text>')
    for t in _ticks(y0, y1):
        parts.append(
            f'<line x1="{_MARGIN - 5}" y1="{py(t):.1f}" x2="{_MARGIN}" '
            f'y2="{py(t):.1f}" stroke="#666"/>')
        parts.append(
            f'<text x="{_MARGIN - 8}" y="{py(t):.1f}" font-size="11" '
            f'text-anchor="end" dominant-baseline="middle" '
            f'fill="#333">{_fmt(t / sy)}</text>')
    # every series' finite points by one kernel call, each series ended
    # by an infinite point: px and py take a finite point into the frame,
    # since the scaled span is finite, so only the end of a series is
    # written "inf,inf "
    finite = [np.isfinite(x) & np.isfinite(y) for x, y, _, _ in series]
    columns = [np.concatenate([c for s, ok in zip(series, finite)
                               for c in (f(s[i][ok] * scale), [math.inf])])
               for i, (f, scale) in enumerate(((px, sx), (py, sy)))]
    texts = _decimal_text(columns, ", ", fixed=True)[0].split("inf,inf ")
    for k, ((*_, label, style), text) in enumerate(zip(series, texts)):
        if not text:
            continue
        color = _COLORS[k % len(_COLORS)]
        dash = ' stroke-dasharray="6 4"' if style == "dashed" else ""
        if " " not in text[:-1]:
            cx, cy = text[:-1].split(",")
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="{color}"/>')
        else:
            parts.append(f'<polyline points="{text[:-1]}" fill="none" '
                         f'stroke="{color}" stroke-width="1.6"{dash}/>')
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
    parts.append(f'<text x="{_WIDTH / 2:.0f}" y="24" font-size="13" '
                 f'text-anchor="middle" fill="#111">{title}</text>')
    return "\n".join(parts)


def plot_trajectory(traj) -> str:
    """Two stacked panels: z against tau, and z against |eta|."""
    panels = (
        render_panel([(traj.tau, traj.z, "z", "solid")],
                     "tau", "z", "population imbalance"),
        render_panel([(np.abs(traj.eta), traj.z, "z", "solid")],
                     "|eta|", "z", "imbalance against coupling"),
    )
    return _svg(_HEIGHT * len(panels), "\n".join(
        f'<g transform="translate(0 {k * _HEIGHT})">\n{panel}\n</g>'
        for k, panel in enumerate(panels)))


def plot_diagram(diagram) -> str:
    """Bifurcation diagram: z* against |eta|, stability by line style."""
    series = [(np.abs(b.eta), np.asarray(b.z_star), f"{b.kind} {b.branch_id}",
               "solid" if all(s == "stable" for s in b.stability) else "dashed")
              for b in diagram.branches]
    return _svg(_HEIGHT, render_panel(series, "|eta|", "z*",
                                      f"stationary states, r={diagram.r:g}"))


def plot_sweep(report) -> str:
    """Forward and backward traces on the shared |eta| grid."""
    fx, fy = np.reshape(report.forward_trace, (-1, 2)).T
    bx, by = np.reshape(report.backward_trace, (-1, 2)).T
    series = [(fx, fy, "forward", "solid"), (bx, by, "backward", "dashed")]
    return _svg(_HEIGHT, render_panel(series, "|eta|", "mean |z|",
                                      f"sweep r={report.r:g}"))
