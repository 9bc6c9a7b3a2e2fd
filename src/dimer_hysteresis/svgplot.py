"""Minimal SVG line plots, no plotting dependency.

Produces self-contained SVG documents for trajectory and bifurcation
output. Stable branches draw solid, unstable dashed; everything else is
a plain polyline. Aimed at quick inspection, not publication.
"""

from __future__ import annotations

import math

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
