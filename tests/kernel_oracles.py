"""Former package kernels, kept as test oracles.

- fold_by_bisection and graph_roots_by_bisection are the all-bisection
  fold and root kernels that the safeguarded-Newton kernel replaced,
  the same code under new names and shorter docstrings: every bracket
  is halved to float resolution, about 55 residual evaluations per
  solve.
- sheet_residual is the former scalar residual of the root kernel, G
  and H_zz through the checked power_difference, _h_zz and _power_sum,
  which the bound closures of bifurcation._sheet_kernels replaced;
  fold_scan_signs is the former 64-point sign scan of _fold, which
  computed P twice and every term of the scan on each call.
- xi_slope_numerator and xi_slope_numerator_slope are the former F and
  F' of the fold, checked and on floats or arrays, which the bound
  closure of bifurcation._slope_kernel replaced; F computed P through
  the checked power_difference, and the two computed S_(r-1) once each.
- eta_star_numeric locates the pitchfork coupling by bisection on a
  finite-difference slope, using no closed-form derivative.
- diagram_json_by_dumps is the former diagram writer, one
  json.dumps(doc, indent=2) over the whole document.
- branches_by_points is the former branch assembly of trace_branches,
  which stored each branch as a tuple of FixedPoints that
  _make_fixed_point built one by one.
- wrap_angle_by_remainder is the former wrap_angle, a math.remainder
  per float; csv_by_percent and coords_by_percent are the former
  trajectory CSV writer and SVG coordinate writer, one % conversion per
  value, which the decimal kernel in serialize replaced.
- render_panel_by_series is the former svgplot.render_panel, which
  called the decimal kernel once per series where the panel now calls
  it once for all of its series.
- step_by_loop and dense_by_loop run the former DOP853 stage loop,
  which walked the tables' sparse (index, weight) rows over growing
  stage lists, each sum from 0.0, and called a field closure at every
  stage, and rosenbrock_by_loop runs RODAS3's rows the same way; the
  two step oracles end an attempt as the generated kernels do, with
  the former error norm of integrate's loop and the end derivative
  through the field closure. Given the flag dense, step_by_loop appends
  dense_by_loop's three extra stages to an accepted step, as the one
  generated step kernel evaluates them inside its attempt. kernels_by_loop
  binds the two step oracles, with the coupling closures integrate built
  before the flow was written into the kernels (coupling_by_closure),
  into the five functions of dynamics._kernels. _dense is the former
  per-step computation of the interpolant's coefficients, in floats,
  which dynamics now does over numpy columns after the run.
- trajectory_from_csv_by_blocks is the former trajectory CSV reader,
  one float() per field in blocks of CSV_BLOCK rows, which the one-call
  np.fromstring parse replaced; its count message names the line, as
  the reader's now does.
"""

import json
import math
from functools import partial
from typing import Optional

import numpy as np

from dimer_hysteresis import (DomainError, ModelParams, NoConvergenceError,
                              PhaseState, SingularityError, Trajectory,
                              bifurcation, find_eta_star, jacobian_at,
                              stationary_residual)
from dimer_hysteresis.bifurcation import (_RESIDUAL_TOL, _ROOT_NOISE,
                                          _SLOPE_NOISE, _ZMAX, _h_zz,
                                          _power_sum, _xi)
from dimer_hysteresis.model import check_power, power_difference
from dimer_hysteresis.serialize import TRAJECTORY_HEADER, _decimal_text
from dimer_hysteresis.svgplot import (_COLORS, _HEIGHT, _MARGIN, _WIDTH,
                                      _bounds, _fmt, _ticks)
from dimer_hysteresis.tableau import (DOP853_B, DOP853_D, DOP853_DENSE_STAGES,
                                      DOP853_E3, DOP853_E5, DOP853_STAGES,
                                      RODAS3_E, RODAS3_GAMMA, RODAS3_M,
                                      RODAS3_STAGES)


def _bisect(above, lo, hi):
    """Shrink every bracket [lo, hi] to float resolution.

    above(z) is True where the bracketed point lies above z. lo and hi
    are floats or arrays of brackets, bisected together.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            return mid
        up = above(mid)
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)


def sheet_residual(z, m, r):
    """(G, dG/dz = H_zz, noise) on floats at theta* = 0, eta = -m, as the
    former _sheet_residual computed them."""
    s = math.sqrt(1.0 - z * z)
    bulk = m / 2.0 ** r * power_difference(z, r)
    wall = 2.0 * z / s
    return (bulk - wall, _h_zz(s, 1.0, -m, r, _power_sum(z, r)),
            _ROOT_NOISE * (bulk + wall))


def xi_slope_numerator(z, r):
    """F(z) = P - r z (1 - z^2) [(1+z)^(r-1) + (1-z)^(r-1)], P = (1+z)^r
    - (1-z)^r, on floats or arrays: the sign of xi' for 0 < z < 1."""
    return power_difference(z, r) - r * z * (1.0 - z * z) * _power_sum(z, r)


def xi_slope_numerator_slope(z, r):
    """F'(z) = 3 r z^2 S_(r-1) - r (r-1) z (1 - z^2) D_(r-2), with S_k =
    (1+z)^k + (1-z)^k and D_k = (1+z)^k - (1-z)^k: float or array."""
    d = (1.0 + z) ** (r - 2.0) - (1.0 - z) ** (r - 2.0)
    return (3.0 * r * z * z * _power_sum(z, r)
            - r * (r - 1.0) * z * (1.0 - z * z) * d)


def fold_scan_signs(r: float):
    """The former fold scan: the sign of F on 64 geometric points over
    [1e-4, 1 - EPS_CLAMP], or 0 within _SLOPE_NOISE P of zero."""
    zs = np.geomspace(1e-4, _ZMAX, 64)
    f = xi_slope_numerator(zs, r)
    return np.where(abs(f) > _SLOPE_NOISE * power_difference(zs, r),
                    np.sign(f), 0.0)


def fold_by_bisection(r: float) -> Optional[tuple]:
    """(z_f, eta_plus) as the former _fold found it: the same 64-point
    sign scan and checks, one bisection of F to float resolution."""
    check_power(r)
    zs = np.geomspace(1e-4, _ZMAX, 64)
    signs = fold_scan_signs(r)
    zs, signs = zs[signs != 0], signs[signs != 0]
    flips = np.flatnonzero(signs[1:] != signs[:-1])
    if len(flips) > 1 or len(signs) == 0 or signs[-1] < 0:
        raise NoConvergenceError(
            f"slope of the branch graph changes sign {len(flips)} times "
            f"at r={r}; expected a monotone graph or one fold")
    if len(flips) == 0:
        return None
    i = flips[0]
    z = float(_bisect(lambda z: xi_slope_numerator(z, r) < 0,
                      zs[i], zs[i + 1]))
    m = float(_xi(z, r))
    s = math.sqrt(1.0 - z * z)
    g = stationary_residual(z, 0.0, -m, r)
    dg = jacobian_at(PhaseState(z=z), -m, ModelParams(r=r))[1][0]
    if not (abs(g) <= _RESIDUAL_TOL * 2.0 * z / s
            and abs(dg) <= _RESIDUAL_TOL * 2.0 / (s * s * s)):
        raise NoConvergenceError(
            f"fold residuals {g:.2e}, {dg:.2e} at r={r} above "
            f"{_RESIDUAL_TOL} of their terms")
    eta_star = find_eta_star(r)
    if not 0.0 < m < eta_star:
        raise NoConvergenceError(f"fold magnitude {m} outside (0, {eta_star})")
    return z, m


def graph_roots_by_bisection(mags, r: float, fold: Optional[tuple]) -> list:
    """The positive roots of |eta| = xi(z) as the former _graph_roots
    found them, every root bisected on G, in the form the package's
    returns: one (indices into mags, roots) pair of lists for each piece
    that holds a root, in increasing z of the pieces."""
    mags = np.asarray(mags, dtype=np.float64)
    ends = [(0.0, find_eta_star(r)), *([fold] if fold else []),
            (_ZMAX, float(_xi(_ZMAX, r)))]
    parts = []
    for p, ((a, xa), (b, xb)) in enumerate(zip(ends, ends[1:])):
        holds = (min(xa, xb) < mags) & (mags < max(xa, xb))
        if p == 1:
            holds |= mags == xa
        idx = np.flatnonzero(holds)
        n = len(idx)
        parts.append((np.full(n, p), idx, np.full(n, a), np.full(n, b),
                      np.full(n, xb > xa)))
    piece, index, lo, hi, rises = map(np.concatenate, zip(*parts))
    m = mags[index]
    # G > 0 exactly where xi(z) < m
    z = _bisect(lambda z: (stationary_residual(z, 0.0, -m, r) > 0) == rises,
                lo, hi)
    if fold is not None:
        z[m == fold[1]] = fold[0]
    keep = z >= 1e-9
    piece, index, z = piece[keep], index[keep], z[keep]
    return [(index[piece == p].tolist(), z[piece == p].tolist())
            for p in np.unique(piece).tolist()]


def eta_star_numeric(r: float) -> float:
    """Independent cross-check of find_eta_star.

    Bisection on the finite-difference slope of G at z = 0 as a function
    of the coupling magnitude: the symmetric state changes character
    where that slope crosses zero. Uses no closed-form derivative.
    """
    check_power(r)
    delta = 1e-5

    def slope(m):
        g_p = stationary_residual(delta, 0.0, -m, r)
        g_m = stationary_residual(-delta, 0.0, -m, r)
        return (g_p - g_m) / (2.0 * delta)

    lo, hi = 1e-8, max(10.0, 4.0 * 2.0 ** r / r)
    slo = slope(lo)
    if (slope(hi) > 0) == (slo > 0):
        raise NoConvergenceError("no sign change bracketing eta_star")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if (slope(mid) > 0) == (slo > 0):
            lo, slo = mid, slope(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def branches_by_points(r: float, eta_range: tuple, steps: int) -> list:
    """The former trace_branches' branches as (branch_id, kind,
    theta_star, points): the same roots, each point a FixedPoint from
    _make_fixed_point."""
    mags = np.linspace(*eta_range, steps)
    etas = -mags

    def points(z, eta):
        return [bifurcation._make_fixed_point(zz, 0.0, e, r)
                for zz, e in zip(z.tolist(), eta.tolist())]

    born = [(0, 0.0, "symmetric", points(np.zeros(steps), etas))]
    fold = bifurcation._fold(r)
    for index, roots in bifurcation._graph_roots(mags.tolist(), r, fold):
        z = np.array(roots)
        first, z0 = index[0], roots[0]
        born += [(first, -z0, "asymmetric", points(-z, etas[index])),
                 (first, z0, "asymmetric", points(z, etas[index]))]
    born.sort(key=lambda b: b[:2])
    return [(i, kind, 0.0, pts) for i, (_, _, kind, pts) in enumerate(born)]


def diagram_json_by_dumps(diagram, effective: dict | None = None) -> str:
    """The former diagram_to_json: one json.dumps(doc, indent=2)."""
    branches = []
    for branch in diagram.branches:
        branches.append({
            "branch_id": branch.branch_id,
            "kind": branch.kind,
            "theta_star": branch.theta_star,
            "points": [{"eta": p.eta, "z_star": p.z_star,
                        "stability": p.stability,
                        "eigenvalues": [[ev.real, ev.imag]
                                        for ev in p.eigenvalues]}
                       for p in branch.points],
        })
    doc = {
        "r": diagram.r,
        "eta_star": diagram.eta_star,
        "eta_plus": diagram.eta_plus,
        "classification": diagram.classification,
        "branches": branches,
    }
    doc["effective_config"] = dict(effective or {})
    return json.dumps(doc, indent=2) + "\n"


def wrap_angle_by_remainder(theta: float) -> float:
    """The former wrap_angle: theta's remainder by tau, in (-pi, pi]."""
    w = math.remainder(theta, math.tau)
    if w <= -math.pi:
        w += math.tau
    return w


def csv_by_percent(traj) -> str:
    """The former trajectory_to_csv: %.15g per value, in blocks of 4096
    rows, the phase wrapped one float at a time."""
    theta = np.array([wrap_angle_by_remainder(x) for x in traj.theta.tolist()])
    cols = (traj.tau, traj.eta, traj.z, theta, traj.H, traj.E)
    row = ",".join(["%.15g"] * 6) + "\n"
    parts = ["tau,eta,z,theta,H,E\n"]
    for i in range(0, len(theta), 4096):
        rows = np.column_stack([c[i:i + 4096] for c in cols])
        parts.append(row * len(rows) % tuple(rows.ravel().tolist()))
    return "".join(parts)


def coords_by_percent(xy) -> str:
    """The former polyline coordinates of an (n, 2) array: "%.2f,%.2f"
    per point, joined by spaces."""
    return " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())


def render_panel_by_series(series, xlabel: str, ylabel: str,
                           title: str) -> str:
    """The former svgplot.render_panel: one decimal-kernel call per
    series, on its finite points."""
    bounds = (_bounds(np.concatenate([s[0] for s in series])),
              _bounds(np.concatenate([s[1] for s in series])))
    if None in bounds:
        bounds = ((0.0, 1.0), (0.0, 1.0))
    (x0, x1), (y0, y1) = bounds
    iw = _WIDTH - 2 * _MARGIN
    ih = _HEIGHT - 2 * _MARGIN

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
            f'font-size="11" text-anchor="middle" fill="#333">{_fmt(t)}</text>')
    for t in _ticks(y0, y1):
        parts.append(
            f'<line x1="{_MARGIN - 5}" y1="{py(t):.1f}" x2="{_MARGIN}" '
            f'y2="{py(t):.1f}" stroke="#666"/>')
        parts.append(
            f'<text x="{_MARGIN - 8}" y="{py(t):.1f}" font-size="11" '
            f'text-anchor="end" dominant-baseline="middle" '
            f'fill="#333">{_fmt(t)}</text>')
    for k, (x, y, label, style) in enumerate(series):
        finite = np.isfinite(x) & np.isfinite(y)
        xy = (px(x[finite]), py(y[finite]))
        if not len(xy[0]):
            continue
        color = _COLORS[k % len(_COLORS)]
        dash = ' stroke-dasharray="6 4"' if style == "dashed" else ""
        if len(xy[0]) == 1:
            cx, cy = _decimal_text(xy, "  ", fixed=True)[0].split()
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="3" '
                         f'fill="{color}"/>')
        else:
            coords = _decimal_text(xy, ", ", fixed=True)[0][:-1]
            parts.append(f'<polyline points="{coords}" fill="none" '
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


def _sparse(row):
    """(index, weight) pairs of a row's nonzero weights."""
    return tuple((j, x) for j, x in enumerate(row) if x)


def _sparse_stages(stages):
    return tuple((c, _sparse(a)) for c, a in stages)


_DOP853_STAGES = _sparse_stages(DOP853_STAGES)
_DOP853_B = _sparse(DOP853_B)
_DOP853_E5 = _sparse(DOP853_E5)
_DOP853_E3 = _sparse(DOP853_E3)
_DOP853_DENSE_STAGES = _sparse_stages(DOP853_DENSE_STAGES)
_DOP853_D = tuple(_sparse(d) for d in DOP853_D)


def _combine(row, kz, kt):
    """Weighted sums of the stage derivatives kz and kt."""
    sz = st = 0.0
    for j, x in row:
        sz += x * kz[j]
        st += x * kt[j]
    return sz, st


def _stages(field, eta_at, table, t, h, z, theta, kz, kt, zmax):
    """Append the derivatives of the table's stages to kz and kt.

    Returns False, leaving the remaining stages out, as soon as a stage
    point leaves |z| <= zmax.
    """
    for c, row in table:
        sz, st = _combine(row, kz, kt)
        zi = z + h * sz
        if abs(zi) > zmax:
            return False
        dz, dtheta = field(zi, theta + h * st, eta_at(t + c * h))
        kz.append(dz)
        kt.append(dtheta)
    return True


def _dense(field, eta_at, t, h, z, theta, zn, tn, kz, kt, zmax):
    """Coefficients of DOP853's 7th-order interpolant over [t, t + h].

    kz, kt hold the 12 stage derivatives plus the one at the step's end;
    the three extra stages are appended to them.
    """
    if not _stages(field, eta_at, _DOP853_DENSE_STAGES, t, h, z, theta,
                   kz, kt, zmax):
        raise SingularityError(
            f"interpolation stage left |z| <= {zmax} at tau={t}")
    dz, dt = zn - z, tn - theta
    rows = [_combine(d, kz, kt) for d in _DOP853_D]
    return ((z, dz, h * kz[0] - dz, 2.0 * dz - h * (kz[12] + kz[0]),
             *(h * r[0] for r in rows)),
            (theta, dt, h * kt[0] - dt, 2.0 * dt - h * (kt[12] + kt[0]),
             *(h * r[1] for r in rows)))


def _error(zn, tn, ez, et, atol, rtol):
    """Max norm over (z, theta) of the error (ez, et) under atol + rtol
    |y| at the end (zn, tn)."""
    return max(abs(ez) / (atol + rtol * abs(zn)),
               abs(et) / (atol + rtol * abs(tn)))


def _attempt(field, eta_at, evals, zn, tn, err, zero, t_new, zmax):
    """The generated kernels' result of an attempt that ends at (zn, tn)
    with error err after evals stage evaluations, without stages:
    nothing past evals where zn leaves |z| <= zmax, and the end
    derivative from field, at the coupling at t_new, only where
    err <= 1."""
    if abs(zn) > zmax:
        return evals, None, None, None, None, None, None, None
    if not err <= 1.0:
        return evals, err, False, None, None, None, None, None
    return (evals + 1, err, zero, zn, tn, *field(zn, tn, eta_at(t_new)),
            None)


def step_by_loop(field, eta_at, t, h, z, theta, fz, ft, t_new, zmax, atol,
                 rtol, dense):
    """The generated step kernel's result, from the former stage loop and
    the former error norm of integrate's loop; where dense is set, an
    accepted step also returns the record tail, its stages, the end
    derivative and dense_by_loop's three extra stages, and counts
    those."""
    kz, kt = [fz], [ft]
    if not _stages(field, eta_at, _DOP853_STAGES, t, h, z, theta, kz, kt,
                   zmax):
        return len(kz) - 1, None, None, None, None, None, None, None
    sz, st = _combine(_DOP853_B, kz, kt)
    zn, tn = z + h * sz, theta + h * st
    e5 = _error(zn, tn, *_combine(_DOP853_E5, kz, kt), atol, rtol)
    e3 = _error(zn, tn, *_combine(_DOP853_E3, kz, kt), atol, rtol)
    den = math.sqrt(e5 * e5 + 0.01 * e3 * e3)
    zero = not den
    err = 0.0 if zero else e5 * e5 / den
    result = _attempt(field, eta_at, len(kz) - 1, zn, tn, err, zero, t_new,
                      zmax)
    if not dense or result[3] is None:
        return result
    evals, err, zero, zn, tn, fzn, ftn, _ = result
    extra = dense_by_loop(field, eta_at, t, h, z, theta, (*kz, *kt), fzn,
                          ftn, zmax)
    return (evals + 3, err, zero, zn, tn, fzn, ftn,
            (*kz, *kt, fzn, ftn, *extra))


def dense_by_loop(field, eta_at, t, h, z, theta, ks, fz, ft, zmax):
    """The three extra stages of the interpolant, (kz13, kz14, kz15,
    kt13, kt14, kt15), from the former stage loop over the step's stages
    ks = (kz0..kz11, kt0..kt11) and the derivative (fz, ft) at its
    end."""
    n = len(ks) // 2
    kz, kt = [*ks[:n], fz], [*ks[n:], ft]
    if not _stages(field, eta_at, _DOP853_DENSE_STAGES, t, h, z, theta,
                   kz, kt, zmax):
        raise SingularityError(
            f"interpolation stage left |z| <= {zmax} at tau={t}")
    return (*kz[n + 1:], *kt[n + 1:])


def rosenbrock_by_loop(field, eta_at, t, h, z, theta, kz0, kt0, t_new, jac,
                       gz, gt, zmax, atol, rtol):
    """The generated Rosenbrock kernel's result, from a loop over RODAS3's
    rows that calls field at every stage, and the former max-norm error
    of integrate's loop."""
    (j11, j12), (j21, j22) = jac
    g = 1.0 / (h * RODAS3_GAMMA)
    m11 = g - j11
    m22 = g - j22
    det = m11 * m22 - j12 * j21
    d = 1.0 / det if det else math.inf
    p11, p12, p21, p22 = m22 * d, j12 * d, j21 * d, m11 * d
    uz, ut, evals = [], [], 0
    for alpha, gamma, a, c in RODAS3_STAGES:
        wz, wt = kz0, kt0
        if alpha or any(a):
            sz, st = _combine(_sparse(a), uz, ut)
            zi = z + sz
            if abs(zi) > zmax:
                return evals, None, None, None, None, None, None, None
            wz, wt = field(zi, theta + st, eta_at(t + alpha * h))
            evals += 1
        if any(c):
            cz, ct = _combine(_sparse(c), uz, ut)
            wz, wt = wz + cz / h, wt + ct / h
        if gamma:
            wz, wt = wz + gamma * h * gz, wt + gamma * h * gt
        uz.append(p11 * wz + p12 * wt)
        ut.append(p21 * wz + p22 * wt)
    mz, mt = _combine(_sparse(RODAS3_M), uz, ut)
    zn, tn = z + mz, theta + mt
    err = _error(zn, tn, *_combine(_sparse(RODAS3_E), uz, ut), atol, rtol)
    return _attempt(field, eta_at, evals, zn, tn, err, False, t_new, zmax)


def coupling_by_closure(schedule):
    """(eta_at, rate_at) as integrate built them for each schedule kind
    before the coupling was written into the kernels."""
    if schedule.kind == "constant":
        e0 = schedule.eta_start

        def eta_at(t):
            return e0

        def rate_at(t):
            return 0.0
    else:
        e0, T_s = schedule.eta_start, schedule.T
        half = 0.5 * T_s
        rate = (schedule.eta_peak - e0) / half

        def eta_at(t):
            x = t if t <= half else T_s - t
            return e0 + rate * (x if x > 0.0 else 0.0)

        def rate_at(t):
            return rate if t < half else -rate
    return eta_at, rate_at


def kernels_by_loop(field, schedule):
    """dynamics._kernels' result with field called at every stage: field,
    the former coupling closures, and the loop forms of the step and
    Rosenbrock kernels bound to them."""
    eta_at, rate_at = coupling_by_closure(schedule)
    return (field, eta_at, rate_at, partial(step_by_loop, field, eta_at),
            partial(rosenbrock_by_loop, field, eta_at))


# rows the former trajectory CSV reader parsed per block
CSV_BLOCK = 4096


def trajectory_from_csv_by_blocks(text, params, schedule):
    """The former trajectory_from_csv: float() per field, block by block
    of CSV_BLOCK rows, each block's rows checked for six fields first."""
    lines = text.strip().split("\n")
    if lines[0].removesuffix("\r") != TRAJECTORY_HEADER:
        raise DomainError(f"expected header {TRAJECTORY_HEADER!r}")
    # lines[i] is line i + lead after the lines strip() dropped
    lead = 1 + text[:len(text) - len(text.lstrip())].count("\n")
    values = np.empty((len(lines) - 1, 6))
    for i in range(1, len(lines), CSV_BLOCK):
        block = lines[i:i + CSV_BLOCK]
        for k, ln in enumerate(block):
            if ln.count(",") != 5:
                raise DomainError(
                    f"line {i + k + lead}: expected 6 columns, got "
                    f"{ln.count(',') + 1}: {ln!r}")
        try:
            values[i - 1:i - 1 + len(block)] = np.reshape(
                list(map(float, ",".join(block).split(","))), (-1, 6))
        except ValueError:
            for k, ln in enumerate(block):
                for field in ln.split(","):
                    try:
                        float(field)
                    except ValueError:
                        raise DomainError(f"line {i + k + lead}: {field!r} "
                                          f"is not a number: {ln!r}") \
                            from None
            raise
    tau, eta, z, theta, H, E = values.T
    return Trajectory(tau, z, theta, eta, H, E, params, schedule)
