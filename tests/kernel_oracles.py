"""Former package kernels, kept as test oracles.

- fold_by_bisection and graph_roots_by_bisection are the all-bisection
  fold and root kernels that the safeguarded-Newton kernel replaced,
  the same code under new names and shorter docstrings: every bracket
  is halved to float resolution, about 55 residual evaluations per
  solve.
- eta_star_numeric locates the pitchfork coupling by bisection on a
  finite-difference slope, using no closed-form derivative.
- diagram_json_by_dumps is the former diagram writer, one
  json.dumps(doc, indent=2) over the whole document.
- wrap_angle_by_remainder is the former wrap_angle, a math.remainder
  per float; csv_by_percent and coords_by_percent are the former
  trajectory CSV writer and SVG coordinate writer, one % conversion per
  value, which the decimal kernel in serialize replaced.
- step_by_loop and dense_by_loop run the former DOP853 stage loop,
  which walked the tables' sparse (index, weight) rows over growing
  stage lists and called a field closure at every stage, and
  rosenbrock_by_loop runs RODAS3's rows the same way. kernels_by_loop
  binds them, with the coupling closures integrate built before the flow
  was written into the kernels (coupling_by_closure), into the form of
  dynamics._kernels.
"""

import json
import math
from functools import partial
from typing import Optional

import numpy as np

from dimer_hysteresis import (ModelParams, NoConvergenceError, PhaseState,
                              SingularityError, find_eta_star, jacobian_at,
                              stationary_residual)
from dimer_hysteresis.bifurcation import (_RESIDUAL_TOL, _ZMAX, _xi,
                                          _xi_slope_numerator)
from dimer_hysteresis.model import check_power, power_difference
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


def fold_by_bisection(r: float) -> Optional[tuple]:
    """(z_f, eta_plus) as the former _fold found it: the same 64-point
    sign scan and checks, one bisection of F to float resolution."""
    check_power(r)
    zs = np.geomspace(1e-4, _ZMAX, 64)
    f = _xi_slope_numerator(zs, r)
    signs = np.where(abs(f) > 2e-15 * power_difference(zs, r), np.sign(f), 0.0)
    zs, signs = zs[signs != 0], signs[signs != 0]
    flips = np.flatnonzero(signs[1:] != signs[:-1])
    if len(flips) > 1 or len(signs) == 0 or signs[-1] < 0:
        raise NoConvergenceError(
            f"slope of the branch graph changes sign {len(flips)} times "
            f"at r={r}; expected a monotone graph or one fold")
    if len(flips) == 0:
        return None
    i = flips[0]
    z = float(_bisect(lambda z: _xi_slope_numerator(z, r) < 0,
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


def graph_roots_by_bisection(mags, r: float, fold: Optional[tuple]) -> tuple:
    """(piece, index, z) of the positive roots of |eta| = xi(z), as the
    former _graph_roots found them: every root bisected on G."""
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
    return piece[keep], index[keep], z[keep]


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


def step_by_loop(field, eta_at, t, h, z, theta, fz, ft, zmax):
    """The generated step kernel's result, from the former stage loop."""
    kz, kt = [fz], [ft]
    if not _stages(field, eta_at, _DOP853_STAGES, t, h, z, theta, kz, kt,
                   zmax):
        return len(kz) - 1, None
    return len(kz) - 1, (*_combine(_DOP853_B, kz, kt),
                         *_combine(_DOP853_E5, kz, kt),
                         *_combine(_DOP853_E3, kz, kt), (*kz, *kt))


def dense_by_loop(field, eta_at, t, h, z, theta, zn, tn, ks, fz, ft, zmax):
    """The generated dense kernel's result, from the former stage loop."""
    n = len(ks) // 2
    return _dense(field, eta_at, t, h, z, theta, zn, tn, [*ks[:n], fz],
                  [*ks[n:], ft], zmax)


def rosenbrock_by_loop(field, eta_at, t, h, z, theta, kz0, kt0, jac, gz, gt,
                       zmax):
    """The generated Rosenbrock kernel's result, from a loop over RODAS3's
    rows that calls field at every stage."""
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
                return evals, None
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
    return evals, (z + mz, theta + mt, *_combine(_sparse(RODAS3_E), uz, ut))


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
    the former coupling closures, and the loop forms of the step, dense
    and Rosenbrock kernels bound to them."""
    eta_at, rate_at = coupling_by_closure(schedule)
    return (field, eta_at, rate_at, partial(step_by_loop, field, eta_at),
            partial(dense_by_loop, field, eta_at),
            partial(rosenbrock_by_loop, field, eta_at))
