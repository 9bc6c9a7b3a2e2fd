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
"""

import json
import math
from typing import Optional

import numpy as np

from dimer_hysteresis import (ModelParams, NoConvergenceError, PhaseState,
                              find_eta_star, jacobian_at, stationary_residual)
from dimer_hysteresis.bifurcation import (_RESIDUAL_TOL, _ZMAX, _xi,
                                          _xi_slope_numerator)
from dimer_hysteresis.model import check_power, power_difference


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
