"""Stationary states, their stability, and the critical coupling values.

Stationary states of the undamped flow sit at sin(theta) = 0, so theta*
is 0 or pi, and at roots of the reduced residual

    G(z) = -2 z cos(theta*) / sqrt(1 - z^2)
           - (eta / 2^r) [(1+z)^r - (1-z)^r].

G is odd in z; z = 0 is always a root (the symmetric state). Asymmetric
roots appear in +/- pairs, only on the sheet cos(theta*) = -sign(eta),
and there they solve the explicit branch graph

    |eta| = xi(z) = 2^(r+1) z / (sqrt(1 - z^2) [(1+z)^r - (1-z)^r]),

since G = [(1+z)^r - (1-z)^r] / 2^r * (|eta| - xi(z)) on that sheet.
xi(0+) = eta_star = 2^r / r, where the symmetric state destabilizes
through a pitchfork; xi grows without bound as z -> 1. Below
r_threshold = (3 + sqrt(13)) / 2 xi rises monotonically and the
pitchfork is supercritical; above it xi first falls to an interior
minimum, the saddle-node eta_plus < eta_star that bounds the bistable
window, and the pitchfork is subcritical.

The fold and every root come from one scalar safeguarded-Newton kernel
on floats, one bracket at a time, with closed-form slopes from float
closures bound once: F' for the fold per power (_slope_kernel), H_zz
for G per coupling (_sheet_kernels). Each root is bracketed first, so a
Newton step that would leave its bracket bisects instead. A root
depends on (|eta|, r) alone, and both finders read it from the
per-piece lists of _graph_roots, so every finder gets it bit for bit.

Stability comes from the closed-form Jacobian (jacobian_at) and its
eigenvalues (eigenvalues_2x2), in real arithmetic. On the sheet
theta* = 0 that trace_branches draws, the Jacobian at nu = 0 is
((0, 2 s), (H_zz, 0)), so the eigenvalues are +-sqrt(2 s H_zz):
_fixed_points computes them as columns of each Branch from that, bit
for bit as find_fixed_points computes them point by point. s and H_zz
are even in z, so each mirror state -z takes its twin's spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DomainError,
    NoConvergenceError,
    SingularityError,
    ThresholdProximityError,
)
from .model import (EPS_CLAMP, ModelParams, PhaseState, _finite,
                    _power_difference, check_count, check_eta, check_power,
                    dh_dz)

EPS_EIG = 1e-8

# Larger root of (r - 1)(r - 2) = 3: where the cubic coefficient of G
# at the pitchfork changes sign.
R_THRESHOLD = (3.0 + math.sqrt(13.0)) / 2.0

_RESIDUAL_TOL = 1e-10
_ZMAX = 1.0 - EPS_CLAMP
# the fold's sign scan, and the size, relative to P, below which F has
# no reliable sign
_FOLD_SCAN = np.geomspace(1e-4, _ZMAX, 64)
_SLOPE_NOISE = 2e-15
# the scan's terms that do not depend on r
_SCAN_UP, _SCAN_DOWN = 1.0 + _FOLD_SCAN, 1.0 - _FOLD_SCAN
_SCAN_QUAD = 1.0 - _FOLD_SCAN * _FOLD_SCAN
_SCAN_LOG_UP, _SCAN_LOG_DOWN = np.log1p(_FOLD_SCAN), np.log1p(-_FOLD_SCAN)
_SCAN_ATANH = np.arctanh(_FOLD_SCAN)
# |G| below this fraction of its terms' sizes has no reliable sign
_ROOT_NOISE = 16.0 * math.ulp(1.0)
# a Newton step this many ulps of z long or shorter is the last
_STEP_ULPS = 4.0 * math.ulp(1.0)
_PROBE_DEPTH = 1e-3


@dataclass(frozen=True)
class FixedPoint:
    """One stationary state (z_star, theta_star) at coupling eta."""

    z_star: float
    theta_star: float
    eta: float
    stability: str
    eigenvalues: tuple
    kind: str

    def __post_init__(self):
        if self.kind not in ("symmetric", "asymmetric"):
            raise DomainError(f"bad fixed point kind {self.kind!r}")
        if (self.kind == "symmetric") != (self.z_star == 0.0):
            raise DomainError("kind must be symmetric exactly when z_star == 0")


@dataclass(frozen=True)
class Branch:
    """One branch of stationary states across the eta grid: its points'
    eta, z_star, stability and (complex, complex) eigenvalues as tuples
    ordered by |eta|, rebuilt as FixedPoints by points."""

    branch_id: int
    kind: str
    theta_star: float
    eta: tuple
    z_star: tuple
    stability: tuple
    eigenvalues: tuple

    @property
    def points(self) -> tuple:
        """The rows as FixedPoints, built from the columns on each access."""
        return tuple(FixedPoint(z, self.theta_star, eta, *rest,
                                "symmetric" if z == 0.0 else "asymmetric")
                     for eta, z, *rest in zip(self.eta, self.z_star,
                                              self.stability, self.eigenvalues))


@dataclass(frozen=True)
class BifurcationDiagram:
    r: float
    branches: tuple
    eta_star: float
    eta_plus: Optional[float]
    classification: str

    def __post_init__(self):
        subcritical = self.classification == "subcritical"
        if subcritical != (self.eta_plus is not None):
            raise DomainError("eta_plus must be present exactly for "
                              "subcritical diagrams")
        if self.eta_plus is not None:
            if not 0.0 < self.eta_plus < self.eta_star:
                raise DomainError("require 0 < eta_plus < eta_star")


def _cos_theta_star(theta_star: float) -> float:
    if theta_star == 0.0:
        return 1.0
    if theta_star == math.pi:
        return -1.0
    raise DomainError(f"theta_star must be 0 or pi, got {theta_star}")


def stationary_residual(z, theta_star: float, eta, r: float):
    """G(z), the model's dH/dz at theta*; its roots are the stationary
    imbalances at this eta.

    z and eta may be floats or numpy arrays of one shape. Refused as
    dH/dz is: with SingularityError within EPS_CLAMP of |z| = 1, and
    with DomainError for a non-finite eta or a NaN z.
    """
    return dh_dz(z, _cos_theta_star(theta_star), eta, r)


def _xi(z, r):
    """The branch graph xi(z) for 0 < z < 1, on floats."""
    return (2.0 ** (r + 1.0) * z
            / (math.sqrt(1.0 - z * z) * _power_difference(z, r)))


def _power_sum(z, r):
    """(1+z)^(r-1) + (1-z)^(r-1), the bulk sum of H_zz: float or array."""
    return (1.0 + z) ** (r - 1.0) + (1.0 - z) ** (r - 1.0)


def _h_zz(s, cos_theta, eta, r, power_sum):
    """H_zz = -2 cos(theta) / s^3 - eta r 2^-r [(1+z)^(r-1) + (1-z)^(r-1)],
    s = sqrt(1 - z^2), from the bulk sum _power_sum(z, r): float or array."""
    return (-2.0 * cos_theta / (s * s * s)
            - eta * r / 2.0 ** r * power_sum)


def _sheet_kernels(m, r):
    """(f, g) on floats 0 < z < 1 at theta* = 0, eta = -m: f(z) is (G,
    dG/dz = H_zz, noise), G stationary_residual's value and H_zz _h_zz's,
    bit for bit, G the difference of its terms m P / 2^r and 2 z/s, noise
    _ROOT_NOISE times their sum; g(z) is G alone."""
    scale, slope, r1 = m / 2.0 ** r, -m * r / 2.0 ** r, r - 1.0

    def f(z):
        s = math.sqrt(1.0 - z * z)
        bulk = scale * _power_difference(z, r)
        wall = 2.0 * z / s
        return (bulk - wall,
                -2.0 / (s * s * s) - slope * ((1.0 + z) ** r1
                                              + (1.0 - z) ** r1),
                _ROOT_NOISE * (bulk + wall))

    def g(z):
        return (scale * _power_difference(z, r)
                - 2.0 * z / math.sqrt(1.0 - z * z))

    return f, g


def _slope_kernel(r, noise):
    """z -> (F, F', noise) on floats 0 < z < 1, bound once per power.

    F = P - r z (1 - z^2) S_(r-1) has the sign of xi' (xi'/xi = F /
    (z (1 - z^2) P)); the logarithmic derivative itself cancels at
    small z, where F ~ 2 r kappa z^3. F' = 3 r z^2 S_(r-1) - r (r-1) z
    (1 - z^2) D_(r-2), S_k = (1+z)^k + (1-z)^k, D_k = (1+z)^k - (1-z)^k,
    P = D_r; S_(r-1) is computed once per evaluation.
    """
    r1, r2, r3, rr1 = r - 1.0, r - 2.0, 3.0 * r, r * (r - 1.0)

    def f(z):
        up, down, quad = 1.0 + z, 1.0 - z, 1.0 - z * z
        total = up ** r1 + down ** r1
        return (_power_difference(z, r) - r * z * quad * total,
                r3 * z * z * total - rr1 * z * quad * (up ** r2 - down ** r2),
                noise)

    return f


def _rtsafe(f, lo, hi, falling, z):
    """The root in the bracket (lo, hi), 0 <= lo < hi, by safeguarded
    Newton (Numerical Recipes' rtsafe) from z inside it: the one Newton
    loop, on floats, for the fold and every root.

    f(z) gives (value, slope, noise); value > 0 exactly below the root
    where falling is True and exactly above it elsewhere. Each iteration
    evaluates f once and shrinks the bracket by the sign of value. The
    Newton step is kept when it lands strictly inside the bracket and is
    at most half as long as the step before last; otherwise, NaN and a
    zero slope included, the step bisects, so the bracket never shrinks
    slower than by bisection. The root is done at z once |value| <=
    noise, below which its sign is rounding, or once no float lies
    strictly inside the bracket; it is done one Newton step on from z
    once that step is within _STEP_ULPS of z.
    """
    step = before = hi - lo
    while True:
        value, slope, noise = f(z)
        if (value > 0) == falling:
            lo = z
        else:
            hi = z
        mid = 0.5 * (lo + hi)
        if abs(value) <= noise or mid == lo or mid == hi:
            return z
        new = z - value / slope if slope else math.nan
        dz = abs(new - z)
        keep = lo < new < hi and dz + dz <= before
        if dz <= _STEP_ULPS * z:
            return new if keep else z
        if not keep:
            new = mid
        before, step = step, abs(new - z)
        z = new


def _fold(r: float) -> Optional[tuple]:
    """(z_f, eta_plus = xi(z_f)) at the interior minimum of xi, checked,
    or None if xi is monotone. Every finder takes its fold from here.

    Scans the sign of F on a coarse geometric grid over [1e-4, 1 - EPS_CLAMP]
    (_fold_signs). F is the difference of two terms equal to P at leading
    order, each with a few ulps of rounding, so a value within 2e-15 P of
    zero has no reliable sign and is skipped; this only happens within
    about 1e-7 of r_threshold. F < 0 then F > 0 is a fold, solved by
    _rtsafe on F with its closed-form slope F' inside the bracketing grid
    cell; F > 0 throughout is a monotone graph, or with kappa < 0 a fold
    too shallow for the scan, which raises ThresholdProximityError. Any
    other pattern raises NoConvergenceError, so xi is never assumed
    unimodal without being checked.

    The fold is checked as a double root: at (z_f, -eta_plus), |G| and
    |dG/dz| (H_zz) must be at most 1e-10 times their terms' sizes 2 z/s
    and 2/s^3, s = sqrt(1 - z^2), which grow as z_f -> 1 at large r;
    and 0 < eta_plus < eta_star. Else NoConvergenceError.
    """
    eta_star = find_eta_star(r)
    signs = _fold_signs(r)
    zs, signs = _FOLD_SCAN[signs != 0], signs[signs != 0]
    flips = np.flatnonzero(signs[1:] != signs[:-1])
    if len(flips) > 1 or len(signs) == 0 or signs[-1] < 0:
        raise NoConvergenceError(
            f"slope of the branch graph changes sign {len(flips)} times "
            f"at r={r}; expected a monotone graph or one fold")
    if len(flips) == 0:
        if pitchfork_cubic_coefficient(r) < 0.0:
            raise ThresholdProximityError(
                f"r={r}: subcritical, but the fold is too shallow to resolve")
        return None
    lo, hi = zs[flips[0]:flips[0] + 2].tolist()
    # P rises with z, so its value at lo bounds F's noise in the cell
    slope = _slope_kernel(r, _SLOPE_NOISE * _power_difference(lo, r))
    z = _rtsafe(slope, lo, hi, False, 0.5 * (lo + hi))
    m = _xi(z, r)
    s = math.sqrt(1.0 - z * z)
    g, dg, _ = _sheet_kernels(m, r)[0](z)
    if not (abs(g) <= _RESIDUAL_TOL * 2.0 * z / s
            and abs(dg) <= _RESIDUAL_TOL * 2.0 / (s * s * s)):
        raise NoConvergenceError(
            f"fold residuals {g:.2e}, {dg:.2e} at r={r} above "
            f"{_RESIDUAL_TOL} of their terms")
    if not 0.0 < m < eta_star:
        raise NoConvergenceError(f"fold magnitude {m} outside (0, {eta_star})")
    return z, m


def _fold_signs(r):
    """The sign of F at each _FOLD_SCAN point, or 0 where |F| is within
    _SLOPE_NOISE P of zero: _slope_kernel's F and P over the scan, with
    P computed once from the scan's precomputed terms."""
    x = 2.0 * r * _SCAN_ATANH
    p = np.exp(r * _SCAN_LOG_DOWN) * np.expm1(np.minimum(x, 709.0))
    big = x > 709.0
    p[big] = np.exp(r * _SCAN_LOG_UP[big])
    f = p - r * _FOLD_SCAN * _SCAN_QUAD * (_SCAN_UP ** (r - 1.0)
                                           + _SCAN_DOWN ** (r - 1.0))
    return np.where(abs(f) > _SLOPE_NOISE * p, np.sign(f), 0.0)


def _graph_roots(mags: list, r: float, fold: Optional[tuple]) -> list:
    """Positive roots of |eta| = xi(z) at the coupling magnitudes mags,
    a list of floats.

    fold is _fold(r). (0, 1 - EPS_CLAMP) splits into the monotone pieces
    of xi: one piece without a fold, two split at z_f with one. A piece
    holds one root at m exactly when m lies strictly between xi at its
    two ends, where xi(0+) = eta_star; at m = eta_plus the single root is
    z_f. Each root is solved on its own, from m and r alone, by _rtsafe
    on f of _sheet_kernels(m, r): G at theta* = 0, eta = -m, with
    dG/dz = H_zz; it is done once |G| is within _ROOT_NOISE of its
    terms 2 z/s + m P/2^r. Newton starts where xi's shape puts the
    root: on the piece that ends at 1 - EPS_CLAMP, where 2/s = m, as
    xi -> 2/s when P -> 2^r (exactly so at r = 1 and 2); below a fold,
    on the parabola that falls from eta_star at z = 0 to eta_plus at
    z_f; where that start lies outside the piece, in the middle of the
    piece. Where G is steep, the float grid around the root is coarser
    than G's rounding, so each root then moves to whichever of itself
    and its float neighbours inside its piece has the smallest |G|,
    compared by the G-only g. Roots below 1e-9 are dropped as numerical
    shadows of the symmetric root.

    Returns one (indices into mags, roots) pair of lists for each piece
    that holds a root, in increasing z of the pieces.
    """
    eta_star = find_eta_star(r)
    # (z, xi(z)) at the ends of the pieces
    ends = [(0.0, eta_star), *([fold] if fold else []),
            (_ZMAX, _xi(_ZMAX, r))]
    pieces = []
    for p, ((a, xa), (b, xb)) in enumerate(zip(ends, ends[1:])):
        low, high = min(xa, xb), max(xa, xb)
        index, roots = [], []
        for i, m in enumerate(mags):
            if low < m < high:
                if b == _ZMAX:
                    z = math.sqrt(1.0 - 4.0 / max(m * m, 4.0))
                else:
                    z = b * math.sqrt((eta_star - m) / (eta_star - xb))
                if not a < z < b:
                    z = 0.5 * (a + b)
                f, g = _sheet_kernels(m, r)
                # G > 0 exactly where xi(z) < m
                z = _rtsafe(f, a, b, xb > xa, z)
                near = (z, math.nextafter(z, 0.0), math.nextafter(z, 1.0))
                z = min((x for x in near if a < x < b),
                        key=lambda x: abs(g(x)))
            elif p == 1 and m == xa:
                z = a
            else:
                continue
            if z >= 1e-9:
                index.append(i)
                roots.append(z)
        if index:
            pieces.append((index, roots))
    return pieces


def jacobian_at(state: PhaseState, eta: float, params: ModelParams) -> tuple:
    """Jacobian of the damped flow (-H_theta + nu H_z, H_z) in closed form.

    With s = sqrt(1 - z^2), H_zz = -2 cos(theta) / s^3 - eta r 2^-r
    [(1+z)^(r-1) + (1-z)^(r-1)] and H_ztheta = 2 z sin(theta) / s, it is
    ((nu H_zz - H_ztheta, 2 s cos(theta) + nu H_ztheta), (H_zz, H_ztheta))
    at any theta and nu. Refused for a non-finite eta, within EPS_CLAMP
    of |z| = 1, like the residual, and where an entry overflows, as
    eta r 2^-r (1-z)^(r-1) does for r < 1 at couplings near the float
    range.
    """
    check_eta(eta)
    z, theta = state.z, state.theta
    if abs(z) >= _ZMAX:
        raise SingularityError(f"Jacobian singular near |z|=1; got z={z}")
    jac = _jacobian(z, theta, eta, params.r, params.nu)
    (a, b), (c, d) = jac
    # the terms of a finite sum are finite; only a non-finite sum needs
    # a look at each entry
    if not math.isfinite(a + b + c + d) \
            and not all(map(math.isfinite, (a, b, c, d))):
        raise DomainError(
            f"Jacobian overflows at z={z}, eta={eta}, r={params.r}: {jac}")
    return jac


def _jacobian(z, theta, eta, r, nu):
    """jacobian_at on plain floats, unchecked: the stepper's form."""
    s = math.sqrt(1.0 - z * z)
    c = math.cos(theta)
    h_zz = _h_zz(s, c, eta, r, _power_sum(z, r))
    h_zt = 2.0 * z * math.sin(theta) / s
    return ((nu * h_zz - h_zt, 2.0 * s * c + nu * h_zt), (h_zz, h_zt))


def eigenvalues_2x2(jac) -> tuple:
    """Both eigenvalues of a real 2x2 matrix, always as complex numbers.

    With tr the trace and disc the discriminant tr^2 - 4 det, they are
    complex(tr/2, +-sqrt(-disc)/2) for disc < 0 and
    complex((tr +- sqrt(disc))/2, 0.0) otherwise, in real arithmetic, so
    a center's real parts are exactly tr/2. Where the discriminant
    overflows although every entry is finite, the eigenvalues are those
    of the matrix scaled by 2^-e, its largest entry's binary exponent,
    scaled back by 2^e; scaling by a power of two is exact. A matrix
    with a non-finite entry has the eigenvalues complex(nan, nan).
    """
    (a, b), (c, d) = jac
    tr = a + d
    det = a * d - b * c
    disc = tr * tr - 4.0 * det
    if not math.isfinite(disc):
        # a non-finite entry makes the discriminant non-finite
        if not all(map(math.isfinite, (a, b, c, d))):
            return (complex(math.nan, math.nan),) * 2
        e = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
        down, up, half = 2.0 ** -e, 2.0 ** (e - e // 2), 2.0 ** (e // 2)
        return tuple(lam * up * half for lam in eigenvalues_2x2(
            ((a * down, b * down), (c * down, d * down))))
    root = math.sqrt(abs(disc))
    if disc < 0.0:
        return complex(tr / 2.0, root / 2.0), complex(tr / 2.0, -root / 2.0)
    return complex((tr + root) / 2.0, 0.0), complex((tr - root) / 2.0, 0.0)


def classify_stability(jac) -> str:
    """stable / unstable / marginal from the eigenvalues of a 2x2 Jacobian.

    Strictly negative real parts are stable; a pure center (both
    eigenvalues on the imaginary axis, nonzero) also counts as stable,
    matching the nonlinear stability of centers of the undamped flow.
    """
    return _classify(*eigenvalues_2x2(jac))


def _classify(lam1, lam2) -> str:
    """classify_stability from the two eigenvalues."""
    res = (lam1.real, lam2.real)
    ims = (lam1.imag, lam2.imag)
    if all(re < -EPS_EIG for re in res):
        return "stable"
    if any(re > EPS_EIG for re in res):
        return "unstable"
    if all(abs(re) <= EPS_EIG for re in res) and all(abs(im) > EPS_EIG for im in ims):
        return "stable"
    return "marginal"


def _make_fixed_point(z_root: float, theta_star: float, eta: float,
                      r: float) -> FixedPoint:
    eigenvalues = eigenvalues_2x2(jacobian_at(
        PhaseState(z=z_root, theta=theta_star), eta, ModelParams(r=r)))
    return FixedPoint(
        z_star=z_root, theta_star=theta_star, eta=eta,
        stability=_classify(*eigenvalues), eigenvalues=eigenvalues,
        kind="symmetric" if z_root == 0.0 else "asymmetric")


def _fixed_points(z, etas, r: float) -> tuple:
    """_make_fixed_point's (stability, eigenvalues) on the sheet
    theta* = 0 at every row of the float64 columns z and etas, bit for
    bit, as two tuples.

    There, at nu = 0, the Jacobian is ((0, 2 s), (H_zz, 0)): its trace is
    +0.0 and its discriminant 4 q, q = 2 s H_zz, so the eigenvalues are
    +-sqrt(q), a saddle ("unstable") for q > 0 and a center ("stable")
    for q < 0, and "marginal" where sqrt(|q|) <= EPS_EIG. eigenvalues_2x2
    reaches the same bits with the same IEEE operations. The powers are
    Python's float ** per element, as in hamiltonian_column. Rows where
    4 q is not finite, or within EPS_CLAMP of |z| = 1, go through
    _make_fixed_point, which rescales or refuses them.
    """
    inside = abs(z) < _ZMAX
    with np.errstate(all="ignore"):
        s = np.sqrt(1.0 - z * z)
        # no power of a row outside (0 ** (r - 1) raises for r < 1);
        # _make_fixed_point refuses it below
        power_sum = [_power_sum(x, r)
                     for x in np.where(inside, z, 0.0).tolist()]
        q = 2.0 * s * _h_zz(s, 1.0, etas, r, np.array(power_sum))
        size = np.sqrt(abs(q))
        center = q < 0.0
        re1, im1 = np.where(center, 0.0, size), np.where(center, size, 0.0)
        # with tr = +0.0 the second eigenvalue is 0.0 minus the first,
        # signed zeros included
        re2, im2 = 0.0 - re1, 0.0 - im1
        scalar = ~(inside & np.isfinite(4.0 * q))
    stability = np.where(size <= EPS_EIG, "marginal",
                         np.where(center, "stable", "unstable")).tolist()
    eigenvalues = list(zip(map(complex, re1.tolist(), im1.tolist()),
                           map(complex, re2.tolist(), im2.tolist())))
    for i in np.flatnonzero(scalar).tolist():
        p = _make_fixed_point(float(z[i]), 0.0, float(etas[i]), r)
        stability[i], eigenvalues[i] = p.stability, p.eigenvalues
    return tuple(stability), tuple(eigenvalues)


def find_fixed_points(eta: float, r: float) -> list:
    """Every stationary state at this eta, both theta* sheets.

    The symmetric point z = 0 always appears for theta* in {0, pi}.
    Asymmetric roots z > 0 exist only on the sheet cos(theta*) =
    -sign(eta), one per monotone piece of the branch graph xi that
    |eta| crosses; each is mirrored exactly, and the closed-form
    Jacobian gives the mirror a bit-identical spectrum. Stability refers
    to the undamped flow (nu = 0).
    """
    check_power(r)
    check_eta(eta)
    roots = [z for _, (z,) in _graph_roots([abs(float(eta))], r, _fold(r))]
    sheet = 0.0 if eta < 0 else math.pi
    points = []
    for theta_star in (0.0, math.pi):
        points.append(_make_fixed_point(0.0, theta_star, eta, r))
        if theta_star != sheet:
            continue
        for z_root in roots:
            p = _make_fixed_point(z_root, theta_star, eta, r)
            points += [p, FixedPoint(-z_root, theta_star, eta, p.stability,
                                     p.eigenvalues, "asymmetric")]
    return points


def find_eta_star(r: float) -> float:
    """Pitchfork coupling magnitude eta_star = 2^r / r."""
    check_power(r)
    return 2.0 ** r / r


def pitchfork_cubic_coefficient(r: float) -> float:
    """kappa = 1 - (r - 1)(r - 2) / 3.

    Coefficient of z^3 in the expansion of G at z = 0 with the coupling
    held at the pitchfork (eta = -eta_star, theta* = 0), up to a positive
    prefactor. Negative kappa bends the emerging branch back under
    eta_star, i.e. the pitchfork is subcritical. The third derivative
    d3G/dz3 at the pitchfork equals -6 kappa, which is how tests
    re-derive the expression by finite differences.
    """
    check_power(r)
    return 1.0 - (r - 1.0) * (r - 2.0) / 3.0


def asymmetric_states_below_star(r: float) -> bool:
    """Probe: do asymmetric stationary states exist just below eta_star?

    Read off the branch graph at |eta| = eta_star (1 - _PROBE_DEPTH),
    _PROBE_DEPTH = 1e-3: they exist exactly when xi has a fold and
    eta_plus lies below that magnitude. True implies a subcritical
    pitchfork. Caveat: just above r_threshold the fold sits within
    O(kappa^2) of eta_star, so the probe reports False although the
    bifurcation is subcritical, or raises ThresholdProximityError as
    find_eta_plus does; use the sign of pitchfork_cubic_coefficient
    near the threshold.
    """
    m = find_eta_star(r) * (1.0 - _PROBE_DEPTH)
    fold = _fold(r)
    return fold is not None and fold[1] < m


def classify_pitchfork(r: float) -> str:
    """supercritical or subcritical, by the sign of the cubic coefficient.

    Refuses to classify within 1e-6 of r_threshold, where the cubic
    term degenerates. The behavioral probe (asymmetric_states_below_star)
    agrees away from the threshold; see its caveat.
    """
    check_power(r)
    if abs(r - R_THRESHOLD) < 1e-6:
        raise ThresholdProximityError(
            f"r={r} within 1e-6 of the critical power {R_THRESHOLD}")
    return "subcritical" if pitchfork_cubic_coefficient(r) < 0.0 else "supercritical"


def find_r_threshold(r_min: float = 3.0, r_max: float = 4.0,
                     tol: float = 1e-4) -> float:
    """Bisection on classify_pitchfork for the critical power.

    A midpoint inside the classifier's refusal band is already known to
    sit within 1e-6 of the threshold, which is as sharp as anything
    observable through classify_pitchfork, so it is returned directly;
    tolerances below 1e-6 therefore cannot be honored.
    """
    if not (0 < r_min < r_max):
        raise DomainError("require 0 < r_min < r_max")
    if not 0 < tol < math.inf:
        raise DomainError("tol must be finite and > 0")
    lo_class = classify_pitchfork(r_min)
    hi_class = classify_pitchfork(r_max)
    if lo_class == hi_class:
        raise DomainError(
            f"classification does not change on [{r_min}, {r_max}]")
    lo, hi = r_min, r_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        try:
            verdict = classify_pitchfork(mid)
        except ThresholdProximityError:
            return mid
        if verdict == lo_class:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_eta_plus(r: float) -> Optional[float]:
    """Saddle-node coupling magnitude, or None when xi has no fold.

    eta_plus = xi(z_f) at the interior minimum of the branch graph xi,
    as _fold finds and checks it; a fold failing the check raises
    NoConvergenceError; a subcritical fold too shallow to resolve raises
    ThresholdProximityError.
    """
    fold = _fold(r)
    return None if fold is None else fold[1]


def trace_branches(r: float, eta_range: tuple, steps: int) -> BifurcationDiagram:
    """Bifurcation diagram over a grid of coupling magnitudes.

    eta_range is (|eta|_min, |eta|_max); the attractive coupling
    eta = -|eta| is used throughout, and each point stores that signed
    value. Only the theta* = 0 sheet carries asymmetric states at
    attractive coupling, so every branch has theta_star = 0.

    A branch is the symmetric line z = 0, or one sign of one monotone
    piece of the branch graph xi, evaluated at the grid magnitudes
    where that piece holds a root. A fold therefore appears as four
    branches (two pieces, two signs) born at the same magnitude.
    Branch ids follow (first grid index, z at birth).
    """
    lo, hi = eta_range
    if not (0.0 <= lo < hi and _finite(hi)):
        raise DomainError(
            f"require finite 0 <= min < max in eta_range, got {eta_range}")
    check_count("steps", steps, 2)
    classification = classify_pitchfork(r)

    mags = np.linspace(float(lo), float(hi), steps)
    etas = -mags

    def columns(z, eta):
        return (tuple(eta.tolist()), tuple(z.tolist()),
                *_fixed_points(z, eta, r))

    born = [(0, 0.0, "symmetric", columns(np.zeros(steps), etas))]
    fold = _fold(r)
    for index, roots in _graph_roots(mags.tolist(), r, fold):
        z = np.array(roots)
        upper = columns(z, etas[index])
        # the mirror's spectrum, bit for bit: s and H_zz are even in z
        lower = (upper[0], tuple((-z).tolist()), *upper[2:])
        first, z0 = index[0], roots[0]
        born += [(first, -z0, "asymmetric", lower),
                 (first, z0, "asymmetric", upper)]
    born.sort(key=lambda b: b[:2])
    built = tuple(Branch(i, kind, 0.0, *cols)
                  for i, (_, _, kind, cols) in enumerate(born))
    return BifurcationDiagram(
        r=r, branches=built,
        eta_star=find_eta_star(r),
        eta_plus=None if fold is None else fold[1],
        classification=classification)
