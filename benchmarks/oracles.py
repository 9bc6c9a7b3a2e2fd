"""Output checks for the benchmark, written without the package.

Every formula here is re-derived from the model (plain powers, dense
scans, bisection) so that a defect in the package cannot hide in a
shared helper. Each check returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

TRAJECTORY_HEADER = "tau,eta,z,theta,H,E"
BRANCH_HEADER = "branch_id,kind,theta_star,eta,z_star,stability"

H_DRIFT_LIMIT = 1e-8
H_COLUMN_TOL = 1e-9
ETA_PLUS_TOL = 1e-3
ROOT_TOL = 1e-6
RESIDUAL_TOL = 1e-8
WINDOW_OVERLAP = 0.8


def hamiltonian(z, theta, eta, r):
    """H(z, theta) with plain powers; works on scalars and arrays."""
    bulk = (1.0 + z) ** (r + 1.0) + (1.0 - z) ** (r + 1.0)
    return (2.0 * np.sqrt(1.0 - z * z) * np.cos(theta)
            - eta * bulk / (2.0 ** r * (r + 1.0)))


def residual(z, cos_theta, eta, r):
    """Stationary residual G(z) on one phase sheet, plain powers."""
    return (-2.0 * z * cos_theta / np.sqrt(1.0 - z * z)
            - eta / 2.0 ** r * ((1.0 + z) ** r - (1.0 - z) ** r))


def fold_coupling(r, points=2_000_000, chunk=20_000):
    """Brute-force fold |eta|: the minimum over a dense z grid of the
    coupling that makes z stationary on the theta* = 0 sheet.

    Returns None when the minimum does not dip below eta_star, i.e. the
    branch leaves the pitchfork upward and there is no fold. The grid is
    scanned in chunks so the check stays small next to the package.
    """
    step = (1.0 - 1e-9 - 1e-6) / (points - 1)
    low = math.inf
    for first in range(0, points, chunk):
        z = 1e-6 + step * np.arange(first, min(first + chunk, points))
        m = 2.0 ** (r + 1) * z / (np.sqrt(1.0 - z * z)
                                  * ((1.0 + z) ** r - (1.0 - z) ** r))
        low = min(low, float(m.min()))
    return low if low < (2.0 ** r / r) * (1.0 - 1e-6) else None


def positive_roots(eta, r, cos_theta, grid=100_001, chunk=20_000):
    """Roots of G with z > 0: sign changes on a dense grid, scanned in
    chunks, then 80 bisection halvings of every bracket at once."""
    step = (1.0 - 2e-9) / (grid - 1)
    brackets = []
    for first in range(0, grid - 1, chunk):
        z = 1e-9 + step * np.arange(first, min(first + chunk, grid - 1) + 1)
        sign = np.sign(residual(z, cos_theta, eta, r))
        i = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
        brackets.append((z[i], z[i + 1]))
    lo = np.concatenate([b[0] for b in brackets])
    hi = np.concatenate([b[1] for b in brackets])
    glo = residual(lo, cos_theta, eta, r)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        gm = residual(mid, cos_theta, eta, r)
        left = np.sign(gm) == np.sign(glo)
        lo = np.where(left, mid, lo)
        glo = np.where(left, gm, glo)
        hi = np.where(left, hi, mid)
    return sorted((0.5 * (lo + hi)).tolist())


def parse_csv(text, header):
    """Rows of a comma-separated document after checking its header."""
    lines = text.split("\n")
    if lines[0] != header:
        raise ValueError(f"header {lines[0]!r} is not {header!r}")
    if lines[-1] != "":
        raise ValueError("document does not end with a newline")
    return [ln.split(",") for ln in lines[1:-1]]


def load_table(path, header):
    """Numeric columns of a comma-separated file with this header, read
    in a stream so the check stays small next to the package."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise ValueError(f"header {first!r} is not {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2).T


def svg_problems(source, label):
    """source: SVG text, or a Path to an SVG file."""
    try:
        if isinstance(source, Path):
            root = ET.parse(source).getroot()
        else:
            root = ET.fromstring(source)
    except ET.ParseError as exc:
        return [f"{label}: not well-formed XML ({exc})"]
    if not root.tag.endswith("svg"):
        return [f"{label}: root element is {root.tag!r}, not svg"]
    return []


def grid_problems(tau, T, stride):
    """Samples run from 0 to T in increasing order and land on, and
    cover, every point of the 1/stride grid."""
    k = np.rint(tau * stride)
    if tau[0] != 0.0 or abs(tau[-1] - T) > 1e-9 * T:
        return ["samples do not span [0, T]"]
    if np.any(np.diff(tau) <= 0.0) or np.max(np.abs(tau - k / stride)) > 1e-6:
        return ["sample times are not increasing on the sample grid"]
    if not np.array_equal(np.unique(k), np.arange(int(round(T * stride)) + 1)):
        return ["sample times miss points of the sample grid"]
    return []


def check_conserved_trajectory(tau, z, theta, eta, H, *, r, eta0, z0,
                               theta0, T):
    """One undamped constant-coupling run: grid, start, and H drift."""
    problems = grid_problems(tau, T, 1)
    if z[0] != z0 or theta[0] != theta0:
        problems.append("first sample is not the initial state")
    if np.any(eta != eta0):
        problems.append("eta column is not the constant coupling")
    own = hamiltonian(z, theta, eta0, r)
    if np.max(np.abs(own - H)) > H_COLUMN_TOL:
        problems.append("H column disagrees with the Hamiltonian")
    drift = float(np.max(np.abs(own - own[0])))
    if not drift <= H_DRIFT_LIMIT:
        problems.append(f"H drift {drift:.3e} above {H_DRIFT_LIMIT:g}")
    return problems


def triangular_eta(tau, eta_start, eta_peak, T):
    ramp = 1.0 - np.abs(2.0 * tau / T - 1.0)
    return eta_start + (eta_peak - eta_start) * ramp


def check_trajectory_csv(path, *, r, eta_start, eta_peak, T, stride, z0,
                         theta0):
    """A simulate CSV: header, sample grid, schedule, state, H and E."""
    try:
        cols = load_table(path, TRAJECTORY_HEADER)
    except ValueError as exc:
        return [f"trajectory CSV: {exc}"]
    if cols.shape[0] != 6:
        return ["trajectory CSV: expected 6 columns"]
    tau, eta, z, theta, H, E = cols
    problems = [f"trajectory CSV: {p}" for p in grid_problems(tau, T, stride)]
    ramp = triangular_eta(tau, eta_start, eta_peak, T)
    if np.max(np.abs(eta - ramp)) > 1e-9:
        problems.append("trajectory CSV: eta does not follow the ramp")
    if abs(z[0] - z0) > 1e-15 or abs(theta[0] - theta0) > 1e-15:
        problems.append("trajectory CSV: first row is not the initial state")
    if not (np.all(np.abs(z) <= 1.0) and np.all(np.abs(theta) <= math.pi)):
        problems.append("trajectory CSV: z or theta out of range")
    if np.max(np.abs(hamiltonian(z, theta, eta, r) - H)) > H_COLUMN_TOL:
        problems.append(
            "trajectory CSV: H column disagrees with the Hamiltonian")
    if np.max(np.abs(E + 0.5 * H)) > 1e-12:
        problems.append("trajectory CSV: E is not -H/2")
    return problems


def check_sweep_report(text, *, r, eta_start, eta_peak, grid, expect_loop):
    """A sweep --hysteresis JSON report and its verdict."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"sweep JSON: {exc}"]
    problems = []
    eta_star = 2.0 ** r / r
    if doc["r"] != r or doc["reference"]["eta_star"] != eta_star:
        problems.append("sweep JSON: r or eta_star wrong")
    lo, hi = sorted((abs(eta_start), abs(eta_peak)))
    edges = np.linspace(lo, hi, grid + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    for key in ("forward_trace", "backward_trace"):
        trace = np.array(doc[key], dtype=float)
        if (trace.shape != (grid, 2)
                or np.max(np.abs(trace[:, 0] - centers)) > 1e-12):
            problems.append(f"sweep JSON: {key} is not on the |eta| grid")
        elif not np.all((trace[:, 1] >= 0.0) & (trace[:, 1] <= 1.0)):
            problems.append(f"sweep JSON: {key} mean |z| out of [0, 1]")
    if doc["detected"] != expect_loop:
        problems.append(f"sweep JSON: detected={doc['detected']}, "
                        f"expected {expect_loop}")
    if expect_loop:
        fold = fold_coupling(r)
        window = doc["window"]
        if fold is None or window is None:
            problems.append("sweep JSON: no window or no fold")
        else:
            overlap = max(0.0, min(window[1], eta_star) - max(window[0], fold))
            if overlap < WINDOW_OVERLAP * (eta_star - fold):
                problems.append(
                    f"sweep JSON: window {window} covers less than "
                    f"{WINDOW_OVERLAP:g} of [{fold:.4g}, {eta_star:.4g}]")
    return problems


def check_diagram(csv_text, json_text, svg_text, *, r, eta_star, eta_plus,
                  lo, hi, steps):
    """One branch diagram: critical couplings and every stored point."""
    problems = []
    if eta_star != 2.0 ** r / r:
        problems.append(f"eta_star {eta_star!r} is not 2^r/r")
    fold = fold_coupling(r)
    if (fold is None) != (eta_plus is None):
        problems.append(f"eta_plus {eta_plus!r} but brute-force fold {fold!r}")
    elif fold is not None and abs(eta_plus - fold) > ETA_PLUS_TOL:
        problems.append(f"eta_plus {eta_plus!r} off the fold {fold!r}")
    try:
        rows = parse_csv(csv_text, BRANCH_HEADER)
        doc = json.loads(json_text)
    except ValueError as exc:
        return problems + [f"diagram output: {exc}"]
    eta = np.array([float(row[3]) for row in rows])
    z = np.array([float(row[4]) for row in rows])
    cos_theta = np.array([math.cos(float(row[2])) for row in rows])
    if (len(rows) == 0
            or np.max(np.abs(residual(z, cos_theta, eta, r))) > RESIDUAL_TOL):
        problems.append("diagram CSV: a point is not stationary")
    if not np.allclose(np.unique(-eta), np.linspace(lo, hi, steps),
                       rtol=0.0, atol=1e-12):
        problems.append("diagram CSV: couplings are not the requested grid")
    if (doc["eta_star"], doc["eta_plus"]) != (eta_star, eta_plus):
        problems.append("diagram JSON: critical couplings differ from CSV run")
    if sum(len(b["points"]) for b in doc["branches"]) != len(rows):
        problems.append("diagram JSON and CSV hold different point counts")
    return problems + svg_problems(svg_text, "diagram SVG")


def check_fixed_points(eta, r, points):
    """find_fixed_points against the dense-scan root oracle.

    points: (z_star, theta_star) pairs as returned by the package.
    """
    problems = []
    for theta_star in (0.0, math.pi):
        sheet = [z for z, th in points if th == theta_star]
        if sheet.count(0.0) != 1:
            problems.append(f"eta={eta!r} r={r!r}: symmetric root count")
        pos = sorted(z for z in sheet if z > 0.0)
        neg = sorted(-z for z in sheet if z < 0.0)
        expected = positive_roots(eta, r, math.cos(theta_star))
        if pos != neg or len(pos) != len(expected) or any(
                abs(a - b) > ROOT_TOL for a, b in zip(pos, expected)):
            problems.append(f"eta={eta!r} r={r!r} theta*={theta_star:g}: "
                            f"roots {pos} vs oracle {expected}")
    return problems
