"""CSV and JSON writers for trajectories, diagrams, and sweep reports.

Floats are written with %.15g, so serialize(parse(text)) == text; a
value read back equals the written double to 15 significant digits,
not bitwise. Angles are wrapped into (-pi, pi] at serialization time
only; in-memory states keep whatever winding the integrator produced.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DomainError
from .model import EtaSchedule, ModelParams, Trajectory, wrap_angle

TRAJECTORY_HEADER = "tau,eta,z,theta,H,E"
BRANCH_HEADER = "branch_id,kind,theta_star,eta,z_star,stability"

# rows formatted or parsed per block: large enough to amortize the
# per-block calls, small enough that the transient per-field strings
# stay a small part of peak memory
_BLOCK = 4096
_ROW = ",".join(["%.15g"] * 6) + "\n"
_BRANCH_ROW = "%d,%s,%.15g,%.15g,%.15g,%s\n"


def trajectory_to_csv(traj: Trajectory) -> str:
    theta = np.array([wrap_angle(x) for x in traj.theta.tolist()])
    cols = (traj.tau, traj.eta, traj.z, theta, traj.H, traj.E)
    parts = [TRAJECTORY_HEADER + "\n"]
    for i in range(0, len(theta), _BLOCK):
        rows = np.column_stack([c[i:i + _BLOCK] for c in cols])
        parts.append(_ROW * len(rows) % tuple(rows.ravel().tolist()))
    return "".join(parts)


def trajectory_from_csv(text: str, params: ModelParams,
                        schedule: EtaSchedule) -> Trajectory:
    """Rebuild a Trajectory from its CSV form.

    params and schedule are not stored in the CSV; the caller supplies
    the ones the run used.
    """
    lines = text.strip().split("\n")
    if lines[0] != TRAJECTORY_HEADER:
        raise DomainError(f"expected header {TRAJECTORY_HEADER!r}")
    # file column order: tau, eta, z, theta, H, E
    values = np.empty((len(lines) - 1, 6))
    for i in range(1, len(lines), _BLOCK):
        block = lines[i:i + _BLOCK]
        for ln in block:
            if ln.count(",") != 5:
                raise DomainError(
                    f"expected 6 columns, got {ln.count(',') + 1}: {ln!r}")
        values[i - 1:i - 1 + len(block)] = np.reshape(
            list(map(float, ",".join(block).split(","))), (-1, 6))
    tau, eta, z, theta, H, E = values.T
    return Trajectory(tau, z, theta, eta, H, E, params, schedule)


def diagram_to_csv(diagram) -> str:
    values = tuple(v for b in diagram.branches for p in b.points
                   for v in (b.branch_id, b.kind, b.theta_star, p.eta,
                             p.z_star, p.stability))
    return BRANCH_HEADER + "\n" + _BRANCH_ROW * (len(values) // 6) % values


def _json(doc: dict, effective: dict | None) -> str:
    """doc with the effective settings as its last key, indented."""
    doc["effective_config"] = dict(effective or {})
    return json.dumps(doc, indent=2) + "\n"


def diagram_to_json(diagram, effective: dict | None = None) -> str:
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
    return _json({
        "r": diagram.r,
        "eta_star": diagram.eta_star,
        "eta_plus": diagram.eta_plus,
        "classification": diagram.classification,
        "branches": branches,
    }, effective)


def report_to_json(report, effective: dict | None = None) -> str:
    return _json({
        "r": report.r,
        "nu": report.nu,
        "detected": report.detected,
        "loop_area": report.loop_area,
        "bistable_area": report.bistable_area,
        "window": list(report.window) if report.window else None,
        "reference": report.reference,
        "forward_trace": [list(p) for p in report.forward_trace],
        "backward_trace": [list(p) for p in report.backward_trace],
    }, effective)


def threshold_to_json(r_threshold: float,
                      effective: dict | None = None) -> str:
    return _json({"r_threshold": r_threshold}, effective)
