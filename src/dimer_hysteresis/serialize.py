"""CSV and JSON writers for trajectories, diagrams, and sweep reports.

CSV floats are written with %.15g, so serialize(parse(text)) == text; a
value read back equals the written double to 15 significant digits,
not bitwise. Angles are wrapped into (-pi, pi] at serialization time
only; in-memory states keep whatever winding the integrator produced.

JSON is json.dumps(doc, indent=2)'s layout, floats in full repr. The
diagram writer lays that out itself: with indent, json runs its
pure-Python encoder, so diagram_to_json fills each branch's points into
one %-template instead, byte for byte the same text.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import islice

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
# json.dumps(doc, indent=2)'s layout of a diagram and of one branch
_DIAGRAM_JSON = ('{\n  "r": %s,\n  "eta_star": %s,\n  "eta_plus": %s,\n'
                 '  "classification": %s,\n  "branches": %s,\n'
                 '  "effective_config": %s\n}\n')
_BRANCH_JSON = ('    {\n      "branch_id": %s,\n      "kind": %s,\n'
                '      "theta_star": %s,\n      "points": %s\n    }')
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


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


def _json_floats(values: list) -> list:
    """Each float as json writes it: float.__repr__, or NaN, Infinity
    and -Infinity."""
    strings = list(map(float.__repr__, values))
    if math.isfinite(sum(values)):
        return strings
    return [_NON_FINITE.get(s, s) for s in strings]


def _list(items: list, indent: str) -> str:
    """A list of already laid-out items, one level below indent."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


@functools.cache
def _point_template(n: int) -> str:
    """One point with n eigenvalues, laid out at the depth of a branch's
    points; %s slots for eta, z_star, stability and each eigenvalue's
    real and imaginary part."""
    pair = "            [\n              %s,\n              %s\n            ]"
    pairs = [pair] * n
    return ("        {\n          \"eta\": %s,\n          \"z_star\": %s,\n"
            "          \"stability\": %s,\n          \"eigenvalues\": "
            + _list(pairs, "          ") + "\n        }")


def _points_json(points) -> str:
    """A branch's points as json lays them out, filled into one
    %-template."""
    if not points:
        return "[]"
    template = ",\n".join(_point_template(len(p.eigenvalues)) for p in points)
    floats = iter(_json_floats(
        [v for p in points
         for v in (p.eta, p.z_star,
                   *(c for ev in p.eigenvalues for c in (ev.real, ev.imag)))]))
    stability = {s: json.dumps(s) for s in {p.stability for p in points}}
    values = []
    for p in points:
        values += (next(floats), next(floats), stability[p.stability])
        values += islice(floats, 2 * len(p.eigenvalues))
    return "[\n" + template % tuple(values) + "\n      ]"


def diagram_to_json(diagram, effective: dict | None = None) -> str:
    """Byte for byte what json.dumps(doc, indent=2) writes for the
    diagram's document, with the points of each branch filled into one
    %-template."""
    branches = [_BRANCH_JSON % (json.dumps(b.branch_id), json.dumps(b.kind),
                                json.dumps(b.theta_star),
                                _points_json(b.points))
                for b in diagram.branches]
    config = json.dumps(dict(effective or {}), indent=2)
    return _DIAGRAM_JSON % (
        json.dumps(diagram.r), json.dumps(diagram.eta_star),
        json.dumps(diagram.eta_plus), json.dumps(diagram.classification),
        _list(branches, "  "), config.replace("\n", "\n  "))


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
