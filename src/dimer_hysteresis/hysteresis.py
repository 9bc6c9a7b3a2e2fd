"""Ramp-up/ramp-down sweep protocol and hysteresis quantification.

One trajectory is integrated over a triangular coupling schedule, its
samples are binned by |eta| separately for the forward (tau < T/2) and
backward (tau > T/2) passes, and the gap between the two passes is
integrated. |z| rather than signed z is averaged: which of the two
mirror branches a run lands on is an accident of the initial seed, and
hysteresis is a statement about symmetry-breaking magnitude.

Detection looks at the gap restricted to |eta| <= eta_star. Only there
can two attractors coexist; the gap above eta_star is the transient
delay of the forward symmetry-breaking jump, which a slower ramp
shrinks but never fully removes, and counting it would misflag
supercritical systems. The full-grid integral is still reported as
loop_area.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bifurcation import find_eta_plus, find_eta_star
from .dynamics import IntegratorConfig, integrate
from .errors import DomainError, FloatFloorError, GridCoverageError
from .model import (EtaSchedule, ModelParams, PhaseState, Trajectory,
                    check_count)

AREA_THRESHOLD = 0.05
Z_GAP_THRESHOLD = 0.1


@dataclass(frozen=True)
class HysteresisReport:
    """Paired sweep traces and the derived hysteresis verdict.

    forward_trace / backward_trace: ordered (abs_eta, z_avg) pairs on a
    shared |eta| grid. loop_area integrates |z_fwd - z_bwd| over the
    whole grid; bistable_area restricts the integral to |eta| <=
    eta_star and is what `detected` thresholds. window is the longest
    contiguous grid span whose gap exceeds Z_GAP_THRESHOLD.
    """

    r: float
    nu: float
    forward_trace: tuple
    backward_trace: tuple
    loop_area: float
    bistable_area: float
    detected: bool
    window: Optional[tuple]
    reference: dict

    def __post_init__(self):
        fgrid = tuple(p[0] for p in self.forward_trace)
        bgrid = tuple(p[0] for p in self.backward_trace)
        if fgrid != bgrid:
            raise DomainError("forward and backward traces must share a grid")
        if self.loop_area < 0 or self.bistable_area < 0:
            raise DomainError("areas must be nonnegative")
        if self.detected and not self.loop_area > AREA_THRESHOLD:
            raise DomainError("detected requires loop_area above threshold")
        if self.window is not None:
            wlo, whi = self.window
            if not wlo < whi:
                raise DomainError("window must be increasing")
            if fgrid and not (fgrid[0] <= wlo and whi <= fgrid[-1]):
                raise DomainError("window must lie inside the grid")


def predict_window(r: float) -> Optional[tuple]:
    """(eta_plus, eta_star) for subcritical powers, else None."""
    eta_plus = find_eta_plus(r)
    if eta_plus is None:
        return None
    return (eta_plus, find_eta_star(r))


def _bin_passes(taus, abs_etas, abs_zs, T, lo, hi, grid_size):
    """Per-bin mean |z| for the forward and backward halves.

    Raises GridCoverageError when a bin catches no samples on either
    side; that means grid_size outruns the sampling density.
    """
    edges = np.linspace(lo, hi, grid_size + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    idx = np.clip(np.digitize(abs_etas, edges) - 1, 0, grid_size - 1)
    # forward samples count into bins [0, grid_size), backward ones into
    # [grid_size, 2 grid_size)
    idx += grid_size * ~(taus < T / 2.0)
    counts = np.bincount(idx, minlength=2 * grid_size).reshape(2, grid_size)
    sums = np.bincount(idx, weights=abs_zs,
                       minlength=2 * grid_size).reshape(2, grid_size)
    empty = np.flatnonzero((counts == 0).any(axis=0))
    if empty.size:
        i = empty[0]
        side = "forward" if counts[0, i] == 0 else "backward"
        raise GridCoverageError(
            f"{side} bin {i} around |eta|={centers[i]:.4g} received no "
            f"samples; lower grid_size or raise sample_stride")
    zf, zb = sums / counts
    return centers, zf, zb


def _longest_gap_window(centers, gap) -> Optional[tuple]:
    """Longest contiguous run of bins with gap above Z_GAP_THRESHOLD.

    The first of equally long runs wins; a single bin is no window.
    """
    above = np.concatenate(([False], gap > Z_GAP_THRESHOLD, [False]))
    # runs start at the rises and end before the falls of `above`
    starts, stops = np.flatnonzero(above[1:] != above[:-1]).reshape(-1, 2).T
    if not len(starts):
        return None
    k = np.argmax(stops - starts)
    if stops[k] - starts[k] < 2:
        return None
    return (float(centers[starts[k]]), float(centers[stops[k] - 1]))


def run_sweep(initial: PhaseState, params: ModelParams, schedule: EtaSchedule,
              config: IntegratorConfig, grid_size: int) -> HysteresisReport:
    """Integrate one full sweep and quantify the forward/backward gap.

    A constant schedule degenerates to a zero-area report. grid_size
    bins cover [min |eta|, max |eta|].
    Equivalent to sweep_report on integrate's trajectory over [0, T].
    """
    check_count("grid_size", grid_size, 16)
    traj = integrate(initial, params, schedule, config, (0.0, schedule.T))
    return sweep_report(traj, grid_size)


def sweep_report(traj: Trajectory, grid_size: int) -> HysteresisReport:
    """Quantify the forward/backward gap of a trajectory over a full sweep.

    traj must cover its schedule's whole span [0, T], as run_sweep's
    integration does, to within EtaSchedule.tau_slack, else DomainError; a
    constant schedule gives a zero-area report. grid_size bins cover
    [min |eta|, max |eta|]. A triangular run whose state reaches exactly
    (z, theta) = (0, 0) after starting elsewhere has hit the float
    floor, where the flow is stuck: FloatFloorError, naming the tau.
    """
    params, schedule = traj.params, traj.schedule
    check_count("grid_size", grid_size, 16)
    taus, T, slack = traj.tau, schedule.T, schedule.tau_slack
    if len(taus) < 2 or abs(taus[0]) > slack or abs(taus[-1] - T) > slack:
        raise DomainError(f"sweep_report needs samples over [0, {T}], got "
                          f"{len(taus)} over {taus[:1]}..{taus[-1:]}")
    reference = {
        "eta_star": find_eta_star(params.r),
        "eta_plus": find_eta_plus(params.r),
    }
    abs_zs = np.abs(traj.z)

    if schedule.kind == "constant":
        # degenerate ramp: both passes traverse identical couplings
        m = abs(schedule.eta_start)
        forward = taus < T / 2.0
        zf = float(np.mean(abs_zs[forward]))
        zb = float(np.mean(abs_zs[~forward]))
        trace_f = tuple((m, zf) for _ in range(grid_size))
        trace_b = tuple((m, zb) for _ in range(grid_size))
        return HysteresisReport(
            r=params.r, nu=params.nu,
            forward_trace=trace_f, backward_trace=trace_b,
            loop_area=0.0, bistable_area=0.0, detected=False,
            window=None, reference=reference)

    lo = min(abs(schedule.eta_start), abs(schedule.eta_peak))
    hi = max(abs(schedule.eta_start), abs(schedule.eta_peak))
    if not hi > lo:
        raise DomainError("triangular schedule must change |eta|")
    floor = (traj.z == 0.0) & (traj.theta == 0.0)
    if floor.any() and not floor[0]:
        tau = float(taus[np.argmax(floor)])
        raise FloatFloorError(
            f"the state underflowed to exactly (z, theta) = (0, 0) at "
            f"tau={tau}, a fixed point the flow cannot leave; the ramp is "
            f"too slow for float range to show a loop")
    centers, zf, zb = _bin_passes(taus, np.abs(traj.eta), abs_zs,
                                  T, lo, hi, grid_size)
    gap = np.abs(zf - zb)
    loop_area = float(np.trapezoid(gap, centers))
    bistable = centers <= reference["eta_star"]
    if np.count_nonzero(bistable) >= 2:
        bistable_area = float(np.trapezoid(gap[bistable], centers[bistable]))
    else:
        bistable_area = 0.0
    return HysteresisReport(
        r=params.r, nu=params.nu,
        forward_trace=tuple(zip(centers.tolist(), zf.tolist())),
        backward_trace=tuple(zip(centers.tolist(), zb.tolist())),
        loop_area=loop_area,
        bistable_area=bistable_area,
        detected=bistable_area > AREA_THRESHOLD,
        window=_longest_gap_window(centers, gap),
        reference=reference)
