"""Time integration of the damped two-mode equations of motion.

    dz/dtau     = -dH/dtheta + nu * dH/dz
    dtheta/dtau =  dH/dz

The nu term models incoherent population exchange. With this sign
convention dH/dtau = nu * (dH/dz)^2 >= 0, so H relaxes monotonically
onto the interior maximum that hosts the stable stationary states and
the physical energy E = Omega - omega H / 2 decreases. (The opposite
sign turns every stable center into a repeller and drives |z| -> 1.)

The stepper is the Dormand-Prince 8(5,3) pair DOP853, run as one stage
loop over the coefficient tables in tableau.py. Its combined
5th/3rd-order error estimate is controlled per unit tau in the max norm
over (z, theta) by a PI controller; the per-unit control is what keeps
the H drift below 1e-8 over tau spans of 10^3. No step spans more than
one unit of tau: with longer steps the absolute tolerance dominates
near z = 0, the state stops decaying there and the delayed jump of a
slow ramp comes early. Steps ignore the sample grid; samples inside a
step come from DOP853's 7th-order interpolant, which costs three extra
right-hand-side evaluations on steps that hold a sample.

A step whose stage leaves |z| <= 1 - EPS_CLAMP is halved; at min_step
the state is clamped and the clamp counted. A non-finite error estimate
rejects the step like any other, so a NaN ends in StepFailureError once
the step underflows min_step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError, StepFailureError
from .model import (
    EPS_CLAMP,
    EtaSchedule,
    IntegrationStats,
    ModelParams,
    PhaseState,
    PhysicalContext,
    Trajectory,
    check_count,
    energy_functional,
    hamiltonian_column,
    schedule_column,
)
from .tableau import (DOP853_B, DOP853_D, DOP853_DENSE_STAGES, DOP853_E3,
                      DOP853_E5, DOP853_STAGES)

# step control
_MAX_STEP = 1.0     # no step spans more than one unit of tau
_SAFETY = 0.9
_FAC_MIN, _FAC_MAX = 0.2, 6.0
# PI controller weights 0.7/k and 0.4/k (Hairer & Wanner, Solving ODEs
# II, section IV.2), with k = 7 the order of the error per unit tau
_EXPO = 0.7 / 7.0
_BETA = 0.4 / 7.0


@dataclass(frozen=True)
class IntegratorConfig:
    """Control knobs of the DOP853 stepper.

    dt is the initial step; later steps are chosen by error control and
    never exceed one unit of tau. abs_tol and rel_tol bound the error
    per unit tau. sample_stride is the number of output samples per unit
    tau, interpolated inside the steps. clamp_limit bounds how many
    boundary clamps are tolerated before the run is declared singular.
    min_step is the smallest step tried before a boundary clamp or a
    StepFailureError.
    """

    dt: float = 1e-3
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    sample_stride: int = 1
    clamp_limit: int = 100
    min_step: float = 1e-13

    def __post_init__(self):
        for name in ("dt", "abs_tol", "rel_tol", "min_step"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(
                    f"{name} must be finite and > 0, got {value}")
        check_count("sample_stride", self.sample_stride, 1)
        check_count("clamp_limit", self.clamp_limit, 0)


def make_field(params: ModelParams):
    """Closure (z, theta, eta) -> (dz, dtheta) of the damped flow.

    Kept free of any state boxing; this is the integrator hot path.
    """
    r, nu = params.r, params.nu
    two_r = 2.0 ** r

    def field(z, theta, eta):
        s = math.sqrt(1.0 - z * z)
        a = abs(z)
        if a == 0.0:
            diff = 0.0
        else:
            # stable (1+z)^r - (1-z)^r, see model.power_difference
            try:
                diff = math.exp(r * math.log1p(-a)) \
                    * math.expm1(2.0 * r * math.atanh(a))
            except OverflowError:
                diff = math.exp(r * math.log1p(a))
            if z < 0:
                diff = -diff
        gz = -2.0 * z * math.cos(theta) / s - eta / two_r * diff
        return 2.0 * s * math.sin(theta) + nu * gz, gz

    return field


def vector_field(state: PhaseState, eta: float, params: ModelParams) -> tuple:
    """(dz/dtau, dtheta/dtau) at one state."""
    if abs(state.z) >= 1.0 - EPS_CLAMP:
        raise SingularityError(f"vector field singular near |z|=1; got z={state.z}")
    return make_field(params)(state.z, state.theta, eta)


def _sparse(row):
    """(index, weight) pairs of a row's nonzero weights."""
    return tuple((j, x) for j, x in enumerate(row) if x)


def _sparse_stages(stages):
    return tuple((c, _sparse(a)) for c, a in stages)


# the tables with their zero weights dropped: the stepper's hot loops
# then skip them instead of multiplying by zero
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


def _interpolate(c, x):
    """Value at fraction x of the step from _dense's coefficients."""
    y0, f0, f1, f2, f3, f4, f5, f6 = c
    y = 1.0 - x
    return y0 + x * (f0 + y * (f1 + x * (f2 + y * (f3 + x * (f4 + y * (
        f5 + x * f6))))))


def integrate(initial: PhaseState, params: ModelParams, schedule: EtaSchedule,
              config: IntegratorConfig, tau_span: tuple,
              ctx: PhysicalContext = PhysicalContext()) -> Trajectory:
    """Integrate from tau_span[0] to tau_span[1], sampling on a uniform grid.

    Sample k is emitted at tau_span[0] + k / sample_stride, and the last
    one at tau_span[1]. The stepper records only (tau, z, theta); the
    eta, H and E = energy_functional(H, ctx) columns are computed from
    them after the run. ctx defaults to omega=1, Omega=0 so the E column
    is -H/2 unless a physical context is supplied. The returned
    trajectory's stats count the work done.

    Deterministic: identical inputs give bit-identical trajectories.
    """
    t0, t1 = tau_span
    slack = 1e-9 * max(1.0, schedule.T)
    if not (t0 >= -slack and t1 <= schedule.T + slack and t0 < t1):
        raise DomainError(
            f"tau_span {tau_span} must be increasing and inside [0, {schedule.T}]")

    field = make_field(params)
    zmax = 1.0 - EPS_CLAMP
    if abs(initial.z) > zmax:
        raise SingularityError(f"initial z={initial.z} within EPS_CLAMP of |z|=1")

    # every stage evaluates eta(t); specialize the two schedule kinds
    # instead of going through eval_schedule
    if schedule.kind == "constant":
        e0 = schedule.eta_start

        def eta_at(t):
            return e0
    else:
        e0, T_s = schedule.eta_start, schedule.T
        half = 0.5 * T_s
        rate = (schedule.eta_peak - e0) / half

        def eta_at(t):
            x = t if t <= half else T_s - t
            return e0 + rate * (x if x > 0.0 else 0.0)

    def emit(t, z, theta):
        taus.append(t)
        zs.append(z)
        thetas.append(theta)

    # sample k sits at t0 + k / stride, computed from k so the grid
    # cannot drift; the last one, sample n, is placed on t1
    stride = config.sample_stride
    span = (t1 - t0) * stride
    n = math.ceil(span - 1e-9 * max(1.0, span))

    def sample_time(k):
        if k < n:
            return t0 + k / stride
        return t1 if k == n else math.inf

    atol, rtol, min_step = config.abs_tol, config.rel_tol, config.min_step
    taus, zs, thetas = [], [], []
    z, theta, t = initial.z, initial.theta, t0
    emit(t, z, theta)
    k = 1
    ts = sample_time(k)
    fz, ft = field(z, theta, eta_at(t))
    rhs_evals, accepted, rejected, halvings, clamp_events = 1, 0, 0, 0, 0
    h = min(config.dt, _MAX_STEP)
    err_old = 1.0

    while t < t1:
        t_new = t + h
        if t_new >= t1:
            t_new, h = t1, t1 - t
        kz, kt = [fz], [ft]
        inside = _stages(field, eta_at, _DOP853_STAGES, t, h, z, theta,
                         kz, kt, zmax)
        rhs_evals += len(kz) - 1
        if inside:
            sz, st = _combine(_DOP853_B, kz, kt)
            zn = z + h * sz
            inside = not abs(zn) > zmax
        if not inside:
            if h > min_step:
                h *= 0.5
                halvings += 1
                continue
            # boundary unavoidable at the smallest step: clamp and count
            clamp_events += 1
            if clamp_events > config.clamp_limit:
                raise SingularityError(
                    f"clamped at |z|=1 more than {config.clamp_limit} times")
            z, t = math.copysign(zmax, z), min(t + h, t1)
            fz, ft = field(z, theta, eta_at(t))
            rhs_evals += 1
            while ts <= t:
                emit(ts, z, theta)
                k += 1
                ts = sample_time(k)
            continue
        tn = theta + h * st

        # 5th- and 3rd-order estimates combined as in DOP853, as an
        # error per unit tau in the max norm over (z, theta)
        scale_z = atol + rtol * abs(zn)
        scale_t = atol + rtol * abs(tn)
        ez, et = _combine(_DOP853_E5, kz, kt)
        e5 = max(abs(ez) / scale_z, abs(et) / scale_t)
        ez, et = _combine(_DOP853_E3, kz, kt)
        e3 = max(abs(ez) / scale_z, abs(et) / scale_t)
        # nonzero e5 and e3 can square to 0: a zero denominator is no error
        den = math.sqrt(e5 * e5 + 0.01 * e3 * e3)
        err = e5 * e5 / den if den else 0.0
        if not err <= 1.0:
            # a non-finite estimate is a rejection like any other
            rejected += 1
            fac = _SAFETY * err ** -_EXPO if math.isfinite(err) else 0.0
            h *= max(_FAC_MIN, fac)
            if h < min_step:
                raise StepFailureError(
                    f"step size underflowed {min_step} at tau={t}")
            continue
        # PI control of the next step
        fac = _SAFETY * (err + 1e-300) ** -_EXPO * err_old ** _BETA
        err_old = max(err, 1e-4)
        h_next = min(h * min(_FAC_MAX, max(_FAC_MIN, fac)), _MAX_STEP)

        accepted += 1
        fz, ft = field(zn, tn, eta_at(t_new))
        rhs_evals += 1
        dense = None
        while ts <= t_new:
            if ts == t_new:
                emit(ts, zn, tn)
            else:
                if dense is None:
                    kz.append(fz)
                    kt.append(ft)
                    dense = _dense(field, eta_at, t, h, z, theta, zn, tn,
                                   kz, kt, zmax)
                    rhs_evals += 3
                x = (ts - t) / h
                emit(ts, _interpolate(dense[0], x), _interpolate(dense[1], x))
            k += 1
            ts = sample_time(k)
        z, theta, t = zn, tn, t_new
        h = h_next

    stats = IntegrationStats(rhs_evals, accepted, rejected, halvings)
    tau, z, theta = np.array(taus), np.array(zs), np.array(thetas)
    eta = schedule_column(schedule, tau)
    H = hamiltonian_column(z, theta, eta, params.r)
    return Trajectory(tau, z, theta, eta, H, energy_functional(H, ctx),
                      params, schedule, clamp_events, stats)
