"""Time integration of the damped two-mode equations of motion.

    dz/dtau     = -dH/dtheta + nu * dH/dz
    dtheta/dtau =  dH/dz

The nu term models incoherent population exchange. With this sign
convention dH/dtau = nu * (dH/dz)^2 >= 0, so H relaxes monotonically
onto the interior maximum that hosts the stable stationary states and
the physical energy E = Omega - omega H / 2 decreases. (The opposite
sign turns every stable center into a repeller and drives |z| -> 1.)

The stepper is the Dormand-Prince 8(5,3) pair DOP853. Its stages run as
straight-line code written out from the rows of tableau.py, each
weighted sum added left to right over a row's nonzero weights, with the
flow written into every stage. One call of a step kernel is a whole
attempt: the stages, the step's end, its error norm and, once the step
is accepted, the derivative at its end and, where the step holds a
sample, the interpolant's three extra stages. The flow is one source
text, _FLOW, with the schedule's coupling at the stage's time for each
schedule kind; make_field's closure, which evaluates the start and a
clamp, is compiled from the same text. The kernels are compiled once per
process for each schedule kind and damping, nu == 0 or not, on the first
run of that pair (those for nu == 0 without the damping term), and bound
to a run's r, nu and schedule as closure constants. The combined
5th/3rd-order error estimate is controlled per unit tau in the max norm
over (z, theta) by a PI controller; the per-unit control keeps the H
drift below 1e-8 over tau spans of 10^3. No step spans more than one
unit of tau: with longer steps the absolute tolerance dominates near
z = 0, the state stops decaying there and the delayed jump of a slow
ramp comes early. Steps ignore the sample grid; samples inside a step
come from DOP853's 7th-order interpolant, which costs three extra
right-hand-side evaluations on steps that hold a sample; integrate
sets the step kernel's flag for these, the steps with a sample strictly
inside them. Such a step records t, h, the range of sample indices it
covers, (z, theta) at both ends, its 12 stages, the derivative at its
end and the three extra stages. After the run the interpolant's
coefficients (Hairer, Norsett & Wanner, Solving ODEs I, section II.6)
and then its samples are computed over numpy columns of all the
records, in the same operations as for one step and one sample, so each
sample keeps its bits.

Damped runs (nu > 0) switch to the linearly implicit Rosenbrock method
RODAS3 where DOP853 is stability-bound: after 15 accepted DOP853 steps
in a row with h < 0.5 and h |lambda| > 3, lambda the largest eigenvalue
of the closed-form Jacobian at the step's end, as on the self-trapped
branch of a slow ramp. RODAS3 steps back to DOP853 once |lambda| < 3.
A RODAS3 step costs one Jacobian and two new field evaluations besides
the end-point one; its order-2 error estimate is controlled per step,
not per unit tau (the per-unit rule serves the H drift at nu = 0 and the
decay near z = 0, where no stiff step runs), and its samples come from
the cubic Hermite interpolant of the step's end values and derivatives,
whose coefficients the step records.
Undamped runs never switch, so they, and damped runs that never become
stiff, are bit-identical to DOP853 alone.

A step of either kind whose stage leaves |z| <= 1 - EPS_CLAMP is
halved; at _MIN_STEP the state is clamped, at most _CLAMP_LIMIT times. A
non-finite error estimate rejects the step like any other, so a NaN ends
in StepFailureError once the step underflows _MIN_STEP; an underflow
within _POLE_MARGIN of |z| = 1 has met the pole and raises
SingularityError. More than _MAX_STEPS + _MAX_STEPS_PER_TAU * (t1 - t0)
step attempts over a span (t0, t1) end in StepFailureError too: a run
that stalls next to |z| = 1 ends, and a long run gets a budget in
proportion to its length. A span asking for more than
_MAX_SAMPLES samples past the first is refused before any work.
"""

from __future__ import annotations

import functools
import linecache
import math
import textwrap
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bifurcation import _jacobian, eigenvalues_2x2
from .errors import DomainError, SingularityError, StepFailureError
from .model import (
    EPS_CLAMP,
    EtaSchedule,
    IntegrationStats,
    ModelParams,
    PhaseState,
    PhysicalContext,
    Trajectory,
    _finite,
    check_count,
    check_eta,
    energy_functional,
    hamiltonian_column,
    power_difference,
    schedule_column,
)
from .tableau import (DOP853_B, DOP853_D, DOP853_DENSE_STAGES, DOP853_E3,
                      DOP853_E5, DOP853_STAGES, RODAS3_E, RODAS3_GAMMA,
                      RODAS3_M, RODAS3_STAGES)

# step control
_MAX_STEP = 1.0     # no step spans more than one unit of tau
_SAFETY = 0.9
_FAC_MIN, _FAC_MAX = 0.2, 6.0
# PI controller weights 0.7/k and 0.4/k (Hairer & Wanner, Solving ODEs
# II, section IV.2), with k = 7 the order of the error per unit tau
_EXPO = 0.7 / 7.0
_BETA = 0.4 / 7.0
# RODAS3's error estimate is of order 2, so its error per step goes as h^3
_ROS_EXPO = 1.0 / 3.0
# DOP853 is stability-bound when h < _STIFF_H and h |lambda| > _STIFF_HLAM
# (its real stability interval ends near -6); after _STIFF_RUN such
# accepted steps in a row, as in Hairer's dop853 stiffness test, RODAS3
# takes over until |lambda| < _STIFF_OFF
_STIFF_H, _STIFF_HLAM, _STIFF_RUN, _STIFF_OFF = 0.5, 3.0, 15, 3.0
# step attempts of both steppers allowed over a span (t0, t1): _MAX_STEPS
# plus _MAX_STEPS_PER_TAU per unit tau, about 25 times the 41 per unit tau
# of an undamped r = 5 run at tolerance 1e-10
_MAX_STEPS, _MAX_STEPS_PER_TAU = 1_000_000, 1_000
# clamps allowed before a SingularityError; the smallest step tried
_CLAMP_LIMIT, _MIN_STEP = 100, 1e-13
# a step underflowing _MIN_STEP this close to |z| = 1 has met the pole
_POLE_MARGIN = 1e-6
# samples allowed over a span, past the first: their six float64 columns
# take 480 MB and the run peaks (in _samples) near 2.8 times that, 1.4 GB,
# against 320 001 samples in the slowest reference ramp
_MAX_SAMPLES = 10_000_000


@dataclass(frozen=True)
class IntegratorConfig:
    """The stepper's settings, each one a CLI flag and config key.

    dt is the initial step; later steps are chosen by error control and
    never exceed one unit of tau. abs_tol and rel_tol bound the error
    per unit tau of a DOP853 step and the error per step of a RODAS3
    step. sample_stride is the number of output samples per unit tau,
    interpolated inside the steps.
    """

    dt: float = 1e-3
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    sample_stride: int = 1

    def __post_init__(self):
        for name in ("dt", "abs_tol", "rel_tol"):
            value = getattr(self, name)
            if not (_finite(value) and value > 0):
                raise DomainError(
                    f"{name} must be finite and > 0, got {value}")
        check_count("sample_stride", self.sample_stride, 1)


def make_field(params: ModelParams):
    """Closure (z, theta, eta) -> (dz, dtheta) of the damped flow.

    Compiled from the flow's one text, _FLOW, which the kernels inline,
    with the damping term for every nu; the integrator evaluates it at
    the start and at a clamp.
    """
    field, = _factory(None, True)
    return field(params, None)


def vector_field(state: PhaseState, eta: float, params: ModelParams) -> tuple:
    """(dz/dtau, dtheta/dtau) at one state."""
    check_eta(eta)
    if abs(state.z) >= 1.0 - EPS_CLAMP:
        raise SingularityError(f"vector field singular near |z|=1; got z={state.z}")
    return make_field(params)(state.z, state.theta, eta)


# The flow at ({z}, {theta}) with a = |{z}|, r2 = 2 r and {q} = eta / 2^r,
# the one text of the field formula; diff is the stable (1+z)^r - (1-z)^r
# of model.power_difference, and needs no branch at a = 0, where
# exp(r log1p(-0.0)) expm1(r2 atanh 0.0) is 0.0. {damping} is the
# damping term, left out of the kernels bound for nu == 0. The constant
# schedule binds q once as e0 / two_r, which evaluates as eta / two_r
# does.
_FLOW = """
    s = sqrt(1.0 - {z} * {z})
    try:
        diff = exp(r * log1p(-a)) * expm1(r2 * atanh(a))
    except OverflowError:
        diff = exp(r * log1p(a))
    if {z} < 0.0:
        diff = -diff
    gz = -2.0 * {z} * cos({theta}) / s - {q} * diff
    {out}2.0 * s * sin({theta}){damping}, gz"""


class _Kind(NamedTuple):
    """A schedule kind's part of the kernels: the constants bound from
    the schedule, the statements that set eta to the coupling at time {t}
    (none where the coupling is a constant), the coupling as returned by
    eta_at, eta / 2^r as the flow reads it, and deta/dtau at t, one-sided
    at the ramp's corner."""

    constants: str
    coupling: str
    eta: str
    q: str
    rate: str


# None is make_field's closure, which takes eta as an argument
_KINDS = {
    None: _Kind(constants="", coupling="", eta="", q="eta / two_r", rate=""),
    "constant": _Kind(
        constants="\n    e0 = schedule.eta_start\n    q = e0 / two_r",
        coupling="", eta="e0", q="q", rate="0.0"),
    "triangular": _Kind(
        constants="\n    e0, half, T_s, rate = schedule.ramp",
        coupling=("\n    x = {t} if {t} <= half else T_s - {t}"
                  "\n    eta = e0 + rate * (x if x > 0.0 else 0.0)"),
        eta="eta", q="eta / two_r", rate="rate if t < half else -rate"),
}

# bind(params, schedule) returns one of the kind's functions with r, nu
# and the schedule's constants in closure cells
_FACTORY = """\
def bind(params, schedule):
    r, nu = params.r, params.nu
    two_r = 2.0 ** r
    r2 = 2.0 * r{constants}
{function}
    return {name}
"""
_FIELD = """\
def field(z, theta, eta):
    a = abs(z){flow}
"""

# The straight-line kernels, written out from tableau.py's rows with the
# flow inline. A weighted sum adds w * k<j> left to right over a row's
# nonzero weights. A sum of zeros can come out -0.0 where the tables'
# loop, which starts every sum from 0.0, gives 0.0, and the flow maps
# such a stage point to stages that differ from the loop's only in the
# sign of a zero; the sums that set a step's end state start from 0.0
# too, so the end state keeps the loop's bits (the error sums pass
# through abs()).
# Each step kernel does a whole attempt and returns (stages evaluated,
# err, zero, zn, thetan, the derivative at the end, the stages): all
# but the count are None once a stage point or the end leaves
# |z| <= zmax; else err is the error in the max norm over (z, theta) at
# atol + rtol |(zn, thetan)|, and where err <= 1 the derivative at the
# end, with the coupling at t_new, is evaluated as one more stage and
# the rest returned; zero flags an err set to 0.0 for a zero
# denominator. _rosenbrock's stages are None. _step's are None too
# unless its flag dense is set, when an accepted step also evaluates the
# three extra stages of the interpolant and returns the tail of its
# record: kz0..kz11, kt0..kt11, the derivative at the end (kz12, kt12),
# kz13..kz15 and kt13..kt15. An extra stage point that leaves
# |z| <= zmax raises SingularityError.
_STAGE = """
    sz = {sz}
    st = {st}
    zi = z + h * sz
    a = abs(zi)
    if a > zmax:
        {leave}
    ti = theta + h * st{flow}"""
_LEAVE = ", None" * 7
_REJECT = ", False" + ", None" * 5
_ETA_AT = """\
def eta_at(t):{coupling}
    return {eta}
"""
_RATE_AT = """\
def rate_at(t):
    return {rate}
"""
# the 5th- and 3rd-order estimates combined as in DOP853, per unit tau;
# nonzero e5 and e3 can square to 0, and a zero denominator is no error
# (max(x, y) is written out as y if y > x else x, which is what the
# builtin computes, at a tenth of its cost)
_STEP = """\
def _step(t, h, z, theta, kz0, kt0, t_new, zmax, atol, rtol, dense):{stages}
    zn = z + h * ({bz})
    a = abs(zn)
    if a > zmax:
        return {last}{leave}
    tn = theta + h * ({bt})
    scale_z = atol + rtol * a
    scale_t = atol + rtol * abs(tn)
    x = abs({e5z}) / scale_z
    y = abs({e5t}) / scale_t
    e5 = y if y > x else x
    x = abs({e3z}) / scale_z
    y = abs({e3t}) / scale_t
    e3 = y if y > x else x
    den = sqrt(e5 * e5 + 0.01 * e3 * e3)
    err = e5 * e5 / den if den else 0.0
    if not err <= 1.0:
        return {last}, err{reject}{end}
    if not dense:
        return {n}, err, not den, zn, tn, kz{n}, kt{n}, None{dense_stages}
    return {evals}, err, not den, zn, tn, kz{n}, kt{n}, ({ks})
"""

def _sum(row, k, seed=""):
    """Source of seed + w * k<j> + ... over row's nonzero weights w, the
    seed "0.0 + " for a sum that sets an end state."""
    return seed + " + ".join(f"{w!r} * {k}{j}" for j, w in enumerate(row)
                             if w)


def _flow(kind, damped, z, theta, out, t):
    """Source of the flow at (z, theta) into out, after the coupling at
    time t where the kind's coupling is not a constant."""
    return kind.coupling.format(t=t) + _FLOW.format(
        z=z, theta=theta, q=kind.q, out=out,
        damping=" + nu * gz" if damped else "")


def _stage_flow(kind, damped, c, out):
    """Source of the flow at the stage point (zi, ti) at time t + c h."""
    time = f"\n    tt = t + {c!r} * h" if kind.coupling else ""
    return time + _flow(kind, damped, "zi", "ti", out, "tt")


def _sources(kind, damped):
    """{name: source of its bind} of make_field's closure (kind None,
    damped) or of a schedule kind's eta_at, rate_at and kernels, in that
    order, the kernels for nu != 0 where damped. Each bind compiles on
    its own, so that the compiler's memory peaks at the largest
    function, not at their sum."""
    k = _KINDS[kind]
    if kind is None:
        functions = {"field": _FIELD.format(
            flow=_flow(k, damped, "z", "theta", "return ", None))}
    else:
        functions = {"eta_at": _ETA_AT.format(
                         coupling=k.coupling.format(t="t"), eta=k.eta),
                     "rate_at": _RATE_AT.format(rate=k.rate),
                     "_step": _dop853_source(k, damped),
                     "_rosenbrock": _rosenbrock_source(k, damped)}
    return {name: _FACTORY.format(constants=k.constants, name=name,
                                  function=textwrap.indent(text, "    "))
            for name, text in functions.items()}


def _dop853_source(kind, damped):
    n = len(DOP853_STAGES) + 1
    error = 'raise SingularityError(f"interpolation stage left |z| <= ' \
        '{zmax} at tau={t}")'

    def stages(table, first, leave):
        return "".join(_STAGE.format(
            sz=_sum(a, "kz"), st=_sum(a, "kt"), leave=leave(i),
            flow=_stage_flow(kind, damped, c, f"kz{i}, kt{i} = "))
            for i, (c, a) in enumerate(table, first))

    def names(js):
        return [f"k{y}{j}" for y in "zt" for j in js]

    total = n + 1 + len(DOP853_DENSE_STAGES)
    ks = ", ".join(names(range(n)) + names([n]) + names(range(n + 1, total)))
    return _STEP.format(
        stages=stages(DOP853_STAGES, 1, lambda i: f"return {i - 1}{_LEAVE}"),
        bz=_sum(DOP853_B, "kz", "0.0 + "), bt=_sum(DOP853_B, "kt", "0.0 + "),
        e5z=_sum(DOP853_E5, "kz"), e5t=_sum(DOP853_E5, "kt"),
        e3z=_sum(DOP853_E3, "kz"), e3t=_sum(DOP853_E3, "kt"),
        end=_flow(kind, damped, "zn", "tn", f"kz{n}, kt{n} = ", "t_new"),
        dense_stages=stages(DOP853_DENSE_STAGES, n + 1, lambda i: error),
        leave=_LEAVE, reject=_REJECT, ks=ks, last=n - 1, n=n,
        evals=total - 1)


# The RODAS3 kernel, written out from tableau.py's rows in the same way.
# jac is the Jacobian at (t, z, theta) and (dfz, dft) the time
# derivative of the field there (named apart from the gz that each flow
# sets); its error is controlled per step, not per unit tau. A singular
# stage matrix gives non-finite stages, which reject the step.
_ROS_PROLOGUE = """\
def _rosenbrock(t, h, z, theta, kz0, kt0, t_new, jac, dfz, dft, zmax, atol,
                rtol):
    (j11, j12), (j21, j22) = jac
    g = 1.0 / (h * {gamma!r})
    m11 = g - j11
    m22 = g - j22
    det = m11 * m22 - j12 * j21
    d = 1.0 / det if det else inf
    p11, p12, p21, p22 = m22 * d, j12 * d, j21 * d, m11 * d"""
_ROS_EVAL = """
    zi = z + ({sz})
    a = abs(zi)
    if a > zmax:
        return {evals}{leave}
    ti = theta + ({st}){flow}"""
_ROS_STAGE = """
    wz = {fz}{cz}{gzt}
    wt = {ft}{ct}{gtt}
    uz{i} = p11 * wz + p12 * wt
    ut{i} = p21 * wz + p22 * wt"""
_ROS_EPILOGUE = """
    zn = z + ({mz})
    a = abs(zn)
    if a > zmax:
        return {evals}{leave}
    tn = theta + ({mt})
    x = abs({ez}) / (atol + rtol * a)
    y = abs({et}) / (atol + rtol * abs(tn))
    err = y if y > x else x
    if not err <= 1.0:
        return {evals}, err{reject}{end}
    return {n}, err, False, zn, tn, fzn, ftn, None
"""


def _rosenbrock_source(kind, damped):
    parts, evals = [_ROS_PROLOGUE.format(gamma=RODAS3_GAMMA)], 0
    for i, (alpha, gamma, a, c) in enumerate(RODAS3_STAGES):
        fz, ft = "kz0", "kt0"
        if alpha or any(a):
            parts.append(_ROS_EVAL.format(
                sz=_sum(a, "uz"), st=_sum(a, "ut"), evals=evals,
                leave=_LEAVE,
                flow=_stage_flow(kind, damped, alpha, "fz, ft = ")))
            fz, ft, evals = "fz", "ft", evals + 1
        parts.append(_ROS_STAGE.format(
            fz=fz, ft=ft, i=i,
            cz=f" + ({_sum(c, 'uz')}) / h" if any(c) else "",
            ct=f" + ({_sum(c, 'ut')}) / h" if any(c) else "",
            gzt=f" + {gamma!r} * h * dfz" if gamma else "",
            gtt=f" + {gamma!r} * h * dft" if gamma else ""))
    parts.append(_ROS_EPILOGUE.format(
        evals=evals, n=evals + 1, leave=_LEAVE, reject=_REJECT,
        mz=_sum(RODAS3_M, "uz", "0.0 + "), mt=_sum(RODAS3_M, "ut", "0.0 + "),
        ez=_sum(RODAS3_E, "uz"), et=_sum(RODAS3_E, "ut"),
        end=_flow(kind, damped, "zn", "tn", "fzn, ftn = ", "t_new")))
    return "".join(parts)


@functools.cache
def _factory(kind, damped):
    """The binds of _sources(kind, damped), compiled on first use;
    linecache keeps each source under <dynamics kind damping name> for
    tracebacks and profilers."""
    binds = []
    for name, source in _sources(kind, damped).items():
        file = (f"<{__name__} {kind} {'damped' if damped else 'undamped'} "
                f"{name}>" if kind else f"<{__name__} {name}>")
        linecache.cache[file] = (len(source), None, source.splitlines(True),
                                 file)
        scope = {"__name__": __name__, "SingularityError": SingularityError,
                 "inf": math.inf, "sqrt": math.sqrt, "exp": math.exp,
                 "log1p": math.log1p, "expm1": math.expm1,
                 "atanh": math.atanh, "cos": math.cos, "sin": math.sin}
        exec(compile(source, file, "exec"), scope)
        binds.append(scope["bind"])
    return tuple(binds)


def _kernels(params, schedule):
    """make_field's closure, then eta_at, rate_at and the step and
    Rosenbrock kernels of schedule's kind and of nu == 0 or not, bound to
    params and schedule."""
    return (make_field(params), *(bind(params, schedule) for bind in
                                  _factory(schedule.kind, params.nu != 0)))


def _interpolate(c, x):
    """Value at fraction x of the step from its 8 coefficients: floats,
    or arrays holding one sample each."""
    y0, f0, f1, f2, f3, f4, f5, f6 = c
    y = 1.0 - x
    return y0 + x * (f0 + y * (f1 + x * (f2 + y * (f3 + x * (f4 + y * (
        f5 + x * f6))))))


def _hermite(y0, y1, hf0, hf1):
    """_interpolate's coefficients of the cubic through y0 and y1 with
    slopes hf0 and hf1 per step: the first four of DOP853's form, the
    rest zero."""
    dy = y1 - y0
    return (y0, dy, hf0 - dy, 2.0 * dy - (hf1 + hf0), 0.0, 0.0, 0.0, 0.0)


def _weighted(row, k):
    """0.0 + w * k[j] + ... over row's nonzero weights w, left to right:
    _sum's sum, on numpy columns."""
    total = 0.0
    for w, kj in zip(row, k):
        if w:
            total = total + w * kj
    return total


def _dop853_coefficients(rec):
    """_interpolate's coefficients of z and of theta for DOP853 records,
    given as rows of columns: the continuous extension of Hairer, Norsett
    & Wanner, Solving ODEs I, section II.6, with the operations of one
    step on floats, so each coefficient keeps its bits."""
    h = rec[1]
    stages = rec[8:32].reshape(2, 12, -1)
    extra = rec[34:40].reshape(2, 3, -1)
    coefficients = []
    for i in (0, 1):
        y0, y1 = rec[4 + i], rec[6 + i]
        k = [*stages[i], rec[32 + i], *extra[i]]
        dy = y1 - y0
        coefficients.append((
            y0, dy, h * k[0] - dy, 2.0 * dy - h * (k[12] + k[0]),
            *(h * _weighted(d, k) for d in DOP853_D)))
    return coefficients


# A step holding interpolated samples appends a record of its kind: t, h,
# its first sample and the end of its samples, then for DOP853 (z, theta)
# at its start and at its end, kz0..kz11, kt0..kt11, the derivative at
# its end (kz12, kt12) and the three extra stages, and for RODAS3
# _hermite's 8 coefficients of z and of theta
_DOP853_RECORD, _HERMITE_RECORD = 40, 20


def integrate(initial: PhaseState, params: ModelParams, schedule: EtaSchedule,
              config: IntegratorConfig, tau_span: tuple) -> Trajectory:
    """Integrate from tau_span[0] to tau_span[1], sampling on a uniform grid.

    Sample k is emitted at tau_span[0] + k / sample_stride, and the last
    one at tau_span[1]. The stepper records only (tau, z, theta); the
    eta, H and E = energy_functional(H, PhysicalContext()) = -H/2
    columns are computed from them after the run. The returned
    trajectory's stats count the work done.

    Deterministic: identical inputs give bit-identical trajectories.
    """
    t0, t1 = tau_span
    slack = schedule.tau_slack
    if not (t0 >= -slack and t1 <= schedule.T + slack and t0 < t1):
        raise DomainError(
            f"tau_span {tau_span} must be increasing and inside [0, {schedule.T}]")
    stride = config.sample_stride
    # the sample count and the step budget grow with the span
    if not math.isfinite((t1 - t0) * max(stride, _MAX_STEPS_PER_TAU)):
        raise DomainError(f"tau_span {tau_span} is too long to count its "
                          f"samples and steps")
    # sample k sits at t0 + k / stride, computed from k so the grid
    # cannot drift; the last one, sample n, is placed on t1
    span = (t1 - t0) * stride
    n = math.ceil(span - 1e-9 * max(1.0, span))
    if n > _MAX_SAMPLES:
        raise DomainError(f"tau_span {tau_span} at sample_stride {stride} "
                          f"asks for {n} samples past the first, more "
                          f"than {_MAX_SAMPLES}")

    zmax = 1.0 - EPS_CLAMP
    if abs(initial.z) > zmax:
        raise SingularityError(f"initial z={initial.z} within EPS_CLAMP of |z|=1")
    # rate_at is deta/dtau, for the stiff steps' df/dtau
    field, eta_at, rate_at, step, rosenbrock = _kernels(params, schedule)

    r, nu = params.r, params.nu
    two_r = 2.0 ** r

    def linearize(t, z, theta):
        """The Jacobian and df/dtau = (nu, 1) (-P / 2^r) deta/dtau."""
        q = -power_difference(z, r) / two_r * rate_at(t)
        return _jacobian(z, theta, eta_at(t), r, nu), nu * q, q

    def sample_time(k):
        if k < n:
            return t0 + k / stride
        return t1 if k == n else math.inf

    atol, rtol = config.abs_tol, config.rel_tol
    # accepted, rejected, halved or clamped, of either stepper
    max_steps = _MAX_STEPS + math.ceil(_MAX_STEPS_PER_TAU * (t1 - t0))
    z, theta, t = initial.z, initial.theta, t0
    # samples taken as they are, as (k, z, theta): the start, those at a
    # step's end and those at a clamp; the others are evaluated after the
    # run from the records of their steps
    exact, dop853, hermite = [(0, z, theta)], array("d"), array("d")
    k = 1
    ts = sample_time(k)
    fz, ft = field(z, theta, eta_at(t))
    rhs_evals, accepted, rejected, halvings, clamp_events = 1, 0, 0, 0, 0
    stiff_steps, stiff_rejected, jacobian_evals, zero_denominators = 0, 0, 0, 0
    # stiff: RODAS3 steps with lin = linearize(t, z, theta); bound
    # counts the consecutive stability-bound DOP853 steps
    stiff, bound, lin = False, 0, None
    h = min(config.dt, _MAX_STEP)
    err_old = 1.0

    for attempts in range(max_steps):
        if t >= t1:
            break
        t_new = t + h
        if t_new >= t1:
            t_new, h = t1, t1 - t
        if stiff:
            evals, err, zero, zn, tn, fzn, ftn, ks = rosenbrock(
                t, h, z, theta, fz, ft, t_new, *lin, zmax, atol, rtol)
        else:
            # the interpolant's extra stages where a sample lies inside
            evals, err, zero, zn, tn, fzn, ftn, ks = step(
                t, h, z, theta, fz, ft, t_new, zmax, atol, rtol, ts < t_new)
        rhs_evals += evals
        if err is None:
            # a stage point or the end left |z| <= zmax
            if h > _MIN_STEP:
                h *= 0.5
                halvings += 1
                continue
            # boundary unavoidable at the smallest step: clamp and count
            clamp_events += 1
            if clamp_events > _CLAMP_LIMIT:
                raise SingularityError(
                    f"clamped at |z|=1 more than {_CLAMP_LIMIT} times")
            z, t = math.copysign(zmax, z), min(t + h, t1)
            fz, ft = field(z, theta, eta_at(t))
            rhs_evals += 1
            if stiff:
                lin = linearize(t, z, theta)
                jacobian_evals += 1
            while ts <= t:
                exact.append((k, z, theta))
                k += 1
                ts = sample_time(k)
            continue
        if not err <= 1.0:
            # a non-finite estimate is a rejection like any other
            if stiff:
                stiff_rejected += 1
                expo = _ROS_EXPO
            else:
                rejected += 1
                expo = _EXPO
            fac = _SAFETY * err ** -expo if math.isfinite(err) else 0.0
            h *= max(_FAC_MIN, fac)
            if h < _MIN_STEP:
                if abs(z) > 1.0 - _POLE_MARGIN:
                    raise SingularityError(f"reached the pole |z|=1 at "
                                           f"tau={t}: z={z}")
                raise StepFailureError(
                    f"step size underflowed {_MIN_STEP} at tau={t}")
            continue
        if stiff:
            stiff_steps += 1
            fac = _SAFETY * (err + 1e-300) ** -_ROS_EXPO
        else:
            # PI control of the next step
            accepted += 1
            zero_denominators += zero
            fac = _SAFETY * (err + 1e-300) ** -_EXPO * err_old ** _BETA
            err_old = 1e-4 if 1e-4 > err else err
        # min(h * min(_FAC_MAX, max(_FAC_MIN, fac)), _MAX_STEP), written out
        fac = fac if fac > _FAC_MIN else _FAC_MIN
        h_next = h * (fac if fac < _FAC_MAX else _FAC_MAX)
        h_next = _MAX_STEP if _MAX_STEP < h_next else h_next

        if ts <= t_new:
            # the step holds samples k..j; j by arithmetic, then corrected
            j = min(int((t_new - t0) * stride), n)
            while sample_time(j) > t_new:
                j -= 1
            while sample_time(j + 1) <= t_new:
                j += 1
            end = j + 1
            if sample_time(j) == t_new:
                exact.append((j, zn, tn))
                end = j
            if k < end:
                # (fromlist takes a record at a third of extend's cost)
                if stiff:
                    hermite.fromlist([
                        t, h, k, end, *_hermite(z, zn, h * fz, h * fzn),
                        *_hermite(theta, tn, h * ft, h * ftn)])
                else:
                    dop853.fromlist([t, h, k, end, z, theta, zn, tn, *ks])
            k = j + 1
            ts = sample_time(k)
        z, theta, t, fz, ft = zn, tn, t_new, fzn, ftn

        # switch to RODAS3 after _STIFF_RUN consecutive stability-bound
        # DOP853 steps, back once the Jacobian's spectral radius is small
        if nu and (stiff or h < _STIFF_H):
            lin = linearize(t, z, theta)
            jacobian_evals += 1
            lam = max(map(abs, eigenvalues_2x2(lin[0])))
            if stiff:
                stiff = lam >= _STIFF_OFF
            else:
                bound = bound + 1 if h * lam > _STIFF_HLAM else 0
                if bound == _STIFF_RUN:
                    stiff, bound = True, 0
        else:
            bound = 0
        h = h_next
    else:
        attempts = max_steps
        if t < t1:
            raise StepFailureError(
                f"more than {max_steps} step attempts at tau={t}")

    stats = IntegrationStats(
        rhs_evals=rhs_evals, accepted=accepted, rejected=rejected,
        boundary_halvings=halvings, stiff_steps=stiff_steps,
        stiff_rejected=stiff_rejected, jacobian_evals=jacobian_evals,
        attempts=attempts, zero_error_denominators=zero_denominators)
    tau, z, theta = _samples(t0, t1, n, stride, exact, dop853, hermite)
    eta = schedule_column(schedule, tau)
    H = hamiltonian_column(z, theta, eta, params.r)
    # not -0.5 * H, which turns +0.0 into -0.0
    E = energy_functional(H, PhysicalContext())
    return Trajectory(tau, z, theta, eta, H, E, params, schedule,
                      clamp_events, stats)


def _samples(t0, t1, n, stride, exact, dop853, hermite):
    """The tau, z and theta columns of samples 0..n: the exact ones as
    given, the others from the interpolants of their steps' records, in
    one pass over numpy columns per kind of record, with the operations
    of one sample at a time."""
    tau = t0 + np.arange(n + 1) / stride
    tau[n] = t1
    tau[0] = t0
    z, theta = np.empty(n + 1), np.empty(n + 1)
    index, zs, thetas = zip(*exact)
    index = list(index)
    z[index], theta[index] = zs, thetas
    for records, width in ((dop853, _DOP853_RECORD),
                           (hermite, _HERMITE_RECORD)):
        if not records:
            continue
        rec = np.frombuffer(records).reshape(-1, width).T.copy()
        if width == _DOP853_RECORD:
            cz, ct = _dop853_coefficients(rec)
        else:
            cz, ct = rec[4:12], rec[12:20]
        first, end = rec[2].astype(np.intp), rec[3].astype(np.intp)
        counts = end - first
        rows = np.repeat(np.arange(len(first)), counts)
        index = np.arange(len(rows)) + np.repeat(
            first - np.cumsum(counts) + counts, counts)
        x = (tau[index] - rec[0, rows]) / rec[1, rows]
        z[index] = _interpolate([c[rows] for c in cz], x)
        theta[index] = _interpolate([c[rows] for c in ct], x)
    return tau, z, theta
