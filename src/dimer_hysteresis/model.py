"""Core model: domain types, the two-mode Hamiltonian, and coupling schedules.

The system is a bosonic two-mode (double-well) condensate with an
(r+1)-body power-law nonlinearity, reduced to a population imbalance
z in [-1, 1] and a relative phase theta. All dynamics, stationary-state
analysis and sweep protocols elsewhere in the package are built on the
functions here.

H(z, theta) = 2 sqrt(1 - z^2) cos(theta)
              - eta * [(1+z)^(r+1) + (1-z)^(r+1)] / (2^r (r+1))
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, SingularityError

# Dynamics never evaluates the phase equation closer to |z| = 1 than this.
EPS_CLAMP = 1e-9

SCHEDULE_KINDS = ("constant", "triangular")


def _finite(value) -> bool:
    """Whether value, a number or an array, is finite; False also where
    it cannot become a float, as an int beyond the float range."""
    try:
        if isinstance(value, (int, float)):
            return math.isfinite(value)
        return bool(np.all(np.isfinite(value)))
    except (OverflowError, TypeError):
        return False


def check_power(r) -> None:
    """Refuse a nonlinearity power r outside 0 < r < 1014.

    Just above r = 1014, H's denominator 2^r (r+1) overflows a float.
    """
    if not (0 < r < 1014):
        raise DomainError(
            f"nonlinearity power r must be > 0 and < 1014, got {r}")


def check_eta(eta) -> None:
    """Refuse a coupling eta that is not finite: a float, or an array
    holding a non-finite value."""
    if not _finite(eta):
        raise DomainError(f"eta must be finite, got {eta}")


def check_count(name: str, value, least: int) -> None:
    """Refuse a count that is not an integer >= least.

    Anything operator.index accepts is an integer; a float, even an
    integral one, is not.
    """
    try:
        ok = operator.index(value) >= least
    except TypeError:
        ok = False
    if not ok:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class ModelParams:
    """Nonlinearity power r and damping nu.

    r may be any real with 0 < r < 1014, integer or not. With nu = 0 the flow
    conserves H; see dynamics.vector_field.
    """

    r: float
    nu: float = 0.0

    def __post_init__(self):
        check_power(self.r)
        if not (_finite(self.nu) and self.nu >= 0):
            raise DomainError(
                f"damping nu must be finite and >= 0, got {self.nu}")


@dataclass(frozen=True)
class PhaseState:
    """Population imbalance z and relative phase theta.

    theta is stored unwrapped; wrap_angle is applied only at output time
    so trajectories stay free of artificial 2*pi jumps.
    """

    z: float
    theta: float = 0.0

    def __post_init__(self):
        if not abs(self.z) <= 1.0:
            raise DomainError(f"|z| must be <= 1, got z={self.z}")
        if not _finite(self.theta):
            raise DomainError(f"theta must be finite, got {self.theta}")


@dataclass(frozen=True)
class PhysicalContext:
    """Physical scales of the underlying double-well problem.

    omega: half the splitting between the even/odd doublet levels (> 0).
    Omega: mean of the two levels; only shifts the energy scale.
    c, g: overlap constant and bare coupling; eta = c * g / omega.
    """

    omega: float = 1.0
    Omega: float = 0.0
    c: float = 1.0
    g: float = 0.0

    def __post_init__(self):
        for name in ("omega", "Omega", "c", "g"):
            value = getattr(self, name)
            if not _finite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if not self.omega > 0:
            raise DomainError(f"level splitting omega must be > 0, got {self.omega}")


@dataclass(frozen=True)
class EtaSchedule:
    """Time-dependent effective coupling eta(tau) on [0, T].

    kinds:
      constant    eta(tau) = eta_start
      triangular  linear ramp eta_start -> eta_peak -> eta_start
    """

    kind: str
    eta_start: float = 0.0
    eta_peak: Optional[float] = None
    T: float = 1.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise DomainError(
                f"schedule kind must be one of {SCHEDULE_KINDS}, got {self.kind!r}")
        if not (_finite(self.T) and self.T > 0):
            raise DomainError(
                f"schedule duration T must be finite and > 0, got {self.T}")
        if not _finite(self.eta_start):
            raise DomainError(
                f"eta_start must be finite, got {self.eta_start}")
        if self.eta_peak is not None and not _finite(self.eta_peak):
            raise DomainError(f"eta_peak must be finite, got {self.eta_peak}")
        if self.kind == "triangular":
            if self.eta_peak is None:
                raise DomainError("triangular schedule requires eta_peak")
            self.ramp  # raises DomainError unless its rate is finite

    @property
    def tau_slack(self) -> float:
        """How far outside [0, T] a tau may lie and still count as inside
        the schedule, 1e-9 max(1, T): room for the rounding of stage and
        sample times produced by summation."""
        return 1e-9 * max(1.0, self.T)

    @property
    def ramp(self) -> tuple:
        """(e0, half, T, rate) of the triangular kind, the one definition
        of its ramp: eta(tau) = e0 + rate x, x the time from the nearer
        end, with half = T / 2 and rate = (eta_peak - e0) / half.

        A DomainError where the rate is not finite: half underflows to
        zero, or the quotient or the difference overflows.
        """
        e0, half = self.eta_start, 0.5 * self.T
        rate = (self.eta_peak - e0) / half if half else math.nan
        if not math.isfinite(rate):
            raise DomainError(
                f"triangular ramp rate (eta_peak - eta_start) / (T / 2) "
                f"must be finite, got {rate} for eta_start={e0}, "
                f"eta_peak={self.eta_peak}, T={self.T}")
        return e0, half, self.T, rate


class Sample(NamedTuple):
    tau: float
    z: float
    theta: float
    eta: float
    H: float
    E: float


@dataclass(frozen=True)
class IntegrationStats:
    """Work done by one integration.

    rhs_evals counts right-hand-side evaluations, including those spent
    on rejected steps and on interpolating samples. accepted and
    rejected count the DOP853 step attempts judged by the error control,
    stiff_steps and stiff_rejected the RODAS3 ones. boundary_halvings
    counts the step halvings forced by a stage leaving
    |z| <= 1 - EPS_CLAMP. jacobian_evals counts the closed-form
    Jacobians: the stiffness tests after damped DOP853 steps shorter than
    0.5, and one per state a RODAS3 step starts from. attempts counts the
    step attempts of both steppers, the number the step budget bounds:
    accepted + rejected + stiff_steps + stiff_rejected +
    boundary_halvings plus the trajectory's clamp_events.
    zero_error_denominators counts the DOP853 steps whose error norm's
    denominator underflowed to zero and which were judged error-free.
    """

    rhs_evals: int = 0
    accepted: int = 0
    rejected: int = 0
    boundary_halvings: int = 0
    stiff_steps: int = 0
    stiff_rejected: int = 0
    jacobian_evals: int = 0
    attempts: int = 0
    zero_error_denominators: int = 0


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Samples of one integration as float64 columns, plus its inputs.

    tau, z, theta, eta, H and E are equal-length read-only arrays, row k
    holding sample k, every value finite; samples rebuilds the rows as
    Sample tuples.
    clamp_events counts the times the integrator had to clamp z at the
    configured boundary margin; zero on a healthy run. stats records the
    integrator's work; all zeros for a trajectory read back from CSV.
    """

    tau: np.ndarray
    z: np.ndarray
    theta: np.ndarray
    eta: np.ndarray
    H: np.ndarray
    E: np.ndarray
    params: ModelParams
    schedule: EtaSchedule
    clamp_events: int = 0
    stats: IntegrationStats = IntegrationStats()

    def __post_init__(self):
        for name in Sample._fields:
            col = np.array(getattr(self, name), dtype=np.float64)
            if col.shape != (len(self.tau),):
                raise DomainError(
                    f"trajectory column {name} must be 1-d with one value "
                    f"per tau, got shape {col.shape}")
            if not np.all(np.isfinite(col)):
                raise DomainError(f"trajectory column {name} must be finite")
            col.setflags(write=False)
            object.__setattr__(self, name, col)
        if not np.all(self.tau[1:] > self.tau[:-1]):
            raise DomainError("trajectory tau values must be strictly increasing")
        if not np.all(np.abs(self.z) <= 1.0):
            raise DomainError("trajectory contains |z| > 1")

    @property
    def samples(self) -> tuple:
        """The rows as Sample tuples, built from the columns on each access."""
        return tuple(map(Sample, *(getattr(self, name).tolist()
                                   for name in Sample._fields)))

    @property
    def final_state(self) -> PhaseState:
        if not len(self.tau):
            raise DomainError("trajectory has no samples, so no final state")
        return PhaseState(z=float(self.z[-1]), theta=float(self.theta[-1]))


def power_difference(z, r: float):
    """(1+z)^r - (1-z)^r, accurate at every magnitude of z.

    The naive two-pow form loses all significance for |z| below machine
    epsilon, which silently decouples the nonlinearity from near-symmetric
    states. Rewriting with the identity
        (1+z)^r - (1-z)^r = (1-z)^r * expm1(2 r atanh(z))
    keeps full relative accuracy down to the smallest normal numbers.
    Where expm1(x), x = 2 r atanh|z|, would overflow (x above 709.78;
    the array branch switches at 709), (1-z)^r is less than e^-709 times
    (1+z)^r, far below an ulp, so the difference is (1+z)^r itself.
    Exactly odd in z by construction.

    z may be a float (computed with the math module) or a numpy array
    (the same identity in numpy, elementwise; numpy's exp, log1p and
    friends may differ from the math module's by an ulp).
    """
    check_power(r)
    if isinstance(z, np.ndarray):
        a = np.abs(z)
        # not max >= 1.0, which a NaN passes
        if not a.max(initial=0.0) < 1.0:
            raise DomainError("power_difference requires |z| < 1")
        x = 2.0 * r * np.arctanh(a)
        big = x > 709.0
        # asarray: a 0-d z gives numpy scalars, which take no assignment
        val = np.asarray(np.exp(r * np.log1p(-a)) * np.expm1(np.minimum(x, 709.0)))
        val[big] = np.exp(r * np.log1p(a[big]))
        return np.where(z < 0, -val, val)
    a = abs(z)
    if a == 0.0:
        return 0.0
    if not a < 1.0:
        raise DomainError(f"power_difference requires |z| < 1, got {z}")
    val = _power_difference(a, r)
    return val if z > 0 else -val


def _power_difference(a, r):
    """power_difference's float form for 0 < a < 1, unchecked."""
    try:
        return math.exp(r * math.log1p(-a)) * math.expm1(2.0 * r * math.atanh(a))
    except OverflowError:
        return math.exp(r * math.log1p(a))


def hamiltonian(state: PhaseState, eta: float, r: float) -> float:
    """Conserved energy function of the undamped flow: hamiltonian_column
    on one row.

    Finite on the whole closed strip |z| <= 1 for a finite eta; a
    non-finite eta is refused. Even in z and in theta.
    """
    check_eta(eta)
    return float(hamiltonian_column(np.array([state.z]),
                                    np.array([state.theta]), eta, r)[0])


def hamiltonian_column(z, theta, eta, r: float) -> np.ndarray:
    """H at every row of the arrays z, theta and eta.

    The powers go through Python's float ** over z.tolist(): numpy's
    vectorized pow differs from the C library's by an ulp on a few
    percent of inputs, which would move the 15th digit of written H.
    """
    check_power(r)
    p = r + 1.0
    # (1+z) and (1-z) are both >= 0 here, so real powers are safe
    bulk = np.array([(1.0 + x) ** p + (1.0 - x) ** p for x in z.tolist()])
    kinetic = 2.0 * np.sqrt(1.0 - z * z) * np.cos(theta)
    return kinetic - eta * bulk / (2.0 ** r * (r + 1.0))


def dh_dz(z, cos_theta, eta, r: float):
    """dH/dz = -2 z cos(theta) / sqrt(1 - z^2) - eta P / 2^r.

    P = (1+z)^r - (1-z)^r is power_difference. z, cos_theta and eta may
    be floats or numpy arrays of one shape. The derivative is singular at
    |z| = 1; evaluation is refused with SingularityError within EPS_CLAMP
    of the boundary, and with DomainError for a non-finite eta or a NaN
    z.
    """
    check_power(r)
    check_eta(eta)
    if np.any(abs(z) >= 1.0 - EPS_CLAMP):
        raise SingularityError(f"dH/dz is singular at |z|=1; got z={z}")
    s = np.sqrt(1.0 - z * z)
    return -2.0 * z * cos_theta / s - eta / (2.0 ** r) * power_difference(z, r)


def grad_hamiltonian(state: PhaseState, eta: float, r: float) -> tuple:
    """(dH/dz, dH/dtheta) in closed form, dH/dz from dh_dz.

    Refused with SingularityError within EPS_CLAMP of |z| = 1 and with
    DomainError for a non-finite eta.
    """
    z, theta = state.z, state.theta
    dh_dtheta = -2.0 * math.sqrt(1.0 - z * z) * math.sin(theta)
    return float(dh_dz(z, math.cos(theta), eta, r)), dh_dtheta


def energy_functional(H: float, ctx: PhysicalContext) -> float:
    """Physical energy E = Omega - omega * H / 2 of a two-mode state."""
    return ctx.Omega - 0.5 * ctx.omega * H


def effective_eta(ctx: PhysicalContext) -> float:
    """Dimensionless coupling eta = c * g / omega."""
    return ctx.c * ctx.g / ctx.omega


def eval_schedule(schedule: EtaSchedule, tau: float) -> float:
    """eta(tau) for either schedule kind: schedule_column at one tau."""
    return float(schedule_column(schedule, tau))


def schedule_column(schedule: EtaSchedule, taus) -> np.ndarray:
    """eta(tau) at every tau of an array; each tau must lie in [0, T].

    Bitwise the coupling the integrator's kernels use: e0 + rate x with
    x = tau up to half and T - tau after it, clamped at 0, from
    EtaSchedule.ramp and with the kernels' operations (numpy's
    elementwise + and * round as Python's floats do). A tau up to
    EtaSchedule.tau_slack outside [0, T] is tolerated, so that
    integrator stage times produced by summation never trip the check;
    the ramp is constant past either end.
    """
    taus = np.asarray(taus, dtype=np.float64)
    T, slack = schedule.T, schedule.tau_slack
    if taus.size and not (taus.min() >= -slack and taus.max() <= T + slack):
        raise DomainError(f"tau values outside schedule domain [0, {T}]")
    if schedule.kind == "constant":
        return np.full(taus.shape, schedule.eta_start)
    e0, half, T, rate = schedule.ramp
    x = np.where(taus <= half, taus, T - taus)
    return e0 + rate * np.where(x > 0.0, x, 0.0)


def amplitudes_from_state(state: PhaseState) -> tuple:
    """Occupation amplitudes (p, q) with p^2 + q^2 = 1 and p^2 - q^2 = z."""
    p = math.sqrt((1.0 + state.z) / 2.0)
    q = math.sqrt((1.0 - state.z) / 2.0)
    return p, q


def wrap_angle(theta):
    """Map an unwrapped phase to (-pi, pi] for display and serialization.

    theta may be a float or a numpy array (elementwise, bit for bit the
    float form). fmod is exact, and so is the one correction by tau:
    by Sterbenz's lemma for w - tau with w in (pi, tau) and for w + tau
    with w in (-tau, -pi]. A non-finite theta is refused.
    """
    if not _finite(theta):
        raise DomainError(f"wrap_angle needs a finite theta, got {theta}")
    w = np.fmod(theta, math.tau)
    w = np.where(w > math.pi, w - math.tau, w)
    w = np.where(w <= -math.pi, w + math.tau, w)
    return w if isinstance(theta, np.ndarray) else float(w)
