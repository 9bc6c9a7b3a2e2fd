"""Integrator behavior: field values, conservation, control, protocol runs."""

import ast
import functools
import hashlib
import math
import os
import random
import struct
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimer_hysteresis import (SCHEDULE_KINDS, DomainError, EtaSchedule,
                              IntegratorConfig, ModelParams, PhaseState,
                              PhysicalContext, SingularityError,
                              StepFailureError, bifurcation, dynamics,
                              energy_functional, eval_schedule,
                              find_fixed_points, grad_hamiltonian,
                              hamiltonian, integrate, model, tableau,
                              vector_field)
import kernel_oracles

PROTOCOL = IntegratorConfig()  # DOP853, 1e-9 tolerances


def triangular(start, peak, T=4000.0):
    return EtaSchedule(kind="triangular", eta_start=start, eta_peak=peak, T=T)


def eta_by_formula(schedule, tau):
    """The ramp's shape by another formula, start + (peak - start)(1 -
    |2 tau/T - 1|): the eta column's former formula, which rounds
    differently from the kernels' e0 + rate x."""
    T = schedule.T
    tau = min(max(tau, 0.0), T)
    if schedule.kind == "constant":
        return schedule.eta_start
    ramp = 1.0 - abs(2.0 * tau / T - 1.0)
    return schedule.eta_start + (schedule.eta_peak - schedule.eta_start) * ramp


def hamiltonian_by_formula(z, theta, eta, r):
    """The former scalar hamiltonian: the oracle for the H column."""
    kinetic = 2.0 * math.sqrt(1.0 - z * z) * math.cos(theta)
    bulk = (1.0 + z) ** (r + 1.0) + (1.0 - z) ** (r + 1.0)
    return kinetic - eta * bulk / (2.0 ** r * (r + 1.0))


class TestVectorField:
    def test_symmetric_point_is_stationary(self):
        for nu in (0.0, 0.5):
            for eta in (0.0, -3.0):
                out = vector_field(PhaseState(z=0.0, theta=0.0), eta,
                                   ModelParams(r=2.0, nu=nu))
                assert out == (0.0, 0.0)

    def test_pure_phase_drive(self):
        out = vector_field(PhaseState(z=0.0, theta=math.pi / 2), 0.0,
                           ModelParams(r=1.0, nu=0.0))
        assert out[0] == pytest.approx(2.0)
        assert out[1] == pytest.approx(0.0, abs=1e-15)

    def test_damping_inactive_where_gradient_vanishes(self):
        out = vector_field(PhaseState(z=0.0, theta=math.pi / 2), 0.0,
                           ModelParams(r=1.0, nu=0.5))
        assert out[0] == pytest.approx(2.0)
        assert out[1] == pytest.approx(0.0, abs=1e-15)

    def test_hamiltonian_mode_matches_gradient(self):
        state = PhaseState(z=0.4, theta=1.1)
        eta, r, nu = -2.5, 3.0, 0.3
        dz, dtheta = vector_field(state, eta, ModelParams(r=r, nu=nu))
        gz, gt = grad_hamiltonian(state, eta, r)
        assert dtheta == pytest.approx(gz, rel=1e-14)
        assert dz == pytest.approx(-gt + nu * gz, rel=1e-14)

    @pytest.mark.parametrize("eta", (math.nan, math.inf, -math.inf))
    def test_non_finite_coupling_is_refused(self, eta):
        with pytest.raises(DomainError, match="eta must be finite"):
            vector_field(PhaseState(z=0.3), eta, ModelParams(r=1.0))

    def test_inline_power_difference_is_the_model_kernel(self):
        # the flow's one text, which make_field's closure and the kernels
        # are compiled from, inlines model.power_difference for speed; its
        # phase equation must equal grad_hamiltonian's dH/dz, which calls
        # the model kernel with the same surrounding arithmetic, bit for
        # bit.
        # With eta = -2^r the difference enters with weight exactly 1.
        # Powers from 34 on take the kernel's overflow-free branch at
        # the z closest to the boundary.
        zs = (0.0, 5e-324, -5e-324, 1e-300, -1e-18, 1e-18, -1e-9, 3e-5,
              -0.3, 0.3, -0.999, 0.999, -0.9999999985, 0.9999999985)
        for r in (0.3, 1.0, 2.5, 5.0, 34.0, 100.0, 200.0):
            field = dynamics.make_field(ModelParams(r=r))
            for eta in (-(2.0 ** r), -2.5, 3.0):
                for theta in (0.0, math.pi / 2, 1.1):
                    for z in zs:
                        gz = grad_hamiltonian(PhaseState(z=z, theta=theta),
                                              eta, r)[0]
                        assert field(z, theta, eta)[1] == gz, (r, eta, z)

    def test_singular_near_boundary(self):
        with pytest.raises(SingularityError):
            vector_field(PhaseState(z=1.0 - 1e-12, theta=0.0), -1.0,
                         ModelParams(r=1.0))


class TestConservation:
    def test_undamped_constant_coupling_conserves_H(self):
        sched = EtaSchedule(kind="constant", eta_start=-6.0, T=200.0)
        traj = integrate(PhaseState(z=0.3, theta=0.7), ModelParams(r=5.0),
                         sched, IntegratorConfig(abs_tol=1e-10, rel_tol=1e-10),
                         (0.0, 200.0))
        hs = [s.H for s in traj.samples]
        assert max(abs(h - hs[0]) for h in hs) <= 1e-8

    def test_damping_relaxes_H_monotonically(self):
        # nu > 0 climbs H onto the interior maximum at the stable state
        sched = EtaSchedule(kind="constant", eta_start=-1.0, T=200.0)
        traj = integrate(PhaseState(z=0.3, theta=0.7),
                         ModelParams(r=1.0, nu=0.5), sched, PROTOCOL,
                         (0.0, 200.0))
        hs = [s.H for s in traj.samples]
        tail = hs[len(hs) // 2:]
        assert all(b >= a - 1e-12 for a, b in zip(tail, tail[1:]))
        # H at the symmetric fixed point: 2 - eta * 2 / (2^r (r+1))
        assert tail[-1] == pytest.approx(2.5, abs=1e-9)


class TestStepControl:
    def test_deterministic_replay(self):
        sched = triangular(-3.0, -8.0, T=100.0)
        runs = [integrate(PhaseState(z=0.01, theta=0.0),
                          ModelParams(r=5.0, nu=0.5), sched, PROTOCOL,
                          (0.0, 100.0)) for _ in range(2)]
        assert runs[0].samples == runs[1].samples

    def test_sampling_grid(self):
        sched = EtaSchedule(kind="constant", eta_start=-1.0, T=5.0)
        traj = integrate(PhaseState(z=0.1, theta=0.0), ModelParams(r=1.0),
                         sched, IntegratorConfig(sample_stride=4), (0.0, 5.0))
        taus = [s.tau for s in traj.samples]
        assert len(taus) == 21
        assert taus[0] == 0.0
        assert taus[-1] == pytest.approx(5.0, abs=1e-9)
        spacings = [b - a for a, b in zip(taus, taus[1:])]
        assert all(s == pytest.approx(0.25, abs=1e-9) for s in spacings)

    def test_sample_grid_is_exact_over_long_runs(self):
        # sample k sits at k / stride, so the clock cannot drift into an
        # extra sample just before T; the fixed point keeps the run cheap
        sched = EtaSchedule(kind="constant", eta_start=-1.0, T=4000.0)
        traj = integrate(PhaseState(z=0.0, theta=0.0), ModelParams(r=1.0),
                         sched, IntegratorConfig(sample_stride=10),
                         (0.0, 4000.0))
        taus = [s.tau for s in traj.samples]
        assert len(taus) == 40001
        assert taus[0] == 0.0 and taus[-1] == 4000.0
        assert all(abs(b - a - 0.1) <= 1e-12 for a, b in zip(taus, taus[1:]))

    def test_partial_last_interval_ends_at_span_end(self):
        sched = EtaSchedule(kind="constant", eta_start=-1.0, T=5.0)
        traj = integrate(PhaseState(z=0.1, theta=0.0), ModelParams(r=1.0),
                         sched, IntegratorConfig(sample_stride=2), (0.0, 4.7))
        taus = [s.tau for s in traj.samples]
        assert taus == [k / 2 for k in range(10)] + [4.7]

    def test_rejects_span_outside_schedule(self):
        sched = EtaSchedule(kind="constant", eta_start=-1.0, T=5.0)
        with pytest.raises(DomainError):
            integrate(PhaseState(z=0.1), ModelParams(r=1.0), sched, PROTOCOL,
                      (0.0, 6.0))

    @pytest.mark.parametrize("T", [0.5, 5.0])
    def test_span_may_pass_the_schedule_by_its_tau_slack(self, T):
        sched = EtaSchedule(kind="constant", eta_start=-1.0, T=T)
        slack = sched.tau_slack
        traj = integrate(PhaseState(z=0.1), ModelParams(r=1.0), sched,
                         PROTOCOL, (-slack, T + slack))
        assert traj.tau[0] == -slack and traj.tau[-1] == T + slack
        for span in ((math.nextafter(-slack, -1.0), T),
                     (0.0, math.nextafter(T + slack, math.inf))):
            with pytest.raises(DomainError, match="must be increasing"):
                integrate(PhaseState(z=0.1), ModelParams(r=1.0), sched,
                          PROTOCOL, span)

    def test_rejects_initial_state_at_boundary(self):
        sched = EtaSchedule(kind="constant", eta_start=-1.0, T=5.0)
        with pytest.raises(SingularityError):
            integrate(PhaseState(z=1.0), ModelParams(r=1.0), sched, PROTOCOL,
                      (0.0, 5.0))


class TestProtocolRuns:
    def test_exact_fixed_point_stays_put(self):
        sched = EtaSchedule(kind="constant", eta_start=-2.0, T=50.0)
        traj = integrate(PhaseState(z=0.0, theta=0.0), ModelParams(r=3.0),
                         sched, PROTOCOL, (0.0, 50.0))
        assert all(s.z == 0.0 and s.theta == 0.0 for s in traj.samples)

    def test_supercritical_ramp_returns_to_symmetric(self):
        traj = integrate(PhaseState(z=0.01, theta=0.0),
                         ModelParams(r=1.0, nu=0.5), triangular(-1.0, -3.0),
                         PROTOCOL, (0.0, 4000.0))
        assert abs(traj.final_state.z) < 0.05
        assert traj.clamp_events == 0

    def test_subcritical_ramp_holds_asymmetric_state_on_backsweep(self):
        traj = integrate(PhaseState(z=0.01, theta=0.0),
                         ModelParams(r=5.0, nu=0.5), triangular(-3.0, -8.0),
                         PROTOCOL, (0.0, 4000.0))
        # while the coupling magnitude sits strictly inside the window
        # (eta_plus, eta_star) on the way back, the state stays trapped
        back_window = [s for s in traj.samples
                       if s.tau > 2000.0 and 4.42 < abs(s.eta) < 6.38]
        assert back_window, "back sweep never crossed the window"
        assert all(abs(s.z) > 0.5 for s in back_window)


class TestColumns:
    @pytest.mark.parametrize("schedule", [
        triangular(-3.0, -8.0, T=400.0),
        EtaSchedule(kind="constant", eta_start=-6.0, T=400.0),
    ])
    def test_columns_match_the_scalar_model_functions(self, schedule):
        # the columns and their one-row forms bit for bit against the
        # coupling the run integrated, its eta_at, and H in plain math at
        # it; E in the default context. The ramp's shape by the other
        # formula agrees within 4 ulps, a bound fixed before measuring.
        params = ModelParams(r=5.0, nu=0.5)
        traj = integrate(PhaseState(z=0.01, theta=0.0), params, schedule,
                         IntegratorConfig(sample_stride=10),
                         (0.0, schedule.T))
        rows = list(zip(traj.tau.tolist(), traj.z.tolist(),
                        traj.theta.tolist()))
        eta_at = dynamics._kernels(params, schedule)[1]
        eta = [eta_at(t) for t, _, _ in rows]
        H = [hamiltonian_by_formula(z, theta, e, 5.0)
             for (_, z, theta), e in zip(rows, eta)]
        assert len(eta) == 4001
        assert traj.eta.tolist() == eta
        assert all(abs(eta_by_formula(schedule, t) - e) <= 4 * math.ulp(e)
                   for (t, _, _), e in zip(rows, eta))
        assert traj.H.tolist() == H
        assert traj.E.tolist() == [energy_functional(h, PhysicalContext())
                                   for h in H]
        assert [eval_schedule(schedule, t) for t, _, _ in rows] == eta
        assert [hamiltonian(PhaseState(z=z, theta=theta), e, 5.0)
                for (_, z, theta), e in zip(rows, eta)] == H

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(SCHEDULE_KINDS),
           e0=st.one_of(st.just(-0.0), st.floats(-1e100, 1e100)),
           peak=st.floats(-1e100, 1e100), T=st.floats(1e-100, 1e100),
           data=st.data())
    def test_schedule_column_is_the_kernels_coupling(self, kind, e0, peak,
                                                     T, data):
        # bit for bit at the ends, the corner and its neighbours, inside
        # the 1e-9 max(1, T) slack past either end, and inside
        schedule = EtaSchedule(kind=kind, eta_start=e0, eta_peak=peak, T=T)
        half, slack = 0.5 * T, 1e-9 * max(1.0, T)
        taus = [0.0, half, math.nextafter(half, 0.0),
                math.nextafter(half, T), T, -slack, T + slack]
        taus += data.draw(st.lists(st.one_of(
            st.floats(-slack, 0.0), st.floats(T, T + slack),
            st.floats(0.0, T)), max_size=20))
        eta_at = dynamics._kernels(ModelParams(r=5.0), schedule)[1]
        column = model.schedule_column(schedule, taus)
        assert column.view(np.int64).tolist() == \
            np.array([eta_at(t) for t in taus]).view(np.int64).tolist()
        assert [model.eval_schedule(schedule, t) for t in taus[:5]] == \
            column[:5].tolist()

    def test_eta_column_of_a_mid_ramp_span_is_the_kernels_coupling(self):
        # a span from T/4 to 3T/4, with a sample on the corner T/2
        params, schedule = ModelParams(r=5.0, nu=0.5), triangular(
            -3.0, -8.0, T=400.0)
        traj = integrate(PhaseState(z=0.01, theta=0.0), params, schedule,
                         IntegratorConfig(sample_stride=10), (100.0, 300.0))
        assert 200.0 in traj.tau.tolist()
        eta_at = dynamics._kernels(params, schedule)[1]
        assert traj.eta.view(np.int64).tolist() == np.array(
            [eta_at(t) for t in traj.tau.tolist()]).view(np.int64).tolist()


# the step and tolerances must be finite and > 0, sample_stride an
# integer >= 1
BAD_SETTINGS = [
    *((name, value) for name in ("dt", "abs_tol", "rel_tol")
      for value in (math.nan, math.inf, 0.0, -1.0)),
    *(("sample_stride", value) for value in (math.nan, math.inf, 2.5, 0)),
]


class TestConfigValidation:
    @pytest.mark.parametrize("name, value", [
        pytest.param(name, value, id=f"{value}-{name}")
        for name, value in BAD_SETTINGS])
    def test_step_and_tolerances_must_be_finite_and_positive(self, name,
                                                             value):
        with pytest.raises(DomainError):
            IntegratorConfig(**{name: value})


def on_loop_kernels(monkeypatch, make):
    """Runs integrate on the closure-calling loop kernels of
    kernel_oracles, over the field make(params) builds: the kernels with
    the flow written in call no field that a test could replace."""
    monkeypatch.setattr(dynamics, "_kernels", lambda params, schedule:
                        kernel_oracles.kernels_by_loop(make(params), schedule))


@pytest.fixture
def nan_field(monkeypatch):
    def make_nan_field(params):
        def field(z, theta, eta):
            return math.nan, math.nan
        return field

    on_loop_kernels(monkeypatch, make_nan_field)


@pytest.fixture
def outward_field(monkeypatch):
    # drives |z| -> 1, where the phase equation is singular; the list
    # records the z of every evaluation
    zs = []

    def make_outward_field(params):
        def field(z, theta, eta):
            zs.append(z)
            return math.copysign(1.0, z), 0.0
        return field

    on_loop_kernels(monkeypatch, make_outward_field)
    return zs


class TestTermination:
    @pytest.mark.parametrize("T, stride", [(1e306, 1), (1e306, 1000),
                                           (1.7e308, 1)])
    def test_spans_too_long_to_count_are_refused_before_any_work(
            self, monkeypatch, T, stride):
        # 1000 T overflows the step budget, stride T the sample count
        def no_kernels(*args):
            raise AssertionError("kernels built for a refused span")

        monkeypatch.setattr(dynamics, "_kernels", no_kernels)
        sched = EtaSchedule(kind="constant", eta_start=-1.0, T=T)
        with pytest.raises(DomainError, match=r"tau_span \(0\.0, .*too long"):
            integrate(PhaseState(z=0.1, theta=0.0), ModelParams(r=1.0),
                      sched, IntegratorConfig(sample_stride=stride), (0.0, T))

    @pytest.mark.parametrize("T, stride, refused", [
        (1e12, 1, True), (1e5, 101, True),
        (dynamics._MAX_SAMPLES, 1, False), (dynamics._MAX_SAMPLES + 1, 1, True)])
    def test_spans_with_too_many_samples_are_refused_before_any_work(
            self, monkeypatch, T, stride, refused):
        # finite budgets that would run for hours and fill memory; the
        # limit itself passes on to the kernels
        class Built(Exception):
            pass

        def built(*args):
            raise Built

        monkeypatch.setattr(dynamics, "_kernels", built)
        sched = EtaSchedule(kind="constant", eta_start=-1.0, T=float(T))
        with (pytest.raises(DomainError, match="samples past the first")
              if refused else pytest.raises(Built)):
            integrate(PhaseState(z=0.1, theta=0.0), ModelParams(r=1.0), sched,
                      IntegratorConfig(sample_stride=stride), (0.0, float(T)))

    def test_nan_field_raises_step_failure(self, nan_field):
        sched = EtaSchedule(kind="constant", eta_start=-1.0, T=10.0)
        with pytest.raises(StepFailureError):
            integrate(PhaseState(z=0.1, theta=0.0), ModelParams(r=1.0),
                      sched, PROTOCOL, (0.0, 10.0))

    def test_damped_arrival_at_the_pole_is_a_singularity(self):
        # the damped flow reaches |z| = 1 in finite time; the step
        # underflows at z = 1 - 1.45e-8, inside the clamp margin
        sched = EtaSchedule(kind="constant", eta_start=-1.0, T=5.0)
        with pytest.raises(SingularityError,
                           match=r"reached the pole \|z\|=1 at tau=0\.10"
                                 r".*z=0\.99999998"):
            integrate(PhaseState(z=0.9, theta=1.5),
                      ModelParams(r=1.0, nu=0.5), sched, PROTOCOL,
                      (0.0, 5.0))

    def test_decay_below_the_square_underflow_ends(self):
        # the damped state decays onto z = 0 until both error estimates'
        # squares underflow; a zero norm denominator is zero error
        sched = EtaSchedule(kind="constant", eta_start=-1.0, T=2000.0)
        traj = integrate(PhaseState(z=0.01, theta=0.0),
                         ModelParams(r=1.0, nu=0.5), sched, PROTOCOL,
                         (0.0, 2000.0))
        assert traj.tau[-1] == 2000.0
        assert abs(traj.z[-1]) < 1e-160
        assert traj.stats.zero_error_denominators >= 1

    def test_flow_into_boundary_ends_in_package_error(self, outward_field,
                                                       monkeypatch):
        # stages past the margin halve the step down to _MIN_STEP, then
        # each clamp counts against _CLAMP_LIMIT
        sched = EtaSchedule(kind="constant", eta_start=-1.0, T=50.0)
        for limit in (dynamics._CLAMP_LIMIT, 3):
            monkeypatch.setattr(dynamics, "_CLAMP_LIMIT", limit)
            outward_field.clear()
            with pytest.raises(SingularityError,
                               match=f"more than {limit} times"):
                integrate(PhaseState(z=0.3, theta=0.7),
                          ModelParams(r=1.0, nu=0.5), sched, PROTOCOL,
                          (0.0, 50.0))
            # each clamp evaluates the field once, on the margin itself
            assert outward_field.count(1.0 - dynamics.EPS_CLAMP) == limit

    def test_step_budget_ends_the_stall_next_to_the_pole(self, monkeypatch):
        # next to |z| = 1 one ulp of z moves dtheta/dtau by about 1e-3, so
        # only steps too short to move z pass the error control
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 10_000)
        sched = EtaSchedule(kind="constant", eta_start=-1.0, T=1.0)
        with pytest.raises(StepFailureError,
                           match="more than 11000 step attempts at tau="):
            integrate(PhaseState(z=0.9999999985), ModelParams(r=1.0), sched,
                      PROTOCOL, (0.0, 1.0))

    def test_step_budget_grows_with_the_span(self, monkeypatch):
        args = (PhaseState(z=0.3, theta=0.7), ModelParams(r=5.0),
                EtaSchedule(kind="constant", eta_start=-6.0, T=200.0),
                PROTOCOL, (0.0, 200.0))
        traj = integrate(*args)
        st_ = traj.stats
        attempts = st_.accepted + st_.rejected + st_.boundary_halvings
        assert st_.attempts == attempts
        assert st_.attempts <= dynamics._MAX_STEPS \
            + dynamics._MAX_STEPS_PER_TAU * 200
        per_tau = attempts // 200
        assert per_tau >= 10  # far more than the floor patched in below

        def run(floor, per_unit_tau):
            monkeypatch.setattr(dynamics, "_MAX_STEPS", floor)
            monkeypatch.setattr(dynamics, "_MAX_STEPS_PER_TAU", per_unit_tau)
            return integrate(*args)

        # the allowance per unit tau carries a long run the floor cannot
        assert run(100, per_tau + 1).z.tobytes() == traj.z.tobytes()
        with pytest.raises(StepFailureError, match="step attempts"):
            run(100, per_tau - 1)
        # a run that ends on its last allowed attempt returns
        assert run(attempts, 0).stats == st_
        with pytest.raises(StepFailureError,
                           match=f"more than {attempts - 1} step attempts"):
            run(attempts - 1, 0)

    @settings(max_examples=50, deadline=None)
    @given(r=st.floats(1.0, 8.0), nu=st.floats(0.01, 1.0),
           eta_start=st.floats(-10.0, 10.0), eta_peak=st.floats(-10.0, 10.0),
           T=st.floats(1.0, 400.0), z0=st.floats(-1.0, 1.0),
           theta0=st.floats(-math.pi, math.pi))
    @example(r=5.0, nu=0.5, eta_start=-8.0, eta_peak=-3.0, T=400.0, z0=0.95,
             theta0=0.1)
    @example(r=1.0, nu=0.5, eta_start=-1.0, eta_peak=-1.0, T=1.0,
             z0=0.9999999985, theta0=0.0)
    def test_damped_ramps_end_within_the_budget(self, r, nu, eta_start,
                                                eta_peak, T, z0, theta0):
        # bounded by the step budget, not by a clock: each run returns or
        # raises one of the package's errors
        sched = triangular(eta_start, eta_peak, T=T)
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dynamics, "_MAX_STEPS", 10_000)
                patch.setattr(dynamics, "_MAX_STEPS_PER_TAU", 25)
                traj = integrate(PhaseState(z=z0, theta=theta0),
                                 ModelParams(r=r, nu=nu), sched, PROTOCOL,
                                 (0.0, T))
        except (SingularityError, StepFailureError):
            return
        assert traj.tau[-1] == T


STIFF = ModelParams(r=5.0, nu=0.5)
# next to the self-trapped state at eta = -8, where the damped flow's
# Jacobian has eigenvalues -44.2 and -1.08
NEAR_TRAPPED = PhaseState(z=0.95, theta=0.1)


def without_switch(monkeypatch, *args):
    """integrate(*args) on DOP853 alone."""
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_STIFF_RUN", math.inf)
        return integrate(*args)


@pytest.fixture
def once_stiff(monkeypatch):
    """Runs integrate on the loop kernels over a field that follows the
    model until the first RODAS3 step and the given field from then on;
    returns the count of RODAS3 steps tried."""
    tries = [0]

    def install(late):
        def kernels(params, schedule):
            field = dynamics.make_field(params)

            def switching(z, theta, eta):
                return (late if tries[0] else field)(z, theta, eta)

            *rest, rosenbrock = kernel_oracles.kernels_by_loop(switching,
                                                               schedule)

            def counted(*args):
                tries[0] += 1
                return rosenbrock(*args)
            return (*rest, counted)

        monkeypatch.setattr(dynamics, "_kernels", kernels)
        return tries
    return install


class TestStiffSteps:
    def test_reference_ramp_r5_against_dop853_alone(self, monkeypatch):
        args = (PhaseState(z=0.01, theta=0.0), STIFF, triangular(-3.0, -8.0),
                IntegratorConfig(sample_stride=10), (0.0, 4000.0))
        traj, alone = integrate(*args), without_switch(monkeypatch, *args)
        st_, ref = traj.stats, alone.stats
        assert st_.stiff_steps > 0 and ref.stiff_steps == 0
        assert st_.rhs_evals + st_.jacobian_evals <= 0.6 * ref.rhs_evals
        assert traj.tau.tobytes() == alone.tau.tobytes()
        assert np.abs(traj.z - alone.z).max() <= 1e-7
        assert np.abs(traj.theta - alone.theta).max() <= 1e-7

    def test_reference_ramp_r1_never_switches(self, monkeypatch):
        args = (PhaseState(z=0.01, theta=0.0), ModelParams(r=1.0, nu=0.5),
                triangular(-1.0, -3.0), IntegratorConfig(sample_stride=10),
                (0.0, 4000.0))
        traj, alone = integrate(*args), without_switch(monkeypatch, *args)
        assert traj.stats == alone.stats and traj.stats.stiff_steps == 0
        for name in ("tau", "z", "theta"):
            assert getattr(traj, name).tobytes() == \
                getattr(alone, name).tobytes()

    def test_undamped_runs_take_no_jacobian(self):
        traj = integrate(NEAR_TRAPPED, ModelParams(r=5.0),
                         EtaSchedule(kind="constant", eta_start=-8.0, T=50.0),
                         PROTOCOL, (0.0, 50.0))
        assert traj.stats.jacobian_evals == traj.stats.stiff_steps == 0

    def test_segment_on_the_self_trapped_branch_matches_radau(self):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        start = next(PhaseState(z=p.z_star, theta=p.theta_star)
                     for p in find_fixed_points(-8.0, 5.0) if p.z_star > 0.5)
        sched = triangular(-8.0, -7.0, T=100.0)
        traj = integrate(start, STIFF, sched,
                         IntegratorConfig(sample_stride=10), (0.0, 100.0))
        assert traj.stats.stiff_steps > 0

        def rhs(t, y):
            return vector_field(PhaseState(z=y[0], theta=y[1]),
                                eval_schedule(sched, min(t, sched.T)), STIFF)

        ref = solve_ivp(rhs, (0.0, 100.0), [start.z, start.theta],
                        method="Radau", rtol=1e-12, atol=1e-12,
                        t_eval=traj.tau)
        assert np.abs(traj.z - ref.y[0]).max() <= 1e-7
        assert np.abs(traj.theta - ref.y[1]).max() <= 1e-7

    @pytest.mark.parametrize("rate", [0.5, -0.5])
    def test_step_is_third_order_with_a_second_order_estimate(self, rate):
        # local error ~ h^4 needs the exact Jacobian and df/dtau; the
        # estimate, the gap to the embedded solution, goes as h^3
        # on the ramp's first half eta = -6 + rate * tau
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        r, nu, eta0, z, theta = STIFF.r, STIFF.nu, -6.0, 0.3, 0.7
        field, eta_at, rate_at, *_, rosenbrock = dynamics._kernels(
            STIFF, triangular(eta0, eta0 + 5.0 * rate, T=10.0))
        assert rate_at(0.0) == rate

        jac = bifurcation._jacobian(z, theta, eta0, r, nu)
        q = -model.power_difference(z, r) / 2.0 ** r * rate
        fz, ft = field(z, theta, eta0)
        errors, estimates = [], []
        for h in (0.02, 0.01, 0.005):
            # at abs_tol 1 and rel_tol 0 the error is max(|ez|, |et|);
            # two new stages and the derivative at the end
            evals, err, _, zn, tn, fzn, ftn, _ = rosenbrock(
                0.0, h, z, theta, fz, ft, h, jac, nu * q, q, ZMAX, 1.0, 0.0)
            assert evals == 3 and (fzn, ftn) == field(zn, tn, eta_at(h))
            ref = solve_ivp(lambda t, y: field(y[0], y[1], eta_at(t)),
                            (0.0, h), [z, theta], method="DOP853",
                            rtol=1e-13, atol=1e-14).y[:, -1]
            errors.append(max(abs(zn - ref[0]), abs(tn - ref[1])))
            estimates.append(err)
        for values, order in ((errors, 4.0), (estimates, 3.0)):
            for coarse, fine in zip(values, values[1:]):
                assert math.log2(coarse / fine) == pytest.approx(order,
                                                                 abs=0.3)

    def test_hermite_interpolant_reproduces_cubics(self):
        # p(x) = 1 - 2 x + 3 x^2 - 5 x^3 over a step of h = 0.5
        h = 0.5

        def p(x):
            return 1.0 - 2.0 * x + 3.0 * x * x - 5.0 * x ** 3

        def slope(x):  # dp/dtau
            return (-2.0 + 6.0 * x - 15.0 * x * x) / h

        c = dynamics._hermite(p(0.0), p(1.0), h * slope(0.0), h * slope(1.0))
        for x in (0.0, 0.1, 0.25, 0.5, 0.8, 1.0):
            assert dynamics._interpolate(c, x) == pytest.approx(p(x),
                                                                abs=1e-14)

    def test_counts(self):
        traj = integrate(NEAR_TRAPPED, STIFF,
                         EtaSchedule(kind="constant", eta_start=-8.0, T=50.0),
                         PROTOCOL, (0.0, 50.0))
        st_ = traj.stats
        assert st_.stiff_steps > 0 and st_.boundary_halvings == 0
        # 2 new stages per RODAS3 try and the end-point derivative per
        # accepted one; DOP853 as in test_dop853_counts
        extra = st_.rhs_evals - 1 - 12 * st_.accepted - 11 * st_.rejected \
            - 3 * st_.stiff_steps - 2 * st_.stiff_rejected
        assert extra % 3 == 0 and 0 <= extra <= 3 * 50
        # one Jacobian per state a RODAS3 step starts from, plus the
        # stiffness tests
        assert st_.stiff_steps <= st_.jacobian_evals \
            <= st_.accepted + st_.stiff_steps

    def test_outward_field_ends_in_clamps(self, once_stiff, monkeypatch):
        zs = []

        def outward(z, theta, eta):
            zs.append(z)
            return math.copysign(1.0, z), 0.0

        tries = once_stiff(outward)
        monkeypatch.setattr(dynamics, "_CLAMP_LIMIT", 5)
        with pytest.raises(SingularityError, match="more than 5 times"):
            integrate(NEAR_TRAPPED, STIFF,
                      EtaSchedule(kind="constant", eta_start=-8.0, T=50.0),
                      PROTOCOL, (0.0, 50.0))
        assert tries[0] > 0
        assert zs.count(ZMAX) == dynamics._CLAMP_LIMIT

    def test_nan_field_ends_in_step_failure(self, once_stiff):
        tries = once_stiff(lambda z, theta, eta: (math.nan, math.nan))
        with pytest.raises(StepFailureError, match="underflowed"):
            integrate(NEAR_TRAPPED, STIFF,
                      EtaSchedule(kind="constant", eta_start=-8.0, T=50.0),
                      PROTOCOL, (0.0, 50.0))
        assert tries[0] > 1


class TestStats:
    def test_dop853_counts(self):
        sched = EtaSchedule(kind="constant", eta_start=-6.0, T=50.0)
        traj = integrate(PhaseState(z=0.3, theta=0.7), ModelParams(r=5.0),
                         sched, PROTOCOL, (0.0, 50.0))
        st = traj.stats
        assert st.accepted > 0 and st.boundary_halvings == 0
        # 11 new stages per try, the end-point derivative per accepted
        # step, and 3 interpolation stages per step holding a sample
        extra = st.rhs_evals - 1 - 11 * (st.accepted + st.rejected) \
            - st.accepted
        assert extra % 3 == 0 and 0 <= extra <= 3 * 50
        assert st.rejected <= 0.2 * (st.accepted + st.rejected)

    def test_stride_changes_only_interpolation_work(self):
        sched = triangular(-3.0, -8.0, T=100.0)
        runs = [integrate(PhaseState(z=0.01, theta=0.0),
                          ModelParams(r=5.0, nu=0.5), sched,
                          IntegratorConfig(sample_stride=stride),
                          (0.0, 100.0)).stats for stride in (1, 10)]
        assert runs[0].accepted == runs[1].accepted
        assert runs[0].rejected == runs[1].rejected


class TestTableau:
    def test_dop853_matches_scipy(self):
        coeffs = pytest.importorskip(
            "scipy.integrate._ivp.dop853_coefficients")
        for i, (c, row) in enumerate(tableau.DOP853_STAGES, start=1):
            assert c == coeffs.C[i]
            assert list(row) == list(coeffs.A[i, :len(row)])
            assert not coeffs.A[i, len(row):].any()
        assert list(tableau.DOP853_B) == list(coeffs.B)
        assert list(tableau.DOP853_E5) == list(coeffs.E5[:12])
        assert list(tableau.DOP853_E3) == list(coeffs.E3[:12])
        assert coeffs.E5[12] == coeffs.E3[12] == 0.0
        for i, (c, row) in enumerate(tableau.DOP853_DENSE_STAGES, start=13):
            assert c == coeffs.C[i]
            assert list(row) == list(coeffs.A[i, :len(row)])
        for ours, theirs in zip(tableau.DOP853_D, coeffs.D, strict=True):
            assert list(ours) == list(theirs)

    @pytest.mark.parametrize("stages, b", [
        (tableau.DOP853_STAGES, tableau.DOP853_B)])
    def test_row_sums(self, stages, b):
        for c, row in stages:
            assert math.fsum(row) == pytest.approx(c, abs=1e-14)
        assert math.fsum(b) == pytest.approx(1.0, abs=1e-14)

    def test_rodas3_order_conditions(self):
        # back to the standard form (Hairer & Wanner II, section IV.7):
        # Gamma^-1 = I / gamma - C, alpha = A Gamma, b = m Gamma
        gamma, stages = tableau.RODAS3_GAMMA, tableau.RODAS3_STAGES
        n = len(stages)
        a, c = np.zeros((n, n)), np.zeros((n, n))
        for i, (_, _, a_i, c_i) in enumerate(stages):
            a[i, :len(a_i)], c[i, :len(c_i)] = a_i, c_i
        big_gamma = np.linalg.inv(np.eye(n) / gamma - c)
        alpha = a @ big_gamma
        beta = alpha + big_gamma
        lower = np.tril(beta, -1)
        nodes, beta_prime = alpha.sum(axis=1), lower.sum(axis=1)
        assert nodes == pytest.approx([s[0] for s in stages], abs=1e-15)
        assert big_gamma.sum(axis=1) == pytest.approx(
            [s[1] for s in stages], abs=1e-15)
        m, e = np.array(tableau.RODAS3_M), np.array(tableau.RODAS3_E)

        def defects(w):
            return [w.sum() - 1.0, w @ beta_prime - (0.5 - gamma),
                    w @ nodes ** 2 - 1.0 / 3.0,
                    w @ lower @ beta_prime - (1.0 / 6.0 - gamma + gamma ** 2)]

        assert max(map(abs, defects(m @ big_gamma))) < 1e-14
        embedded = defects((m - e) @ big_gamma)
        assert max(map(abs, embedded[:2])) < 1e-14
        assert max(map(abs, embedded[2:])) > 1e-3
        # L-stable: R(z) = 1 + z w (I - z beta)^-1 1 vanishes at infinity
        for w in (m @ big_gamma, (m - e) @ big_gamma):
            r_inf = 1.0 - w @ np.linalg.solve(beta, np.ones(n))
            assert r_inf == pytest.approx(0.0, abs=1e-14)


def scipy_reference(initial, params, schedule, t_end, t_eval=None):
    """The same equations solved by scipy's DOP853 at tight tolerance."""
    integrate_ivp = pytest.importorskip("scipy.integrate").solve_ivp

    def rhs(t, y):
        return vector_field(PhaseState(z=y[0], theta=y[1]),
                            eval_schedule(schedule, min(t, schedule.T)),
                            params)

    return integrate_ivp(rhs, (0.0, t_end), [initial.z, initial.theta],
                         method="DOP853", rtol=1e-13, atol=1e-13,
                         t_eval=t_eval)


class TestScipyOracle:
    @pytest.mark.parametrize("params, schedule", [
        (ModelParams(r=5.0, nu=0.0),
         EtaSchedule(kind="constant", eta_start=-6.0, T=30.0)),
        (ModelParams(r=5.0, nu=0.5), triangular(-3.0, -8.0, T=30.0)),
    ])
    def test_end_state(self, params, schedule):
        start = PhaseState(z=0.3, theta=0.7)
        ref = scipy_reference(start, params, schedule, schedule.T)
        end = integrate(start, params, schedule,
                        IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12),
                        (0.0, schedule.T)).samples[-1]
        assert end.tau == schedule.T
        assert abs(end.z - ref.y[0, -1]) <= 1e-9
        assert abs(end.theta - ref.y[1, -1]) <= 1e-9

    def test_interpolated_samples(self):
        start = PhaseState(z=0.3, theta=0.7)
        params = ModelParams(r=5.0, nu=0.5)
        schedule = triangular(-3.0, -8.0, T=20.0)
        traj = integrate(start, params, schedule,
                         IntegratorConfig(sample_stride=10), (0.0, 20.0))
        taus = [s.tau for s in traj.samples]
        ref = scipy_reference(start, params, schedule, 20.0, t_eval=taus)
        assert len(taus) == 201
        for s, z, theta in zip(traj.samples, ref.y[0], ref.y[1]):
            assert abs(s.z - z) <= 1e-7 and abs(s.theta - theta) <= 1e-7


ZMAX = 1.0 - dynamics.EPS_CLAMP


def bits(x):
    """x with every float packed into its 8 bytes, nested in tuples, so
    that equal means equal bit for bit (signed zeros and NaNs too)."""
    if isinstance(x, (tuple, list)):
        return tuple(bits(v) for v in x)
    if isinstance(x, float):
        return struct.pack("<d", x)
    return x


def dop853_record(t, h, z, theta, zn, tn, ks):
    """One DOP853 record of integrate, for sample 0 alone, as the rows of
    columns that dynamics._dop853_coefficients takes: ks is the record
    tail a step kernel returns with its flag dense set."""
    return np.array([[t, h, 0.0, 1.0, z, theta, zn, tn, *ks]]).T.copy()


# tolerances at which every step with finite stages is accepted
LOOSE = 1e300


def both_kernels(params, schedule, t, h, z, theta, zmax=ZMAX, tol=1e-9):
    """(eta_at(t), rate_at(t), eta_at(t + h)), then the results of the
    step kernel at abs_tol = rel_tol = tol and at LOOSE with its flag
    dense clear, then its results at tol and at LOOSE with the flag set
    and the interpolant's coefficients where the step at LOOSE is
    accepted (None where it is not), or the message of the
    SingularityError that an extra stage raises, then the results of the
    Rosenbrock kernel at tol and at LOOSE, bits packed: first for the
    generated kernels with the flow inline, the coefficients over numpy
    columns, then for the loop kernels calling make_field's closure at
    every stage, the coefficients from the former per-step floats."""
    runs = []
    r, nu = params.r, params.nu
    for generated, (field, eta_at, rate_at, step, rosenbrock) in (
            (True, dynamics._kernels(params, schedule)),
            (False, kernel_oracles.kernels_by_loop(
                dynamics.make_field(params), schedule))):
        fz, ft = field(z, theta, eta_at(t))
        steps = [step(t, h, z, theta, fz, ft, t + h, zmax, x, x, False)
                 for x in (tol, LOOSE)]
        try:
            dense = [step(t, h, z, theta, fz, ft, t + h, zmax, x, x, True)
                     for x in (tol, LOOSE)]
        except SingularityError as exc:
            interpolant = str(exc)
        else:
            _, err, _, zn, tn, fzn, ftn, ks = dense[1]
            coefficients = None
            if err is not None and err <= 1.0:
                if generated:
                    coefficients = [[float(c[0]) for c in cs] for cs in
                                    dynamics._dop853_coefficients(
                                        dop853_record(t, h, z, theta, zn, tn,
                                                      ks))]
                else:
                    coefficients = kernel_oracles._dense(
                        field, eta_at, t, h, z, theta, zn, tn,
                        [*ks[:12], fzn], [*ks[12:24], ftn], zmax)
            interpolant = dense, coefficients
        q = -model.power_difference(z, r) / 2.0 ** r * rate_at(t)
        jac = bifurcation._jacobian(z, theta, eta_at(t), r, nu)
        runs.append(bits((
            (eta_at(t), rate_at(t), eta_at(t + h)), steps, interpolant,
            [rosenbrock(t, h, z, theta, fz, ft, t + h, jac, nu * q, q, zmax,
                        x, x) for x in (tol, LOOSE)])))
    return runs


def without_stages(run):
    """A run of both_kernels without its stage values: the stages, or the
    record tail, of each step result."""
    couplings, steps, interpolant, rosenbrock = run
    if isinstance(interpolant, tuple):
        dense, coefficients = interpolant
        interpolant = [result[:-1] for result in dense], coefficients
    return (couplings, [result[:-1] for result in steps], interpolant,
            rosenbrock)


def stage_points(params, schedule, t, h, z, theta):
    """|z| at the 11 stage points of a step, at its end and at the 3
    extra stage points of a step with the flag dense set, where all of
    them lie inside; else None."""
    calls = []
    field = dynamics.make_field(params)

    def recorded(z, theta, eta):
        calls.append(abs(z))
        return field(z, theta, eta)

    _, eta_at, _, step, _ = kernel_oracles.kernels_by_loop(recorded,
                                                           schedule)
    fz, ft = recorded(z, theta, eta_at(t))
    try:
        _, err, *_ = step(t, h, z, theta, fz, ft, t + h, ZMAX, LOOSE, LOOSE,
                          True)
    except SingularityError:
        return None
    if err is None or not err <= 1.0:
        return None
    return calls[1:]


@functools.cache
def exit_inputs(kind):
    """For each of the 15 points of stage_points, seeded inputs of the
    real flow under a schedule of kind and a margin zmax at which that
    point is the first to leave |z| <= zmax: the point lies farther out
    than every point before it, and zmax is the farthest of those."""
    rng = random.Random(f"exits/{kind}")
    found = {}
    for _ in range(5000):
        if len(found) == 15:
            return found
        params = ModelParams(r=rng.uniform(0.5, 8.0),
                             nu=rng.choice([0.0, 0.5]))
        schedule = EtaSchedule(kind=kind, eta_start=rng.uniform(-20.0, 20.0),
                               eta_peak=rng.uniform(-20.0, 20.0), T=100.0)
        args = (params, schedule, rng.uniform(0.0, 100.0),
                rng.uniform(0.05, 2.0), rng.uniform(-0.99, 0.99),
                rng.uniform(-3.0, 3.0))
        points = stage_points(*args)
        for j, a in enumerate(points or ()):
            farthest = max(points[:j], default=0.0)
            if j not in found and a > farthest:
                found[j] = (*args, farthest)
    raise AssertionError(f"first exits found only at {sorted(found)}")


class TestKernels:
    """The generated kernels, with the flow written in, against the loop
    kernels of kernel_oracles, which call make_field's closure."""

    @given(r=st.floats(0.5, 40.0), nu=st.sampled_from([0.0, 0.5]),
           kind=st.sampled_from(SCHEDULE_KINDS), e0=st.floats(-50.0, 50.0),
           peak=st.floats(-50.0, 50.0), T=st.floats(1.0, 4000.0),
           at=st.floats(0.0, 1.0), h=st.floats(1e-6, 1.0),
           z=st.one_of(st.floats(-ZMAX, ZMAX),
                       st.floats(0.99, ZMAX).map(lambda z: -z),
                       st.floats(0.99, ZMAX)),
           theta=st.floats(-10.0, 10.0),
           tol=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]))
    @example(r=1.0, nu=0.0, kind="constant", e0=-1.0, peak=-1.0, T=1.0,
             at=0.0, h=0.5, z=0.9999, theta=1.5, tol=1e-9)
    @example(r=5.0, nu=0.5, kind="constant", e0=-8.0, peak=-8.0, T=1.0,
             at=0.0, h=1.0, z=-0.999, theta=-1.5, tol=1e-9)
    @example(r=5.0, nu=0.5, kind="triangular", e0=-3.0, peak=-8.0, T=10.0,
             at=0.45, h=1.0, z=0.3, theta=0.7,
             tol=1e-9)  # stages across the corner
    @example(r=5.0, nu=0.0, kind="constant", e0=3.0, peak=3.0, T=10.0,
             at=0.1, h=0.5, z=0.0, theta=-0.0,
             tol=1e-9)  # stages -0.0 against 0.0
    @settings(max_examples=300, deadline=None)
    def test_stages_sums_and_dense_match_the_loop(self, r, nu, kind, e0, peak,
                                                  T, at, h, z, theta, tol):
        schedule = EtaSchedule(kind=kind, eta_start=e0, eta_peak=peak, T=T)
        new, old = both_kernels(ModelParams(r=r, nu=nu), schedule, at * T,
                                h, z, theta, tol=tol)
        if z == 0.0 == theta:
            # at the symmetric state every stage is a zero, and the
            # kernels' sums, which start from 0.0 only where they set
            # an end state, can give it the other sign; those stages are
            # compared where they reach the outputs, in
            # test_integrate_matches_the_loop_from_any_start
            new, old = map(without_stages, (new, old))
        assert new == old

    @pytest.mark.parametrize("jump", range(15))
    def test_every_exit_stage_matches_the_loop(self, jump):
        # the first point to leave is stage jump + 1 of the step for jump
        # below 11, the step's end for 11, extra stage jump - 11 above
        for kind in SCHEDULE_KINDS:
            *args, zmax = exit_inputs(kind)[jump]
            new, old = both_kernels(*args, zmax=zmax)
            assert new == old
            _, (_, clear), interpolant, _ = new
            evals, err, *_ = clear
            assert evals == min(jump, 12)
            assert (err is None) == (jump < 12)
            if jump < 12:
                # the attempt ends before any extra stage
                assert interpolant == ((clear, clear), None)
            else:
                assert interpolant.startswith("interpolation stage left")

    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    def test_a_step_without_samples_evaluates_no_extra_stage(self, kind):
        # with the flag dense clear an accepted step returns no stages
        # after 11 stages and the derivative at its end; with it set the
        # same step also evaluates the three extra stages and returns
        # its record tail, the derivative at its end in the middle
        field, eta_at, _, step, _ = dynamics._kernels(
            STIFF, EtaSchedule(kind=kind, eta_start=-3.0, eta_peak=-8.0,
                               T=10.0))
        fz, ft = field(0.3, 0.7, eta_at(4.95))
        clear, dense = (step(4.95, 0.1, 0.3, 0.7, fz, ft, 5.05, ZMAX, LOOSE,
                             LOOSE, flag) for flag in (False, True))
        assert clear[0] == 12 and clear[1] <= 1.0 and clear[-1] is None
        assert dense[0] == 15 and bits(dense[1:7]) == bits(clear[1:7])
        assert len(dense[-1]) == 32
        assert bits(dense[-1][24:26]) == bits(clear[5:7])

    @pytest.mark.parametrize("jump", [12, 13, 14])
    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    def test_an_extra_stage_leaving_the_margin_names_tau(self, kind, jump):
        # extra stage jump - 11 is the first point to leave |z| <= zmax:
        # the step with the flag set raises, the one without is accepted
        params, schedule, t, h, z, theta, zmax = exit_inputs(kind)[jump]
        field, eta_at, _, step, _ = dynamics._kernels(params, schedule)
        fz, ft = field(z, theta, eta_at(t))
        with pytest.raises(SingularityError) as info:
            step(t, h, z, theta, fz, ft, t + h, zmax, LOOSE, LOOSE, True)
        assert str(info.value) == \
            f"interpolation stage left |z| <= {zmax} at tau={t}"
        assert step(t, h, z, theta, fz, ft, t + h, zmax, LOOSE, LOOSE,
                    False)[1] <= 1.0

    @pytest.mark.parametrize("start, params, schedule, config", [
        *[(PhaseState(z=0.3, theta=0.7), ModelParams(r=r),
           EtaSchedule(kind="constant", eta_start=eta, T=1000.0),
           IntegratorConfig(abs_tol=1e-10, rel_tol=1e-10))
          for r in (1.0, 5.0) for eta in (-1.0, -6.0)],
        *[(PhaseState(z=z0), ModelParams(r=r, nu=0.5),
           triangular(*etas), IntegratorConfig(sample_stride=10))
          for r, etas in ((1.0, (-1.0, -3.0)), (5.0, (-3.0, -8.0)))
          for z0 in (0.01, 0.3, -0.5)],
        (NEAR_TRAPPED, STIFF, EtaSchedule(kind="constant", eta_start=-8.0,
                                          T=50.0),
         IntegratorConfig(sample_stride=10)),
        (PhaseState(z=0.9, theta=1.5), ModelParams(r=1.0),
         EtaSchedule(kind="constant", eta_start=-1.0, T=5.0),
         IntegratorConfig(dt=1.0)),
    ], ids=["c6-r1-eta-1", "c6-r1-eta-6", "c6-r5-eta-1", "c6-r5-eta-6",
            *(f"ramp-r{r}" + ("" if z0 == 0.01 else f"-z{z0}")
              for r in (1, 5) for z0 in (0.01, 0.3, -0.5)),
            "stiff-eta-8", "boundary"])
    def test_integrate_matches_the_loop(self, monkeypatch, start, params,
                                        schedule, config):
        runs = []
        for loop in (False, True):
            if loop:
                on_loop_kernels(monkeypatch, dynamics.make_field)
            traj = integrate(start, params, schedule, config,
                             (0.0, schedule.T))
            runs.append((traj.tau.tobytes(), traj.z.tobytes(),
                         traj.theta.tobytes(), traj.H.tobytes(), traj.stats,
                         traj.clamp_events))
        assert runs[0] == runs[1]

    @settings(max_examples=60, deadline=None)
    @given(r=st.floats(0.5, 8.0), nu=st.sampled_from([0.0, 0.5]),
           kind=st.sampled_from(SCHEDULE_KINDS), e0=st.floats(-10.0, 10.0),
           peak=st.floats(-10.0, 10.0), T=st.floats(1.0, 30.0),
           z0=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.99, 0.99)),
           theta0=st.one_of(st.sampled_from([0.0, -0.0]),
                            st.floats(-math.pi, math.pi)),
           stride=st.integers(1, 10))
    @example(r=5.0, nu=0.0, kind="constant", e0=3.0, peak=3.0, T=10.0,
             z0=0.0, theta0=-0.0, stride=7)
    @example(r=5.0, nu=0.5, kind="triangular", e0=3.0, peak=-8.0, T=10.0,
             z0=-0.0, theta0=-0.0, stride=7)
    def test_integrate_matches_the_loop_from_any_start(
            self, r, nu, kind, e0, peak, T, z0, theta0, stride):
        # the columns bit for bit and the stats, or the same error, on
        # the generated kernels and on the loop kernels; the starts
        # include every signed zero of z and theta
        runs = []
        for loop in (False, True):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dynamics, "_MAX_STEPS", 10_000)
                patch.setattr(dynamics, "_MAX_STEPS_PER_TAU", 25)
                if loop:
                    on_loop_kernels(patch, dynamics.make_field)
                try:
                    traj = integrate(
                        PhaseState(z=z0, theta=theta0),
                        ModelParams(r=r, nu=nu),
                        EtaSchedule(kind=kind, eta_start=e0, eta_peak=peak,
                                    T=T),
                        IntegratorConfig(sample_stride=stride), (0.0, T))
                except (SingularityError, StepFailureError) as exc:
                    runs.append((type(exc), str(exc)))
                    continue
            runs.append((*(getattr(traj, name).tobytes() for name in
                           ("tau", "z", "theta", "eta", "H", "E")),
                         traj.stats, traj.clamp_events))
        assert runs[0] == runs[1]

    # (kind, damped) of make_field's closure and of each kernel set
    KEYS = ((None, True), *((kind, damped) for kind in SCHEDULE_KINDS
                            for damped in (False, True)))

    def test_source_is_deterministic(self):
        code = ("import hashlib; from dimer_hysteresis import dynamics; "
                f"print([hashlib.sha256(str(dynamics._sources(*key))"
                f".encode()).hexdigest() for key in {self.KEYS!r}])")
        src = str(Path(dynamics.__file__).parents[1])
        digests = {subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src,
                             "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2")}
        assert digests == {str([hashlib.sha256(
            str(dynamics._sources(*key)).encode()).hexdigest()
            for key in self.KEYS]) + "\n"}

    def test_source_holds_the_tableau_and_nothing_else(self):
        for key in self.KEYS:
            want = self.tableau_and_flow(key[0])
            assert list(dynamics._sources(*key)) == list(want)
            for name, source in dynamics._sources(*key).items():
                assert self.float_literals(source) == bits(want[name]), name

    def test_damping_term_only_where_damped(self):
        for kind, damped in self.KEYS:
            for name, source in dynamics._sources(kind, damped).items():
                flows = source.count("gz = -2.0 * ")
                assert source.count(" + nu * gz, gz") == flows * damped, \
                    (kind, damped, name)

    @staticmethod
    def tableau_and_flow(kind):
        # every float literal of each function's source, in source order:
        # 2.0 in two_r = 2.0 ** r and r2 = 2.0 * r, bound for every
        # function (the ramp's constants, from EtaSchedule.ramp, hold
        # none); the ramp's coupling, x > 0.0 else 0.0, in eta_at, after
        # each stage's node and at a step's end; the constant kind's
        # deta/dtau, 0.0; 0.0 starting each sum that sets a step's end
        # state; the flow's 1.0 - z z, z < 0.0, -2.0 z and 2.0 s; the
        # DOP853 error's 0.01 e3 e3, else 0.0 and err <= 1.0; 1.0 and
        # gamma in g = 1.0 / (h gamma), 1.0 in d = 1.0 / det and
        # RODAS3's err <= 1.0. The rest are the tables' nonzero weights
        # and nodes, row by row; the D rows of the interpolant are in no
        # kernel.
        ramp = kind == "triangular"
        coupling = [0.0, 0.0] if ramp else []
        flow = [1.0, 0.0, -2.0, 2.0]

        def total(row, seed=()):
            return [*seed] + [w for w in row if w]

        def stage(c):
            return ([c] + coupling if ramp else []) + flow

        if kind is None:
            return {"field": [2.0, 2.0] + flow}
        want = {"eta_at": coupling, "rate_at": [] if ramp else [0.0],
                "_step": [], "_rosenbrock": []}
        for c, row in tableau.DOP853_STAGES:
            want["_step"] += total(row) * 2 + stage(c)
        want["_step"] += total(tableau.DOP853_B, [0.0]) * 2
        for row in (tableau.DOP853_E5, tableau.DOP853_E3):
            want["_step"] += total(row) * 2
        want["_step"] += [0.01, 0.0, 1.0] + coupling + flow
        for c, row in tableau.DOP853_DENSE_STAGES:
            want["_step"] += total(row) * 2 + stage(c)
        ros = want["_rosenbrock"]
        ros += [1.0, tableau.RODAS3_GAMMA, 1.0]
        for alpha, gamma, a, c in tableau.RODAS3_STAGES:
            if alpha or any(a):
                ros += total(a) * 2 + stage(alpha)
            ros += ((total(c) if any(c) else [])
                    + ([gamma] if gamma else [])) * 2
        ros += total(tableau.RODAS3_M, [0.0]) * 2
        ros += total(tableau.RODAS3_E) * 2 + [1.0] + coupling + flow
        return {name: [2.0, 2.0] + floats for name, floats in want.items()}

    @staticmethod
    def float_literals(source):
        found = []

        class Floats(ast.NodeVisitor):
            def visit_UnaryOp(self, node):
                if isinstance(node.op, ast.USub) \
                        and isinstance(node.operand, ast.Constant):
                    found.append(-node.operand.value)
                else:
                    self.generic_visit(node)

            def visit_Constant(self, node):
                found.append(node.value)

        Floats().visit(ast.parse(source))
        return bits([x for x in found if isinstance(x, float)])

    def test_traceback_shows_the_generated_line(self):
        # theta = inf makes the first stage's cos(ti) raise
        _, _, _, step, _ = dynamics._kernels(
            ModelParams(r=1.0), EtaSchedule(kind="constant", eta_start=-1.0))
        with pytest.raises(ValueError, match="math domain error") as info:
            step(0.0, 0.5, 0.3, math.inf, 0.1, 0.1, 0.5, ZMAX, 1e-9, 1e-9,
                 False)
        text = "".join(traceback.format_exception(info.value))
        file = f"<{dynamics.__name__} constant undamped _step>"
        line = "gz = -2.0 * zi * cos(ti) / s - q * diff"
        number = [s.strip() for s in dynamics._sources("constant", False)
                  ["_step"].splitlines()].index(line)
        assert f'File "{file}", line {number + 1}, in _step\n    {line}\n' \
            in text


class TestSamples:
    def test_interpolate_on_arrays_is_the_float_form(self):
        rng = np.random.default_rng(5)
        c = rng.normal(size=(8, 200)) * 10.0 ** rng.integers(-5, 5, (8, 200))
        x = rng.uniform(0.0, 1.0, 200)
        bulk = dynamics._interpolate(list(c), x)
        one = [dynamics._interpolate(c[:, i].tolist(), float(x[i]))
               for i in range(200)]
        assert bulk.tobytes() == np.array(one).tobytes()

    def test_coefficients_and_samples_match_the_per_step_floats(
            self, monkeypatch):
        # a run with both kinds of record: each DOP853 record's extra
        # stages and coefficients over columns against the former
        # per-step floats of kernel_oracles._dense, and every
        # interpolated sample against _interpolate on those floats or on
        # a RODAS3 record's stored coefficients
        calls = []
        samples = dynamics._samples

        def recorded(*args):
            calls.append(args)
            return samples(*args)

        monkeypatch.setattr(dynamics, "_samples", recorded)
        schedule = EtaSchedule(kind="constant", eta_start=-8.0, T=50.0)
        traj = integrate(NEAR_TRAPPED, STIFF, schedule,
                         IntegratorConfig(sample_stride=10), (0.0, 50.0))
        *_, exact, dop853, hermite = calls[0]
        field, eta_at, *_ = kernel_oracles.kernels_by_loop(
            dynamics.make_field(STIFF), schedule)
        rec = np.frombuffer(dop853).reshape(-1, dynamics._DOP853_RECORD)
        columns = dynamics._dop853_coefficients(rec.T.copy())
        interpolated = 0
        for i, row in enumerate(rec.tolist()):
            t, h, first, end, z, theta, zn, tn = row[:8]
            kz, kt = row[8:20] + row[32:33], row[20:32] + row[33:34]
            want = kernel_oracles._dense(field, eta_at, t, h, z, theta, zn,
                                         tn, kz, kt, ZMAX)
            assert bits(row[34:]) == bits(kz[13:] + kt[13:])
            assert bits([[float(c[i]) for c in cs] for cs in columns]) \
                == bits(want)
            interpolated += self.assert_interpolated(traj, t, h, first, end,
                                                     *want)
        stiff = np.frombuffer(hermite).reshape(-1, dynamics._HERMITE_RECORD)
        for t, h, first, end, *c in stiff.tolist():
            interpolated += self.assert_interpolated(traj, t, h, first, end,
                                                     c[:8], c[8:])
        assert len(rec) > 0 and len(stiff) > 0
        assert interpolated + len(exact) == len(traj.tau)

    @staticmethod
    def assert_interpolated(traj, t, h, first, end, cz, ct):
        """Samples first..end - 1 of traj are _interpolate on floats from
        the step's coefficients; returns their count."""
        for k in range(int(first), int(end)):
            x = (float(traj.tau[k]) - t) / h
            assert bits((float(traj.z[k]), float(traj.theta[k]))) == bits(
                (dynamics._interpolate(cz, x), dynamics._interpolate(ct, x)))
        return int(end - first)

    def test_samples_inside_clamped_steps_sit_on_the_margin(self):
        # a run that starts on the clamp margin, pushed outward, ends
        # every step in a clamp; the samples inside a clamped step are
        # the margin state itself
        traj = integrate(PhaseState(z=ZMAX, theta=math.pi),
                         ModelParams(r=1.0, nu=0.5),
                         EtaSchedule(kind="constant", eta_start=-1.0,
                                     T=3e-13),
                         IntegratorConfig(sample_stride=10 ** 13),
                         (0.0, 3e-13))
        assert traj.tau.tolist() == [0.0, 1e-13, 2e-13, 3e-13]
        assert traj.z.tolist() == [ZMAX] * 4
        assert traj.theta.tolist() == [math.pi] * 4
        assert traj.clamp_events == 4
        st = traj.stats
        assert (st.boundary_halvings, st.attempts, st.rhs_evals) == (2, 6, 5)
        assert st.accepted == st.rejected == 0

    def test_samples_at_shared_times_agree_across_strides(self):
        # the steps do not depend on the stride, and sample 5 k at stride
        # 10 sits at the tau of sample k at stride 2, so both hold the
        # same bits; the last sample of each is the span's end
        args = (PhaseState(z=0.2, theta=0.4), ModelParams(r=5.0, nu=0.5),
                triangular(-3.0, -8.0, T=100.0))
        fine, coarse = (integrate(*args, IntegratorConfig(sample_stride=s),
                                  (0.3, 77.7)) for s in (10, 2))
        assert len(fine.tau) == 775 and len(coarse.tau) == 156
        for name in ("tau", "z", "theta"):
            f, c = getattr(fine, name), getattr(coarse, name)
            assert f[::5].tobytes() == c[:-1].tobytes()
            assert f[-1] == c[-1]


@pytest.fixture
def field_calls(monkeypatch):
    """Runs integrate on the loop kernels over the model's field and
    counts every call of it; test_integrate_matches_the_loop holds the
    generated kernels' counts to those of the loop kernels."""
    calls = [0]

    def make_counted(params):
        field = dynamics.make_field(params)

        def counted(z, theta, eta):
            calls[0] += 1
            return field(z, theta, eta)
        return counted

    on_loop_kernels(monkeypatch, make_counted)
    return calls


class TestStatsCountWork:
    def test_boundary_halvings(self, field_calls):
        # a unit first step towards the margin leaves it at a stage
        # before the step is small enough
        traj = integrate(PhaseState(z=0.9, theta=1.5),
                         ModelParams(r=1.0, nu=0.0),
                         EtaSchedule(kind="constant", eta_start=-1.0, T=5.0),
                         IntegratorConfig(dt=1.0), (0.0, 5.0))
        assert traj.stats.boundary_halvings > 0
        assert traj.stats.rhs_evals == field_calls[0]

    def test_stiff_steps(self, field_calls):
        traj = integrate(NEAR_TRAPPED, STIFF,
                         EtaSchedule(kind="constant", eta_start=-8.0, T=20.0),
                         IntegratorConfig(sample_stride=10), (0.0, 20.0))
        assert traj.stats.stiff_steps > 0
        assert traj.stats.rhs_evals == field_calls[0]

    def test_dense_output(self, field_calls):
        traj = integrate(PhaseState(z=0.01, theta=0.0),
                         ModelParams(r=5.0, nu=0.5), triangular(-3.0, -8.0,
                                                                T=100.0),
                         IntegratorConfig(sample_stride=10), (0.0, 100.0))
        stats = traj.stats
        dense = stats.rhs_evals - 1 - 12 * stats.accepted \
            - 11 * stats.rejected
        assert dense > 0
        assert stats.rhs_evals == field_calls[0]

    @pytest.mark.parametrize("start, params, schedule, config", [
        (PhaseState(z=0.9, theta=1.5), ModelParams(r=1.0),
         EtaSchedule(kind="constant", eta_start=-1.0, T=5.0),
         IntegratorConfig(dt=1.0)),
        (NEAR_TRAPPED, STIFF,
         EtaSchedule(kind="constant", eta_start=-8.0, T=50.0), PROTOCOL),
        (PhaseState(z=0.01), STIFF, triangular(-3.0, -8.0, T=400.0),
         IntegratorConfig(sample_stride=10)),
    ], ids=["boundary", "stiff", "ramp"])
    def test_attempts_are_the_outcomes_within_the_budget(self, start, params,
                                                         schedule, config):
        traj = integrate(start, params, schedule, config, (0.0, schedule.T))
        st_ = traj.stats
        assert st_.attempts == st_.accepted + st_.rejected \
            + st_.boundary_halvings + st_.stiff_steps + st_.stiff_rejected \
            + traj.clamp_events
        assert 0 < st_.attempts <= dynamics._MAX_STEPS \
            + dynamics._MAX_STEPS_PER_TAU * schedule.T
        assert st_.zero_error_denominators == 0
