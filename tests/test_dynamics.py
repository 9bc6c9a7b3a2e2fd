"""Integrator behavior: field values, conservation, control, protocol runs."""

import math

import pytest

from dimer_hysteresis import (DomainError, EtaSchedule,
                              IntegratorConfig, ModelParams, PhaseState,
                              PhysicalContext, SingularityError,
                              StepFailureError, dynamics, energy_functional,
                              eval_schedule, grad_hamiltonian, hamiltonian,
                              integrate, tableau, vector_field)

PROTOCOL = IntegratorConfig()  # DOP853, 1e-9 tolerances


def triangular(start, peak, T=4000.0):
    return EtaSchedule(kind="triangular", eta_start=start, eta_peak=peak, T=T)


def eta_by_formula(schedule, tau):
    """The former scalar eval_schedule: the oracle for the eta column."""
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

    def test_inline_power_difference_is_the_model_kernel(self):
        # make_field inlines model.power_difference for speed; its phase
        # equation must equal grad_hamiltonian's dH/dz, which calls the
        # model kernel with the same surrounding arithmetic, bit for bit.
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
        # the columns and their one-row forms against the per-sample
        # formulas in plain math, bit for bit
        ctx = PhysicalContext(omega=2.0, Omega=0.5)
        traj = integrate(PhaseState(z=0.01, theta=0.0),
                         ModelParams(r=5.0, nu=0.5), schedule,
                         IntegratorConfig(sample_stride=10),
                         (0.0, schedule.T), ctx)
        rows = list(zip(traj.tau.tolist(), traj.z.tolist(),
                        traj.theta.tolist()))
        eta = [eta_by_formula(schedule, t) for t, _, _ in rows]
        H = [hamiltonian_by_formula(z, theta, e, 5.0)
             for (_, z, theta), e in zip(rows, eta)]
        assert len(eta) == 4001
        assert traj.eta.tolist() == eta
        assert traj.H.tolist() == H
        assert traj.E.tolist() == [energy_functional(h, ctx) for h in H]
        assert [eval_schedule(schedule, t) for t, _, _ in rows] == eta
        assert [hamiltonian(PhaseState(z=z, theta=theta), e, 5.0)
                for (_, z, theta), e in zip(rows, eta)] == H


# the step and tolerances must be finite and > 0, sample_stride an
# integer >= 1 and clamp_limit an integer >= 0
BAD_SETTINGS = [
    *((name, value) for name in ("dt", "abs_tol", "rel_tol", "min_step")
      for value in (math.nan, math.inf, 0.0, -1.0)),
    *(("sample_stride", value) for value in (math.nan, math.inf, 2.5, 0)),
    *(("clamp_limit", value) for value in (math.nan, -1, 2.5)),
]


class TestConfigValidation:
    @pytest.mark.parametrize("name, value", [
        pytest.param(name, value, id=f"{value}-{name}")
        for name, value in BAD_SETTINGS])
    def test_step_and_tolerances_must_be_finite_and_positive(self, name,
                                                             value):
        with pytest.raises(DomainError):
            IntegratorConfig(**{name: value})


@pytest.fixture
def nan_field(monkeypatch):
    def make_nan_field(params):
        def field(z, theta, eta):
            return math.nan, math.nan
        return field

    monkeypatch.setattr(dynamics, "make_field", make_nan_field)


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

    monkeypatch.setattr(dynamics, "make_field", make_outward_field)
    return zs


class TestTermination:
    def test_nan_field_raises_step_failure(self, nan_field):
        sched = EtaSchedule(kind="constant", eta_start=-1.0, T=10.0)
        with pytest.raises(StepFailureError):
            integrate(PhaseState(z=0.1, theta=0.0), ModelParams(r=1.0),
                      sched, PROTOCOL, (0.0, 10.0))

    def test_decay_below_the_square_underflow_ends(self):
        # the damped state decays onto z = 0 until both error estimates'
        # squares underflow; a zero norm denominator is zero error
        sched = EtaSchedule(kind="constant", eta_start=-1.0, T=2000.0)
        traj = integrate(PhaseState(z=0.01, theta=0.0),
                         ModelParams(r=1.0, nu=0.5), sched, PROTOCOL,
                         (0.0, 2000.0))
        assert traj.tau[-1] == 2000.0
        assert abs(traj.z[-1]) < 1e-160

    def test_flow_into_boundary_ends_in_package_error(self, outward_field):
        # stages past the margin halve the step down to min_step, then
        # each clamp counts against clamp_limit
        sched = EtaSchedule(kind="constant", eta_start=-1.0, T=50.0)
        for config in (PROTOCOL, IntegratorConfig(clamp_limit=3)):
            outward_field.clear()
            with pytest.raises(SingularityError,
                               match=f"more than {config.clamp_limit} times"):
                integrate(PhaseState(z=0.3, theta=0.7),
                          ModelParams(r=1.0, nu=0.5), sched, config,
                          (0.0, 50.0))
            # each clamp evaluates the field once, on the margin itself
            assert outward_field.count(1.0 - dynamics.EPS_CLAMP) == \
                config.clamp_limit


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
