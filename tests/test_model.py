"""Core model functions against hand-evaluated values and symmetries."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimer_hysteresis import (DomainError, EtaSchedule, IntegratorConfig,
                              ModelParams, PhaseState, PhysicalContext,
                              Sample, SingularityError, Trajectory,
                              amplitudes_from_state, effective_eta,
                              energy_functional, eval_schedule,
                              find_fixed_points, grad_hamiltonian,
                              hamiltonian, hamiltonian_column, jacobian_at,
                              power_difference, stationary_residual,
                              trace_branches, vector_field, wrap_angle)
from dimer_hysteresis.model import schedule_column

from kernel_oracles import wrap_angle_by_remainder

finite_theta = st.floats(-50.0, 50.0)
interior_z = st.floats(-0.999, 0.999)
powers = st.floats(0.3, 6.0)
couplings = st.floats(-10.0, 10.0)


class TestHamiltonian:
    def test_linear_limit(self):
        assert hamiltonian(PhaseState(z=0.0, theta=0.0), 0.0, 1.0) == 2.0

    def test_attractive_symmetric_value(self):
        # 2 - (-2) * 2 / (2 * 2)
        assert hamiltonian(PhaseState(z=0.0, theta=0.0), -2.0, 1.0) == 3.0

    def test_boundary_value(self):
        # kinetic term vanishes at z = 1; bulk term is -2 eta / (r+1)
        assert hamiltonian(PhaseState(z=1.0, theta=0.0), -2.0, 1.0) == 2.0

    @given(z=st.floats(-1.0, 1.0), theta=finite_theta, eta=couplings,
           r=powers)
    def test_even_in_z_and_theta(self, z, theta, eta, r):
        h = hamiltonian(PhaseState(z=z, theta=theta), eta, r)
        assert hamiltonian(PhaseState(z=-z, theta=theta), eta, r) == h
        assert hamiltonian(PhaseState(z=z, theta=-theta), eta, r) == h

    def test_rejects_nonpositive_power(self):
        with pytest.raises(DomainError):
            hamiltonian(PhaseState(z=0.0), 1.0, 0.0)

    def test_bulk_term_kept_at_the_largest_powers(self):
        # 2^r (r+1) is still a finite float just below the bound r < 1014
        r, z = 1013.0, 0.9999
        kinetic = 2.0 * math.sqrt(1.0 - z * z)
        bulk = math.exp((r + 1.0) * math.log1p(z) - r * math.log(2.0)) / (r + 1.0)
        want = kinetic + bulk
        assert hamiltonian(PhaseState(z=z), -1.0, r) == pytest.approx(want, rel=1e-12)
        column = hamiltonian_column(np.array([z]), np.array([0.0]),
                                    np.array([-1.0]), r)
        assert column.tolist() == pytest.approx([want], rel=1e-12)


class TestGradient:
    def test_symmetric_point_is_critical(self):
        assert grad_hamiltonian(PhaseState(z=0.0, theta=0.0), -3.7, 2.5) \
            == (0.0, 0.0)

    def test_phase_derivative_value(self):
        dz, dtheta = grad_hamiltonian(PhaseState(z=0.0, theta=math.pi / 2),
                                      0.0, 1.0)
        assert dz == 0.0
        assert dtheta == pytest.approx(-2.0, abs=1e-15)

    def test_matches_finite_differences_at_spot(self):
        state = PhaseState(z=0.5, theta=0.0)
        dz, dtheta = grad_hamiltonian(state, -2.0, 1.0)
        h = 1e-6
        fd_z = (hamiltonian(PhaseState(z=0.5 + h, theta=0.0), -2.0, 1.0)
                - hamiltonian(PhaseState(z=0.5 - h, theta=0.0), -2.0, 1.0)) \
            / (2 * h)
        fd_t = (hamiltonian(PhaseState(z=0.5, theta=h), -2.0, 1.0)
                - hamiltonian(PhaseState(z=0.5, theta=-h), -2.0, 1.0)) \
            / (2 * h)
        assert dz == pytest.approx(fd_z, rel=1e-6, abs=1e-6)
        assert dtheta == pytest.approx(fd_t, rel=1e-6, abs=1e-6)

    @given(z=interior_z, theta=finite_theta, eta=couplings, r=powers)
    @settings(max_examples=200)
    def test_matches_finite_differences_everywhere(self, z, theta, eta, r):
        dz, dtheta = grad_hamiltonian(PhaseState(z=z, theta=theta), eta, r)
        h = 1e-6

        def H(zz, tt):
            return hamiltonian(PhaseState(z=zz, theta=tt), eta, r)

        fd_z = (H(min(z + h, 1.0), theta) - H(max(z - h, -1.0), theta)) \
            / (min(z + h, 1.0) - max(z - h, -1.0))
        fd_t = (H(z, theta + h) - H(z, theta - h)) / (2 * h)
        scale = max(1.0, abs(dz))
        assert abs(dz - fd_z) / scale < 2e-4
        assert abs(dtheta - fd_t) / max(1.0, abs(dtheta)) < 2e-4

    def test_refuses_boundary(self):
        with pytest.raises(SingularityError):
            grad_hamiltonian(PhaseState(z=1.0, theta=0.0), -2.0, 1.0)


class TestPowerDifference:
    def test_zero_at_origin(self):
        assert power_difference(0.0, 3.0) == 0.0

    @given(z=st.floats(-0.9999, 0.9999), r=powers)
    def test_exactly_odd(self, z, r):
        assert power_difference(-z, r) == -power_difference(z, r)

    @given(z=st.floats(1e-6, 0.999), r=powers)
    def test_agrees_with_naive_form(self, z, r):
        naive = (1.0 + z) ** r - (1.0 - z) ** r
        assert power_difference(z, r) == pytest.approx(naive, rel=1e-12)

    def test_keeps_relative_accuracy_for_tiny_z(self):
        # the naive form returns exactly 0.0 here; the linearization
        # (1+z)^r - (1-z)^r ~ 2 r z must survive
        z = 1e-18
        for r in (1.0, 2.5, 5.0):
            assert power_difference(z, r) == pytest.approx(2.0 * r * z,
                                                           rel=1e-12)

    def test_rejects_boundary(self):
        with pytest.raises(DomainError):
            power_difference(1.0, 2.0)

    def test_array_matches_scalars(self):
        zs = np.array([-0.999, -0.5, -1e-12, -1e-300, 0.0, 5e-324, 1e-18,
                       1e-6, 0.3, 0.999999])
        for r in (0.3, 1.0, 2.5, 5.0):
            got = power_difference(zs, r)
            assert isinstance(got, np.ndarray) and got.shape == zs.shape
            want = [power_difference(z, r) for z in zs.tolist()]
            assert got.tolist() == pytest.approx(want, rel=1e-14, abs=0.0)
            assert np.array_equal(power_difference(-zs, r), -got)
            assert got[4] == 0.0

    def test_array_rejects_boundary(self):
        with pytest.raises(DomainError):
            power_difference(np.array([0.5, -1.0]), 2.0)

    def test_rejects_nan(self):
        # a NaN passes a test of |z| >= 1; refused as |z| = 1 is
        with pytest.raises(DomainError,
                           match=r"requires \|z\| < 1, got nan$"):
            power_difference(math.nan, 2.0)

    def test_array_rejects_nan(self):
        with pytest.raises(DomainError, match=r"requires \|z\| < 1$"):
            power_difference(np.array([0.5, math.nan]), 2.0)

    @pytest.mark.parametrize("r", [34.0, 100.0, 200.0])
    def test_finite_for_large_powers_next_to_the_boundary(self, r):
        # expm1(2 r atanh|z|) alone overflows here, although the
        # difference itself, about 2^r, is a finite float
        zs = [0.5, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-9]
        got = power_difference(np.array(zs + [-z for z in zs]), r)
        for z, g in zip(zs, got.tolist()):
            naive = (1.0 + z) ** r - (1.0 - z) ** r
            assert math.isfinite(power_difference(z, r))
            assert power_difference(z, r) == pytest.approx(naive, rel=1e-12)
            assert g == pytest.approx(naive, rel=1e-12)
        assert got[len(zs):].tolist() == (-got[:len(zs)]).tolist()
        assert power_difference(np.array(zs[-1]), r) == got[len(zs) - 1]


class TestEnergyAndCoupling:
    def test_energy_values(self):
        assert energy_functional(0.0, PhysicalContext(omega=2.0, Omega=5.0)) == 5.0
        assert energy_functional(2.0, PhysicalContext(omega=2.0, Omega=0.0)) == -2.0
        assert energy_functional(
            3.0, PhysicalContext(omega=0.1, Omega=1.0)) == pytest.approx(0.85)

    def test_effective_eta_values(self):
        assert effective_eta(PhysicalContext(c=1.0, g=0.0, omega=1.0)) == 0.0
        assert effective_eta(PhysicalContext(c=2.0, g=-1.0, omega=0.5)) == -4.0
        assert effective_eta(PhysicalContext(c=1.0, g=-6.4, omega=1.0)) == -6.4

    def test_omega_must_be_positive(self):
        with pytest.raises(DomainError):
            PhysicalContext(omega=0.0)

    @pytest.mark.parametrize("name", ["omega", "Omega", "c", "g"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_context_must_be_finite(self, name, value):
        with pytest.raises(DomainError):
            PhysicalContext(**{name: value})


class TestSchedules:
    def test_triangular_endpoints_and_peak(self):
        sched = EtaSchedule(kind="triangular", eta_start=-1.0, eta_peak=-3.0,
                            T=4000.0)
        assert eval_schedule(sched, 0.0) == -1.0
        assert eval_schedule(sched, 2000.0) == -3.0
        assert eval_schedule(sched, 4000.0) == -1.0

    @pytest.mark.parametrize("T", [0.25, 1.0, 4000.0])
    def test_tau_slack_bounds_the_column(self, T):
        sched = EtaSchedule(kind="triangular", eta_start=-1.0,
                            eta_peak=-3.0, T=T)
        slack = sched.tau_slack
        assert slack == 1e-9 * max(1.0, T)
        assert schedule_column(sched, [-slack, T + slack]).tolist() == \
            [-1.0, -1.0]
        for tau in (math.nextafter(-slack, -1.0),
                    math.nextafter(T + slack, math.inf)):
            with pytest.raises(DomainError, match="outside schedule domain"):
                schedule_column(sched, [tau])

    def test_triangular_interior_value(self):
        sched = EtaSchedule(kind="triangular", eta_start=-3.0, eta_peak=-8.0,
                            T=4000.0)
        assert eval_schedule(sched, 3000.0) == pytest.approx(-5.5, abs=1e-12)

    @given(tau=st.floats(0.0, 4000.0))
    def test_triangular_is_symmetric_about_midpoint(self, tau):
        sched = EtaSchedule(kind="triangular", eta_start=-3.0, eta_peak=-8.0,
                            T=4000.0)
        assert eval_schedule(sched, tau) == pytest.approx(
            eval_schedule(sched, 4000.0 - tau), abs=1e-12)

    def test_constant(self):
        sched = EtaSchedule(kind="constant", eta_start=-2.5, T=10.0)
        assert eval_schedule(sched, 7.3) == -2.5

    def test_domain_is_enforced(self):
        sched = EtaSchedule(kind="constant", eta_start=0.0, T=5.0)
        with pytest.raises(DomainError):
            eval_schedule(sched, -0.1)
        with pytest.raises(DomainError):
            eval_schedule(sched, 5.1)

    def test_validation(self):
        with pytest.raises(DomainError):
            EtaSchedule(kind="triangular", eta_start=-1.0, T=4.0)  # no peak
        with pytest.raises(DomainError):
            EtaSchedule(kind="constant", eta_start=-1.0, T=0.0)
        with pytest.raises(DomainError):
            EtaSchedule(kind="sawtooth", eta_start=0.0, T=1.0)
        with pytest.raises(DomainError):
            EtaSchedule(kind="piecewise_linear", eta_start=0.0, T=1.0)

    @pytest.mark.parametrize("start, peak, T", [
        (-1.0, -3.0, 5e-324),     # T / 2 underflows to zero
        (-1.0, -1.0, 5e-324),     # and the ramp is flat
        (-1.0, -3.0, 1e-310),     # the quotient overflows
        (-1e308, 1e308, 10.0),    # the difference overflows
    ])
    def test_a_ramp_without_a_finite_rate_is_refused(self, start, peak, T):
        with pytest.raises(DomainError, match="triangular ramp rate"):
            EtaSchedule(kind="triangular", eta_start=start, eta_peak=peak,
                        T=T)

    def test_the_steepest_finite_ramp_is_accepted(self):
        sched = EtaSchedule(kind="triangular", eta_start=-1.0,
                            eta_peak=-3.0, T=4e-308)
        assert sched.ramp == (-1.0, 2e-308, 4e-308, -2.0 / 2e-308)
        assert eval_schedule(sched, 2e-308) == -3.0

    def test_the_column_and_the_scalar_refuse_through_the_ramp(self):
        # a schedule changed past its own check still never divides by
        # zero: both evaluations read the rate from ramp
        sched = EtaSchedule(kind="triangular", eta_start=-1.0, eta_peak=-3.0,
                            T=4.0)
        object.__setattr__(sched, "T", 5e-324)
        with pytest.raises(DomainError, match="triangular ramp rate"):
            schedule_column(sched, [0.0])
        with pytest.raises(DomainError, match="triangular ramp rate"):
            eval_schedule(sched, 0.0)


class TestAmplitudes:
    def test_known_points(self):
        p, q = amplitudes_from_state(PhaseState(z=0.0))
        assert p == pytest.approx(math.sqrt(0.5))
        assert q == pytest.approx(math.sqrt(0.5))
        assert amplitudes_from_state(PhaseState(z=1.0)) == (1.0, 0.0)
        p, q = amplitudes_from_state(PhaseState(z=-0.28))
        assert (p, q) == (pytest.approx(0.6), pytest.approx(0.8))

    @given(z=st.floats(-1.0, 1.0))
    def test_normalized(self, z):
        p, q = amplitudes_from_state(PhaseState(z=z))
        assert p * p + q * q == pytest.approx(1.0, abs=1e-12)
        assert p * p - q * q == pytest.approx(z, abs=1e-12)


class TestWrapAngle:
    def test_range_convention(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(0.0) == 0.0

    @given(theta=st.floats(-1e6, 1e6))
    def test_lands_in_half_open_interval(self, theta):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        # idempotent once wrapped
        assert wrap_angle(w) == pytest.approx(w, abs=1e-12)

    @given(theta=st.floats(-20.0, 20.0), k=st.integers(-3, 3))
    def test_invariant_under_full_turns(self, theta, k):
        assert wrap_angle(theta + k * math.tau) == pytest.approx(
            wrap_angle(theta), abs=1e-9)

    @given(theta=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([math.pi, -math.pi, math.tau, -math.tau, 0.0, -0.0,
                         3 * math.pi, -3 * math.pi, 1e308, -1e308])))
    def test_equals_the_remainder_form_bit_for_bit(self, theta):
        assert wrap_angle(theta).hex() == wrap_angle_by_remainder(theta).hex()

    @given(thetas=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           max_size=30))
    def test_array_form_is_the_float_form_bit_for_bit(self, thetas):
        got = wrap_angle(np.array(thetas + [math.pi, -math.pi, -0.0]))
        want = [wrap_angle(t) for t in thetas + [math.pi, -math.pi, -0.0]]
        assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_refuses_non_finite(self, theta):
        with pytest.raises(DomainError, match="finite"):
            wrap_angle(theta)
        with pytest.raises(DomainError, match="finite"):
            wrap_angle(np.array([0.5, theta]))


class TestValidation:
    def test_model_params(self):
        with pytest.raises(DomainError):
            ModelParams(r=0.0)
        with pytest.raises(DomainError):
            ModelParams(r=1.0, nu=-0.1)

    def test_phase_state(self):
        with pytest.raises(DomainError):
            PhaseState(z=1.5)
        with pytest.raises(DomainError):
            PhaseState(z=0.0, theta=math.inf)

    @pytest.mark.parametrize("r, nu", [(math.nan, 0.0), (math.inf, 0.0),
                                       (1.0, math.nan), (1.0, math.inf)])
    def test_model_params_must_be_finite(self, r, nu):
        with pytest.raises(DomainError):
            ModelParams(r=r, nu=nu)

    @pytest.mark.parametrize("fields", [
        dict(kind="constant", eta_start=math.nan, T=1.0),
        dict(kind="constant", eta_start=-1.0, T=math.inf),
        dict(kind="constant", eta_start=-1.0, T=math.nan),
        dict(kind="triangular", eta_start=-1.0, eta_peak=-math.inf, T=4.0),
        dict(kind="triangular", eta_start=math.inf, eta_peak=-3.0, T=4.0),
    ])
    def test_schedule_must_be_finite(self, fields):
        with pytest.raises(DomainError):
            EtaSchedule(**fields)

    @pytest.mark.parametrize("z", [math.nan, np.array([0.5, math.nan])],
                             ids=["float", "array"])
    def test_stationary_residual_refuses_nan_z(self, z):
        # through dh_dz's power_difference
        with pytest.raises(DomainError, match=r"requires \|z\| < 1"):
            stationary_residual(z, 0.0, -3.0, 5.0)

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("evaluate", [
        lambda eta: hamiltonian(PhaseState(0.5), eta, 2.0),
        lambda eta: grad_hamiltonian(PhaseState(0.5), eta, 2.0),
        lambda eta: stationary_residual(0.5, 0.0, eta, 2.0),
        lambda eta: stationary_residual(np.array([0.5, 0.1]), math.pi,
                                        np.array([-1.0, eta]), 2.0),
    ], ids=["hamiltonian", "grad_hamiltonian", "stationary_residual",
            "stationary_residual-array"])
    def test_non_finite_eta_is_refused(self, evaluate, eta):
        # as jacobian_at, vector_field and find_fixed_points refuse it
        with pytest.raises(DomainError, match="^eta must be finite, got "):
            evaluate(eta)

    @pytest.mark.parametrize("make, message", [
        (lambda big: ModelParams(r=1.0, nu=big), "damping nu must be finite"),
        (lambda big: PhaseState(z=0.0, theta=big), "theta must be finite"),
        (lambda big: IntegratorConfig(dt=big), "dt must be finite"),
        (lambda big: PhysicalContext(g=big), "g must be finite"),
        (lambda big: EtaSchedule("constant", T=big),
         "schedule duration T must be finite"),
        (lambda big: EtaSchedule("constant", eta_start=big),
         "eta_start must be finite"),
        (lambda big: EtaSchedule("triangular", eta_peak=big),
         "eta_peak must be finite"),
        (lambda big: find_fixed_points(big, 1.0), "eta must be finite"),
        (lambda big: vector_field(PhaseState(0.0), big, ModelParams(1.0)),
         "eta must be finite"),
        (lambda big: jacobian_at(PhaseState(0.0), big, ModelParams(1.0)),
         "eta must be finite"),
        (lambda big: hamiltonian(PhaseState(0.0), big, 1.0),
         "eta must be finite"),
        (lambda big: wrap_angle(big), "wrap_angle needs a finite theta"),
        (lambda big: trace_branches(5.0, (3.0, big), 10),
         "require finite 0 <= min < max in eta_range"),
    ], ids=["nu", "theta", "dt", "g", "T", "eta_start", "eta_peak",
            "find_fixed_points", "vector_field", "jacobian_at",
            "hamiltonian", "wrap_angle", "trace_branches"])
    def test_int_beyond_the_float_range_is_refused(self, make, message):
        # math.isfinite raised OverflowError and np.isfinite TypeError
        with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
            make(10 ** 400)

    def test_int_inside_the_float_range_is_accepted(self):
        # beyond int64, numpy would take such an int as an object
        assert ModelParams(r=1.0, nu=2 ** 70).nu == 2 ** 70
        assert wrap_angle(2 ** 70) == wrap_angle(float(2 ** 70))
        got = trace_branches(5.0, (3, 10 ** 300), 10).branches
        want = trace_branches(5.0, (3.0, 1e300), 10).branches
        assert [b.eta for b in got] == [b.eta for b in want]


COLUMNS = dict(tau=[0.0, 0.5, 1.0], z=[0.1, -0.2, 0.3],
               theta=[0.0, 1.0, 4.0], eta=[-1.0, -1.5, -2.0],
               H=[1.0, 2.0, 3.0], E=[-0.5, -1.0, -1.5])


def make_trajectory(**overrides):
    return Trajectory(**{**COLUMNS, **overrides}, params=ModelParams(r=1.0),
                      schedule=EtaSchedule(kind="constant", T=1.0))


class TestTrajectory:
    def test_samples_equal_the_columns(self):
        traj = make_trajectory()
        assert traj.samples == tuple(
            Sample(*row) for row in zip(*map(COLUMNS.get, Sample._fields)))
        for name in Sample._fields:
            assert getattr(traj, name).tolist() == COLUMNS[name]
        assert traj.final_state == PhaseState(z=0.3, theta=4.0)

    def test_columns_are_read_only(self):
        with pytest.raises(ValueError):
            make_trajectory().z[0] = 0.0

    @pytest.mark.parametrize("z", [[0.1, math.nan, 0.3], [0.1, 1.5, 0.3],
                                   [-math.inf, 0.0, 0.3]])
    def test_rejects_nan_or_out_of_range_z(self, z):
        with pytest.raises(DomainError):
            make_trajectory(z=z)

    @pytest.mark.parametrize("tau", [[0.0, 0.5, 0.5], [0.0, 1.0, 0.5],
                                     [0.0, math.nan, 1.0]])
    def test_rejects_non_increasing_tau(self, tau):
        with pytest.raises(DomainError):
            make_trajectory(tau=tau)

    @pytest.mark.parametrize("name", ["tau", "theta", "eta", "H", "E"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_values(self, name, value):
        column = COLUMNS[name][:-1] + [value]
        with pytest.raises(DomainError, match=f"column {name} must be finite"):
            make_trajectory(**{name: column})

    def test_rejects_ragged_columns(self):
        with pytest.raises(DomainError):
            make_trajectory(H=[1.0, 2.0])
