"""Acceptance gate: eight quantitative checks with pinned tolerances.

Each check carries its own independent oracle where one is needed; none
of the expected numbers below are produced by the code under test.
Every test also enforces a wall-clock budget.
"""

import math
import random
import time

import numpy as np
import pytest

from dimer_hysteresis import (EtaSchedule, IntegratorConfig, ModelParams,
                              PhaseState, R_THRESHOLD, find_eta_plus,
                              find_eta_star, find_fixed_points,
                              find_r_threshold, grad_hamiltonian, hamiltonian,
                              integrate, predict_window, run_sweep)
from kernel_oracles import eta_star_numeric

SWEEP_GRID = 128


def fold_coupling_oracle(r, points=2_000_001):
    """Brute-force fold locator: scan the coupling that makes each z
    stationary and take the minimum over a dense z grid."""
    z = np.linspace(1e-9, 1.0 - 1e-9, points)
    m = 2.0 ** (r + 1) * z / (np.sqrt(1.0 - z * z)
                              * ((1.0 + z) ** r - (1.0 - z) ** r))
    return float(m.min())


def root_oracle(eta, r, theta_star, grid=100_001):
    """Positive stationary roots by dense scan plus bisection, written
    with plain powers so it shares nothing with the package internals."""
    ct = math.cos(theta_star)

    def g(z):
        return (-2.0 * z * ct / math.sqrt(1.0 - z * z)
                - eta / 2.0 ** r * ((1.0 + z) ** r - (1.0 - z) ** r))

    zs = np.linspace(1e-9, 1.0 - 1e-9, grid)
    vals = (-2.0 * zs * ct / np.sqrt(1.0 - zs * zs)
            - eta / 2.0 ** r * ((1.0 + zs) ** r - (1.0 - zs) ** r))
    sign = np.sign(vals)
    roots = []
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        lo, hi = float(zs[i]), float(zs[i + 1])
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if g(lo) * g(mid) <= 0:
                hi = mid
            else:
                lo = mid
        roots.append(0.5 * (lo + hi))
    return sorted(roots)


def reference_sweep(r, eta_start, eta_peak):
    initial = PhaseState(z=0.01, theta=0.0)
    params = ModelParams(r=r, nu=0.5)
    schedule = EtaSchedule(kind="triangular", eta_start=eta_start,
                           eta_peak=eta_peak, T=4000.0)
    config = IntegratorConfig()
    report = run_sweep(initial, params, schedule, config, SWEEP_GRID)
    traj = integrate(initial, params, schedule, config, (0.0, 4000.0))
    return report, traj


@pytest.mark.criterion(1, "critical coupling closed form + numeric check")
def test_criterion_1_critical_coupling():
    t0 = time.perf_counter()
    expected = {1.0: 2.0, 2.0: 2.0, 3.0: 8.0 / 3.0, 4.0: 4.0, 5.0: 6.4}
    for r, value in expected.items():
        assert find_eta_star(r) == 2.0 ** r / r
        assert find_eta_star(r) == value
        assert abs(eta_star_numeric(r) - value) <= 1e-6
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.criterion(2, "threshold power located by bisection")
def test_criterion_2_threshold_power():
    t0 = time.perf_counter()
    found = find_r_threshold(3.0, 4.0, 1e-4)
    assert abs(found - (3.0 + math.sqrt(13.0)) / 2.0) <= 1e-4
    assert R_THRESHOLD == (3.0 + math.sqrt(13.0)) / 2.0
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.criterion(3, "fold couplings match a brute-force grid oracle")
def test_criterion_3_fold_couplings():
    t0 = time.perf_counter()
    for r, reference in ((4.0, 3.67), (5.0, 4.41)):
        got = find_eta_plus(r)
        assert got == pytest.approx(reference, abs=0.01)
        assert abs(got - fold_coupling_oracle(r)) <= 1e-3
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.criterion(4, "shallow-power ramp returns to symmetry, no loop")
def test_criterion_4_no_hysteresis_at_low_power():
    t0 = time.perf_counter()
    report, traj = reference_sweep(1.0, -1.0, -3.0)
    assert report.detected is False
    assert abs(traj.final_state.z) < 0.05
    assert time.perf_counter() - t0 < 30.0


@pytest.mark.criterion(5, "steep-power ramp shows the predicted loop window")
def test_criterion_5_hysteresis_at_high_power():
    t0 = time.perf_counter()
    report, traj = reference_sweep(5.0, -3.0, -8.0)
    assert report.detected is True

    lo, hi = predict_window(5.0)
    wlo, whi = report.window
    overlap = max(0.0, min(whi, hi) - max(wlo, lo))
    assert overlap >= 0.8 * (hi - lo)

    half = 2000.0
    interior = [s for s in traj.samples
                if s.tau > half and lo < abs(s.eta) < hi]
    assert interior
    assert all(abs(s.z) > 0.5 for s in interior)
    assert time.perf_counter() - t0 < 30.0


@pytest.mark.criterion(6, "undamped flow conserves H to 1e-8 over tau=1000")
def test_criterion_6_energy_conservation():
    t0 = time.perf_counter()
    config = IntegratorConfig(abs_tol=1e-10, rel_tol=1e-10)
    for r in (1.0, 5.0):
        for eta in (-1.0, -6.0):
            schedule = EtaSchedule(kind="constant", eta_start=eta, T=1000.0)
            traj = integrate(PhaseState(z=0.3, theta=0.7),
                             ModelParams(r=r, nu=0.0), schedule, config,
                             (0.0, 1000.0))
            h0 = traj.samples[0].H
            drift = max(abs(s.H - h0) for s in traj.samples)
            assert drift <= 1e-8, (r, eta, drift)
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.criterion(7, "fixed-point finder agrees with a dense oracle")
def test_criterion_7_fixed_point_oracle():
    t0 = time.perf_counter()
    rng = random.Random(20260816)
    for _ in range(50):
        eta = rng.uniform(-8.0, -0.5)
        r = rng.uniform(0.5, 6.0)
        points = find_fixed_points(eta, r)
        for theta_star in (0.0, math.pi):
            sheet = [p for p in points if p.theta_star == theta_star]
            assert sum(1 for p in sheet if p.z_star == 0.0) == 1
            pos = sorted(p.z_star for p in sheet if p.z_star > 0)
            neg = sorted(-p.z_star for p in sheet if p.z_star < 0)
            assert pos == neg, (eta, r, theta_star)
            expected = root_oracle(eta, r, theta_star)
            assert len(pos) == len(expected), (eta, r, theta_star)
            for a, b in zip(pos, expected):
                assert abs(a - b) <= 1e-6, (eta, r, theta_star)
    assert time.perf_counter() - t0 < 30.0


@pytest.mark.criterion(8, "analytic gradient matches finite differences")
def test_criterion_8_gradient_consistency():
    t0 = time.perf_counter()
    h = 1e-6
    worst = 0.0
    zs = np.linspace(-0.95, 0.95, 10)
    thetas = np.linspace(-math.pi, math.pi, 10)
    for r in (1.0, 2.5, 4.0, 5.0):
        for eta in (-2.0, -6.4):
            for z in zs:
                for theta in thetas:
                    gz, gt = grad_hamiltonian(
                        PhaseState(z=z, theta=theta), eta, r)
                    fd_z = (hamiltonian(PhaseState(z=z + h, theta=theta),
                                        eta, r)
                            - hamiltonian(PhaseState(z=z - h, theta=theta),
                                          eta, r)) / (2.0 * h)
                    fd_t = (hamiltonian(PhaseState(z=z, theta=theta + h),
                                        eta, r)
                            - hamiltonian(PhaseState(z=z, theta=theta - h),
                                          eta, r)) / (2.0 * h)
                    rel = (math.hypot(fd_z - gz, fd_t - gt)
                           / math.hypot(gz, gt))
                    worst = max(worst, rel)
    assert worst <= 1e-5
    assert time.perf_counter() - t0 < 1.0
