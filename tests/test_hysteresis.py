"""Sweep binning, loop quantification, and the detection verdict."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimer_hysteresis import (AREA_THRESHOLD, DomainError, EtaSchedule,
                              FloatFloorError, GridCoverageError,
                              HysteresisReport, IntegratorConfig, ModelParams,
                              PhaseState, Trajectory, Z_GAP_THRESHOLD,
                              find_eta_star, integrate, predict_window,
                              run_sweep, schedule_column, sweep_report)
from dimer_hysteresis.hysteresis import _bin_passes, _longest_gap_window
from dimer_hysteresis.serialize import (TRAJECTORY_HEADER,
                                        trajectory_from_csv,
                                        trajectory_to_csv)


def make_report(**overrides):
    base = dict(
        r=5.0, nu=0.5,
        forward_trace=((3.0, 0.1), (4.0, 0.2), (5.0, 0.9)),
        backward_trace=((3.0, 0.1), (4.0, 0.8), (5.0, 0.9)),
        loop_area=0.3, bistable_area=0.3, detected=True,
        window=(3.5, 4.5), reference={"eta_star": 6.4, "eta_plus": 4.41})
    base.update(overrides)
    return HysteresisReport(**base)


class TestReportInvariants:
    def test_valid_report_constructs(self):
        rep = make_report()
        assert rep.detected

    def test_grid_mismatch_rejected(self):
        with pytest.raises(DomainError):
            make_report(backward_trace=((3.0, 0.1), (4.5, 0.8), (5.0, 0.9)))

    def test_negative_area_rejected(self):
        with pytest.raises(DomainError):
            make_report(loop_area=-0.1)
        with pytest.raises(DomainError):
            make_report(bistable_area=-0.1)

    def test_detected_needs_area_above_threshold(self):
        with pytest.raises(DomainError):
            make_report(loop_area=0.01, bistable_area=0.01)

    def test_window_must_increase(self):
        with pytest.raises(DomainError):
            make_report(window=(4.5, 3.5))

    def test_window_must_lie_inside_grid(self):
        with pytest.raises(DomainError):
            make_report(window=(0.5, 4.5))


def longest_gap_window_by_walk(centers, gap):
    """The former index walk: the oracle for _longest_gap_window."""
    above = gap > Z_GAP_THRESHOLD
    best = (0, 0)
    i = 0
    n = len(above)
    while i < n:
        if above[i]:
            j = i
            while j + 1 < n and above[j + 1]:
                j += 1
            if j - i > best[1] - best[0]:
                best = (i, j)
            i = j + 1
        else:
            i += 1
    if best[1] <= best[0]:
        return None
    return (float(centers[best[0]]), float(centers[best[1]]))


class TestWindowExtraction:
    def test_no_bins_above_threshold(self):
        centers = np.array([1.0, 2.0, 3.0])
        assert _longest_gap_window(centers, np.zeros(3)) is None

    def test_single_bin_is_not_a_window(self):
        centers = np.array([1.0, 2.0, 3.0])
        gap = np.array([0.0, 0.5, 0.0])
        assert _longest_gap_window(centers, gap) is None

    def test_threshold_is_strict(self):
        centers = np.array([1.0, 2.0])
        assert _longest_gap_window(
            centers, np.array([Z_GAP_THRESHOLD, Z_GAP_THRESHOLD])) is None
        got = _longest_gap_window(
            centers, np.array([Z_GAP_THRESHOLD + 1e-9] * 2))
        assert got == (1.0, 2.0)

    def test_longest_run_wins(self):
        centers = np.arange(1.0, 9.0)
        gap = np.array([0.5, 0.5, 0.0, 0.5, 0.5, 0.5, 0.0, 0.5])
        assert _longest_gap_window(centers, gap) == (4.0, 6.0)

    def test_run_at_the_end_is_found(self):
        centers = np.arange(1.0, 5.0)
        gap = np.array([0.0, 0.0, 0.5, 0.5])
        assert _longest_gap_window(centers, gap) == (3.0, 4.0)

    def test_first_of_equal_runs_wins(self):
        centers = np.arange(1.0, 8.0)
        gap = np.array([0.5, 0.5, 0.0, 0.5, 0.5, 0.0, 0.5])
        assert _longest_gap_window(centers, gap) == (1.0, 2.0)

    def test_single_bin_runs_give_none(self):
        centers = np.arange(1.0, 6.0)
        gap = np.array([0.5, 0.0, 0.5, 0.0, 0.5])
        assert _longest_gap_window(centers, gap) is None

    def test_every_bin_above_is_one_window(self):
        centers = np.arange(1.0, 5.0)
        assert _longest_gap_window(centers, np.full(4, 0.5)) == (1.0, 4.0)

    @given(gaps=st.lists(st.sampled_from([0.0, Z_GAP_THRESHOLD, 0.5]),
                         max_size=40))
    def test_agrees_with_the_walk_oracle(self, gaps):
        centers = np.linspace(1.0, 2.0, len(gaps))
        gap = np.array(gaps, dtype=np.float64)
        assert _longest_gap_window(centers, gap) == \
            longest_gap_window_by_walk(centers, gap)


def bin_passes_by_masks(taus, abs_etas, abs_zs, T, lo, hi, grid_size):
    """The former binning, one boolean mask pass per bin: the oracle for
    _bin_passes."""
    edges = np.linspace(lo, hi, grid_size + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    idx = np.clip(np.digitize(abs_etas, edges) - 1, 0, grid_size - 1)
    forward = taus < T / 2.0
    zf = np.zeros(grid_size)
    zb = np.zeros(grid_size)
    for i in range(grid_size):
        in_bin = idx == i
        mf = in_bin & forward
        mb = in_bin & ~forward
        if not mf.any() or not mb.any():
            side = "forward" if not mf.any() else "backward"
            raise GridCoverageError(
                f"{side} bin {i} around |eta|={centers[i]:.4g} received no "
                f"samples; lower grid_size or raise sample_stride")
        zf[i] = np.mean(abs_zs[mf])
        zb[i] = np.mean(abs_zs[mb])
    return centers, zf, zb


def assert_binning_matches_oracle(*args):
    try:
        centers, zf, zb = bin_passes_by_masks(*args)
    except GridCoverageError as exc:
        with pytest.raises(GridCoverageError) as got:
            _bin_passes(*args)
        assert str(got.value) == str(exc)
        return False
    got = _bin_passes(*args)
    assert got[0].tolist() == centers.tolist()
    np.testing.assert_allclose(got[1], zf, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(got[2], zb, rtol=0.0, atol=1e-12)
    return True


class TestBinning:
    def test_one_sample_per_bin_and_side(self):
        taus = np.array([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 8.0])
        etas = np.array([0.5, 1.5, 2.5, 3.5, 3.5, 2.5, 1.5, 0.5])
        zs = np.array([0.1, 0.2, 0.3, 0.4, 0.8, 0.7, 0.6, 0.5])
        centers, zf, zb = _bin_passes(taus, etas, zs, 8.5, 0.0, 4.0, 4)
        assert centers.tolist() == [0.5, 1.5, 2.5, 3.5]
        assert zf.tolist() == [0.1, 0.2, 0.3, 0.4]
        assert zb.tolist() == [0.5, 0.6, 0.7, 0.8]

    def test_means_within_bins(self):
        taus = np.array([0.0, 1.0, 6.0, 7.0])
        etas = np.array([0.2, 0.8, 0.7, 0.1])
        zs = np.array([0.1, 0.3, 0.5, 0.9])
        centers, zf, zb = _bin_passes(taus, etas, zs, 8.0, 0.0, 1.0, 1)
        assert zf[0] == pytest.approx(0.2)
        assert zb[0] == pytest.approx(0.7)

    def test_sample_on_upper_edge_lands_in_last_bin(self):
        taus = np.array([0.0, 1.0, 6.0, 7.0])
        etas = np.array([0.5, 4.0, 4.0, 0.5])
        zs = np.array([0.0, 0.0, 0.0, 0.0])
        centers, zf, zb = _bin_passes(taus, etas, zs, 8.0, 0.0, 4.0, 2)
        assert len(centers) == 2

    def test_empty_bin_names_side_and_center(self):
        taus = np.array([0.0, 1.0, 6.0, 7.0])
        etas = np.array([0.5, 0.6, 3.5, 0.5])
        zs = np.zeros(4)
        with pytest.raises(GridCoverageError, match="forward"):
            _bin_passes(taus, etas, zs, 8.0, 0.0, 4.0, 2)

    @given(st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_recovered_means_match_a_direct_average(self, zvals):
        taus = np.array([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 8.0])
        etas = np.array([0.5, 0.7, 1.5, 1.7, 1.6, 1.4, 0.6, 0.4])
        zs = np.array(zvals)
        centers, zf, zb = _bin_passes(taus, etas, zs, 8.5, 0.0, 2.0, 2)
        assert zf[0] == pytest.approx(np.mean(zs[:2]))
        assert zf[1] == pytest.approx(np.mean(zs[2:4]))
        assert zb[1] == pytest.approx(np.mean(zs[4:6]))
        assert zb[0] == pytest.approx(np.mean(zs[6:]))

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 12),
           st.integers(4, 120))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_mask_oracle(self, seed, grid, n):
        # random samples leave some bins empty, so both outcomes occur:
        # equal means, or the same error for the same side and bin
        rng = np.random.default_rng(seed)
        taus = np.sort(rng.uniform(0.0, 10.0, n))
        etas = rng.uniform(0.0, 4.0, n)
        zs = rng.uniform(0.0, 1.0, n)
        assert_binning_matches_oracle(taus, etas, zs, 10.0, 0.0, 4.0, grid)

    def test_empty_backward_bin_matches_oracle(self):
        taus = np.array([0.0, 1.0, 2.0, 3.0, 6.0, 7.0, 8.0])
        etas = np.array([0.5, 1.5, 2.5, 3.5, 3.5, 2.5, 0.5])
        with pytest.raises(GridCoverageError, match="backward bin 1 "):
            _bin_passes(taus, etas, np.zeros(7), 9.0, 0.0, 4.0, 4)
        assert not assert_binning_matches_oracle(
            taus, etas, np.zeros(7), 9.0, 0.0, 4.0, 4)

    @pytest.mark.parametrize("grid", [128, 256])
    def test_reference_ramp_matches_oracle(self, r5_traj, grid):
        assert assert_binning_matches_oracle(
            r5_traj.tau, np.abs(r5_traj.eta), np.abs(r5_traj.z),
            r5_traj.schedule.T, 3.0, 8.0, grid)


class TestPredictWindow:
    def test_subcritical_powers(self):
        lo, hi = predict_window(5.0)
        assert lo == pytest.approx(4.41, abs=0.01)
        assert hi == 6.4
        lo4, hi4 = predict_window(4.0)
        assert lo4 == pytest.approx(3.67, abs=0.01)
        assert hi4 == 4.0

    def test_supercritical_powers_have_none(self):
        assert predict_window(1.0) is None
        assert predict_window(3.0) is None


def sweep_inputs(r, eta_start, eta_peak, T=4000.0, z0=0.01):
    return (PhaseState(z=z0, theta=0.0), ModelParams(r=r, nu=0.5),
            EtaSchedule(kind="triangular", eta_start=eta_start,
                        eta_peak=eta_peak, T=T),
            IntegratorConfig())


def sweep(r, eta_start, eta_peak, T=4000.0, grid=128, z0=0.01):
    return run_sweep(*sweep_inputs(r, eta_start, eta_peak, T, z0), grid)


@pytest.fixture(scope="module")
def r5_traj():
    initial, params, schedule, config = sweep_inputs(5.0, -3.0, -8.0)
    return integrate(initial, params, schedule, config, (0.0, schedule.T))


@pytest.fixture(scope="module")
def r5_report(r5_traj):
    return sweep_report(r5_traj, 128)


class TestRunSweepValidation:
    def test_rejects_coarse_grid(self):
        sched = EtaSchedule(kind="triangular", eta_start=-1.0,
                            eta_peak=-3.0, T=100.0)
        initial, params = PhaseState(z=0.01), ModelParams(r=1.0, nu=0.5)
        traj = integrate(initial, params, sched, IntegratorConfig(),
                         (0.0, sched.T))
        # the grid size must be an integer >= 16
        for grid in (8, 20.5, math.nan, "32"):
            with pytest.raises(DomainError):
                run_sweep(initial, params, sched, IntegratorConfig(), grid)
            with pytest.raises(DomainError):
                sweep_report(traj, grid)

    def test_grid_outrunning_samples_is_reported(self):
        sched = EtaSchedule(kind="triangular", eta_start=-1.0,
                            eta_peak=-3.0, T=100.0)
        with pytest.raises(GridCoverageError):
            run_sweep(PhaseState(z=0.01), ModelParams(r=1.0, nu=0.5),
                      sched, IntegratorConfig(), 64)

    def test_run_sweep_is_sweep_report_of_the_integration(self):
        initial, params, schedule, config = sweep_inputs(5.0, -3.0, -8.0,
                                                          T=400.0)
        traj = integrate(initial, params, schedule, config, (0.0, 400.0))
        assert run_sweep(initial, params, schedule, config, 32) == \
            sweep_report(traj, 32)

    @pytest.mark.parametrize("kind", ("constant", "triangular"))
    @pytest.mark.parametrize("span", ((0.0, 25.0), (25.0, 100.0)))
    def test_partial_span_is_refused(self, kind, span):
        # a partial constant run gave a NaN trace, a partial triangular
        # one a GridCoverageError that blamed the grid
        sched = EtaSchedule(kind=kind, eta_start=-1.0, eta_peak=-3.0,
                            T=100.0)
        traj = integrate(PhaseState(z=0.01), ModelParams(r=1.0, nu=0.5),
                         sched, IntegratorConfig(), span)
        with pytest.raises(DomainError, match=r"over \[0, 100.0\]"):
            sweep_report(traj, 16)

    def test_csv_trajectories_are_checked_for_their_span(self):
        sched = EtaSchedule(kind="triangular", eta_start=-1.0,
                            eta_peak=-3.0, T=100.0)
        params = ModelParams(r=1.0, nu=0.5)
        traj = integrate(PhaseState(z=0.01), params, sched,
                         IntegratorConfig(), (0.0, 100.0))
        back = trajectory_from_csv(trajectory_to_csv(traj), params, sched)
        # read back to 15 digits, so the report itself may move in
        # the last bits
        assert len(sweep_report(back, 16).forward_trace) == 16
        empty = trajectory_from_csv(TRAJECTORY_HEADER + "\n", params, sched)
        with pytest.raises(DomainError, match="got 0 over"):
            sweep_report(empty, 16)

    @staticmethod
    def floor_trajectory(kind, z0, theta0):
        """A hand-built run that decays from (z0, theta0) and is exactly
        (0, 0) from tau = 30 on."""
        schedule = EtaSchedule(kind=kind, eta_start=-3.0, eta_peak=-8.0,
                               T=100.0)
        tau = np.linspace(0.0, 100.0, 201)
        decay = np.where(tau < 30.0, np.exp(-tau), 0.0)
        zeros = np.zeros_like(tau)
        return Trajectory(tau, z0 * decay, theta0 * decay,
                          schedule_column(schedule, tau), zeros, zeros,
                          ModelParams(r=5.0, nu=0.5), schedule)

    @pytest.mark.parametrize("z0, theta0", [(0.01, 0.0), (0.0, 0.1)])
    def test_float_floor_is_refused_naming_the_tau(self, z0, theta0):
        traj = self.floor_trajectory("triangular", z0, theta0)
        with pytest.raises(FloatFloorError, match=r"at tau=30\.0,"):
            sweep_report(traj, 16)
        assert issubclass(FloatFloorError, RuntimeError)

    def test_start_at_the_symmetric_point_is_no_floor(self):
        traj = self.floor_trajectory("triangular", 0.0, 0.0)
        assert sweep_report(traj, 16).loop_area == 0.0

    def test_constant_schedule_keeps_its_degenerate_report(self):
        traj = self.floor_trajectory("constant", 0.01, 0.0)
        assert sweep_report(traj, 16).loop_area == 0.0

    def test_constant_schedule_degenerates(self):
        rep = run_sweep(PhaseState(z=0.01), ModelParams(r=1.0, nu=0.5),
                        EtaSchedule(kind="constant", eta_start=-3.0, T=50.0),
                        IntegratorConfig(), 16)
        assert rep.loop_area == 0.0
        assert rep.bistable_area == 0.0
        assert rep.detected is False
        assert rep.window is None
        assert len(rep.forward_trace) == 16
        assert len(set(rep.forward_trace)) == 1
        assert rep.forward_trace[0][0] == 3.0


class TestSweepVerdicts:
    def test_supercritical_sweep_not_detected(self):
        rep = sweep(1.0, -1.0, -3.0)
        assert rep.detected is False
        assert rep.bistable_area < AREA_THRESHOLD
        # the forward jump is delayed past eta_star, so the full-grid
        # integral alone would misflag this run
        assert rep.loop_area > AREA_THRESHOLD
        assert rep.reference["eta_plus"] is None
        assert rep.reference["eta_star"] == 2.0

    def test_other_supercritical_powers_not_detected(self):
        for r in (2.0, 3.0):
            rep = sweep(r, -1.0, -1.5 * find_eta_star(r))
            assert rep.detected is False, r
            assert rep.bistable_area < AREA_THRESHOLD, r

    def test_subcritical_sweep_detected(self, r5_report):
        assert r5_report.detected is True
        assert r5_report.bistable_area > AREA_THRESHOLD
        assert r5_report.loop_area >= r5_report.bistable_area

    def test_subcritical_window_covers_prediction(self, r5_report):
        lo, hi = predict_window(5.0)
        wlo, whi = r5_report.window
        overlap = max(0.0, min(whi, hi) - max(wlo, lo))
        assert overlap >= 0.8 * (hi - lo)

    def test_traces_share_grid_and_span_schedule(self, r5_report):
        grid = [p[0] for p in r5_report.forward_trace]
        assert len(grid) == 128
        assert grid == sorted(grid)
        assert 3.0 < grid[0] < grid[-1] < 8.0

    def test_loop_area_stable_under_slower_ramp(self, r5_report):
        slow = sweep(5.0, -3.0, -8.0, T=8000.0)
        rel = abs(slow.loop_area - r5_report.loop_area) / r5_report.loop_area
        assert rel < 0.10
        assert slow.detected is True
