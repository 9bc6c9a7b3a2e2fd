"""Collects per-criterion verdicts and prints them after the run, and
holds the fixtures that several test modules share."""

import pytest

from dimer_hysteresis import (EtaSchedule, IntegratorConfig, ModelParams,
                              PhaseState, integrate)

_RESULTS = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(num, label): acceptance criterion enforced by this test")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    mark = item.get_closest_marker("criterion")
    if mark is None:
        return
    num, label = mark.args
    if report.when == "call":
        _RESULTS[num] = (label, report.outcome == "passed")
    elif report.outcome not in ("passed",):
        # setup or teardown broke; the criterion did not hold
        _RESULTS.setdefault(num, (label, False))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_RESULTS):
        label, ok = _RESULTS[num]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"CRITERION {num}: {verdict} - {label}")


@pytest.fixture(scope="session", params=[(1.0, -1.0, -3.0), (5.0, -3.0, -8.0)],
                ids=["r1", "r5"])
def reference_ramp(request):
    """The reference ramps: nu 0.5, T 4000, z0 0.01, every 10th sample."""
    r, eta_start, eta_peak = request.param
    schedule = EtaSchedule(kind="triangular", eta_start=eta_start,
                           eta_peak=eta_peak, T=4000.0)
    return integrate(PhaseState(z=0.01, theta=0.0), ModelParams(r=r, nu=0.5),
                     schedule, IntegratorConfig(sample_stride=10),
                     (0.0, schedule.T))
