"""The package's public names."""

import inspect
import math

import numpy as np
import pytest

import dimer_hysteresis
from dimer_hysteresis import DomainError, PhaseState


def test_all_names_resolve_once_and_star_import_works():
    names = dimer_hysteresis.__all__
    assert len(names) == len(set(names)), "duplicate names in __all__"
    missing = [n for n in names if not hasattr(dimer_hysteresis, n)]
    assert not missing, f"__all__ names no attribute: {missing}"
    namespace = {}
    exec("from dimer_hysteresis import *", namespace)
    assert set(names) <= set(namespace)


# valid values, by parameter name, for the parameters next to r
VALID_ARGS = {
    "z": np.array([0.5]),
    "theta": np.array([0.0]),
    "theta_star": 0.0,
    "eta": -1.0,
    "state": PhaseState(z=0.5),
    "eta_range": (1.0, 3.0),
    "steps": 10,
}

TAKES_R = sorted(
    name for name in dimer_hysteresis.__all__
    if inspect.isfunction(getattr(dimer_hysteresis, name))
    and "r" in inspect.signature(getattr(dimer_hysteresis, name)).parameters)


def call_with_r(name, r):
    fn = getattr(dimer_hysteresis, name)
    args = {p.name: VALID_ARGS[p.name]
            for p in inspect.signature(fn).parameters.values()
            if p.name != "r" and p.default is p.empty}
    return fn(r=r, **args)


def test_functions_taking_r_are_found():
    assert len(TAKES_R) >= 13
    assert {"power_difference", "pitchfork_cubic_coefficient"} <= set(TAKES_R)


@pytest.mark.parametrize("name", TAKES_R)
def test_every_function_taking_r_validates_it(name):
    call_with_r(name, 2.0)
    # just above r = 1014, 2^r (r+1) overflows a float
    for r in (0.0, -1.0, math.nan, math.inf, 1014.0, 1020.0, 1023.0, 1100.0):
        with pytest.raises(DomainError):
            call_with_r(name, r)


PACKAGE_ERRORS = tuple(
    value for value in vars(dimer_hysteresis.errors).values()
    if isinstance(value, type) and issubclass(value, Exception))


@pytest.mark.parametrize("name", TAKES_R)
@pytest.mark.parametrize("r", [300.0, 700.0, 1000.0, 1013.0])
def test_large_powers_end_in_a_result_or_a_package_error(name, r):
    try:
        call_with_r(name, r)
    except PACKAGE_ERRORS:
        pass
