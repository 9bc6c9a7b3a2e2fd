"""The package's public names."""

import dimer_hysteresis


def test_all_names_resolve_once_and_star_import_works():
    names = dimer_hysteresis.__all__
    assert len(names) == len(set(names)), "duplicate names in __all__"
    missing = [n for n in names if not hasattr(dimer_hysteresis, n)]
    assert not missing, f"__all__ names no attribute: {missing}"
    namespace = {}
    exec("from dimer_hysteresis import *", namespace)
    assert set(names) <= set(namespace)
