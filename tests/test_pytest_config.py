"""The repository's pytest settings report a failing Hypothesis property
as a failure and go on with the session.

pyproject.toml turns every warning into an error. On a failure,
Hypothesis's pytest plugin imports libcst, which warns that
mypy_extensions.TypedDict is deprecated; unless that one warning is
ignored, the error is raised inside pytest's report hook and ends the
session with INTERNALERROR, before the falsifying example is shown and
before the next test runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(n):
    assert n < 3


def test_after_the_property():
    pass
'''


def test_a_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-rA",
         "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_property_fails(" in out
    assert "PASSED test_failing.py::test_after_the_property" in out
    assert "1 failed, 1 passed" in out
