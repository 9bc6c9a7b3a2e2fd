"""scripts/same_outputs.py's comparison, loaded from the script's path."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_outputs.py"


@pytest.fixture(scope="module")
def first_difference():
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.first_difference


def test_same_bytes_have_no_difference(first_difference):
    assert first_difference(b"a\r\nb\n", b"a\r\nb\n") is None


def test_a_missing_final_newline_is_named(first_difference):
    assert first_difference(b"a\nb\n", b"a\nb") == (
        2, "b", "b", r"only the final newline differs: b'\n' against b''")


def test_crlf_line_endings_are_named(first_difference):
    assert first_difference(b"a\nb\r\nc\n", b"a\nb\nc\n") == (
        2, "b", "b",
        r"only the line ending differs: b'\r\n' against b'\n'")


@pytest.mark.parametrize("a, b, want", [
    (b"a\nb\n", b"a\nc\n", (2, "b", "c", "")),
    (b"a\n", b"a\n\n", (2, "<end of file>", "", "")),
    (b"a\nb\n", b"a\n", (2, "b", "<end of file>", "")),
])
def test_other_differences_give_the_first_differing_line(
        first_difference, a, b, want):
    assert first_difference(a, b) == want
