"""scripts/same_outputs.py's comparison, loaded from the script's path."""

import importlib.util
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_outputs.py"


@pytest.fixture(scope="module")
def same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def first_difference(same_outputs):
    return same_outputs.first_difference


@pytest.fixture(scope="module")
def number_report(same_outputs):
    return same_outputs.number_report


NEXT = math.nextafter(0.1, 1.0)
CSV = b"eta,z_star,stability\n-1.5,0.25,stable\n-2,0.1,unstable\n"
JSONL = (b'{"eta": -1.5, "eigenvalues": [[1e-15, 2.0], [-1e-15, -2.0]]}\n'
         b'{"eta": -2.0, "eigenvalues": [[0.5, 0.0], [-0.5, 0.0]]}\n')


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


@pytest.mark.parametrize("suffix, text", [
    (".csv", CSV), (".jsonl", JSONL), (".svg", b"<svg>1</svg>\n")])
def test_identical_files_have_no_report(number_report, suffix, text):
    assert number_report(suffix, text, text) == []


def test_a_one_ulp_change_is_one_ulp(number_report):
    moved = CSV.replace(b"0.1,", repr(NEXT).encode() + b",")
    assert number_report(".csv", CSV, moved) == [
        f"z_star: 1 of 2 numbers differ, largest |Δ| {NEXT - 0.1:.3g}, "
        "0 became 0.0, the others at most 1 ulps"]


def test_values_going_to_zero_are_counted_apart(number_report):
    # each eigenvalue's real and imaginary parts are separate paths
    zeroed = (JSONL.replace(b"1e-15", b"0.0")
              .replace(b"-0.5", b"-0.5000000000000001"))
    assert number_report(".jsonl", JSONL, zeroed) == [
        "eigenvalues[][0]: 3 of 4 numbers differ, largest |Δ| 1e-15, "
        "2 became 0.0, the others at most 1 ulps"]


def test_other_values_are_counted(number_report):
    flipped = CSV.replace(b"unstable", b"marginal")
    assert number_report(".csv", CSV, flipped) == [
        "stability: 1 other values differ"]


@pytest.mark.parametrize("suffix, a, b, want", [
    (".csv", CSV, CSV + b"-3,0.2,unstable\n", ["2 rows against 3"]),
    (".jsonl", JSONL, JSONL.split(b"\n")[0] + b"\n",
     ["10 values against 5, with other key paths"]),
])
def test_a_different_shape_is_named(number_report, suffix, a, b, want):
    assert number_report(suffix, a, b) == want


def test_integer_counts_differ_by_their_difference_alone(number_report):
    # as floats, 120 and 123 are about 2e14 ulps apart
    stats = b'{"run": "r1", "steps": 40, "rhs_evals": 120}\n'
    moved = stats.replace(b"120", b"123")
    assert number_report(".jsonl", stats, moved) == [
        "rhs_evals: 1 of 1 numbers differ, largest |Δ| 3"]
