"""The decimal kernel of the trajectory CSV and SVG writers against the
% conversions it replaced, byte for byte, and the CSV's refusal of
non-finite values."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimer_hysteresis import (DomainError, EtaSchedule, ModelParams,
                              trajectory_from_csv, trajectory_to_csv)
from dimer_hysteresis import serialize
from dimer_hysteresis.serialize import TRAJECTORY_HEADER, _decimal_text

from kernel_oracles import coords_by_percent, csv_by_percent


def percent_text(values, seps, fmt):
    """Each value as fmt % value, followed by its column's separator."""
    row = "".join(fmt + sep for sep in seps)
    return row * (len(values) // len(seps)) % tuple(values)


def assert_like_percent(values, fixed):
    """The kernel writes values, as one column, exactly as % does."""
    values = np.asarray(values, dtype=np.float64)
    text, _ = _decimal_text([values], "\n", fixed)
    assert text == percent_text(values.tolist(), "\n",
                                "%.2f" if fixed else "%.15g")


def raw_doubles(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


# ties, carries, range ends and the neighbours of every power of ten
POWERS = [10.0 ** k for k in range(-323, 309)]
HAND_PICKED = sorted({
    *POWERS,
    *np.nextafter(POWERS, 0.0).tolist(),
    *np.nextafter(POWERS, math.inf).tolist(),
    9.999999999999995, 999999999999999.5, 99999999999999.95,
    100000000000000.5, 1000000000000000.5, 0.00009999999999999995,
    5e-324, 1e-310, 2.2250738585072014e-308, 2.225073858507201e-308,
    1.7976931348623157e308, 0.125, 0.375, 2.675, 1.005, 0.0, 1e22, 1e23,
}, key=abs)
HAND_PICKED += [-v for v in HAND_PICKED] + [math.nan, math.inf, -math.inf]

doubles = st.lists(st.floats(), min_size=1, max_size=40)
bit_patterns = st.lists(st.integers(0, 2 ** 64 - 1), min_size=1,
                        max_size=40).map(raw_doubles)
# exact decimal ties: k + 1/2 at 15 digits, k/8 at two decimals
g_ties = st.lists(st.integers(10 ** 14, 10 ** 15 - 1).map(lambda k: k + 0.5),
                  min_size=1, max_size=20)
f_ties = st.lists(st.integers(-10 ** 12, 10 ** 12).map(lambda k: k / 8),
                  min_size=1, max_size=20)


class TestFifteenDigits:
    @given(values=doubles)
    def test_doubles(self, values):
        assert_like_percent(values, fixed=False)

    @given(values=bit_patterns)
    def test_bit_patterns(self, values):
        assert_like_percent(values, fixed=False)

    @given(values=g_ties)
    def test_ties(self, values):
        assert_like_percent(values, fixed=False)

    def test_hand_picked(self):
        assert_like_percent(HAND_PICKED, fixed=False)

    @given(values=st.lists(st.floats(), min_size=6, max_size=60))
    def test_rows_of_six(self, values):
        values = values[:len(values) // 6 * 6]
        text, _ = _decimal_text(np.reshape(values, (-1, 6)).T, ",,,,,\n",
                                fixed=False)
        assert text == percent_text(values, ",,,,,\n", "%.15g")


class TestTwoDecimals:
    @given(values=doubles)
    def test_doubles(self, values):
        assert_like_percent(values, fixed=True)

    @given(values=bit_patterns)
    def test_bit_patterns(self, values):
        assert_like_percent(values, fixed=True)

    @given(values=f_ties)
    def test_ties(self, values):
        assert_like_percent(values, fixed=True)

    def test_hand_picked(self):
        assert_like_percent(HAND_PICKED, fixed=True)

    def test_negative_zero_keeps_its_sign(self):
        text, _ = _decimal_text(np.array([[-0.0], [0.0], [-0.004]]), "   ",
                                fixed=True)
        assert text.split() == ["-0.00", "0.00", "-0.00"]

    @given(values=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=60))
    def test_polyline_coordinates(self, values):
        xy = np.reshape(values * 2, (-1, 2))
        assert _decimal_text(xy.T, ", ", fixed=True)[0][:-1] == \
            coords_by_percent(xy)


class TestWorkingType:
    def test_powers_are_correctly_rounded(self):
        # the error bound assumes each power within half an ulp
        t = serialize._tables(serialize._WORK)
        eps = np.finfo(serialize._WORK).eps
        half_eps = Fraction(*eps.as_integer_ratio()) / 2
        ks = range(serialize._POW_LOW, serialize._POW_HIGH + 1)
        for k, power in zip(ks, t.powers):
            exact = Fraction(10) ** k * 2 ** serialize._FRACTION
            assert abs(Fraction(*power.as_integer_ratio()) - exact) \
                <= half_eps * exact

    def test_plain_doubles_stay_exact_with_more_fallbacks(self, monkeypatch):
        rng = np.random.default_rng(7)
        values = np.concatenate((
            rng.standard_normal(3000) * 10.0 ** rng.integers(-40, 40, 3000),
            raw_doubles(rng.integers(0, 2 ** 64, 3000, dtype=np.uint64)),
            HAND_PICKED))
        counts = {}
        for work in (serialize._WORK, np.float64):
            monkeypatch.setattr(serialize, "_WORK", work)
            for fixed, fmt in ((False, "%.15g"), (True, "%.2f")):
                text, counts[work, fixed] = _decimal_text([values], "\n",
                                                          fixed)
                assert text == percent_text(values.tolist(), "\n", fmt)
        if np.finfo(np.longdouble).eps < np.finfo(np.float64).eps:
            for fixed in (False, True):
                assert counts[np.float64, fixed] > \
                    counts[np.longdouble, fixed]


class TestTrajectoryCsv:
    def test_reference_ramp_matches_the_percent_writer(self, reference_ramp):
        assert trajectory_to_csv(reference_ramp) == \
            csv_by_percent(reference_ramp)

    @pytest.mark.parametrize("column", [1, 3, 4, 5],
                             ids=["eta", "theta", "H", "E"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_values_are_refused_on_reading(self, column, value):
        # a theta of inf used to be read, then failed in math.remainder
        # when written again
        row = ["1", "-1", "0.5", "0.25", "1.5", "-0.75"]
        row[column] = value
        text = TRAJECTORY_HEADER + "\n0,-1,0.5,0.25,1.5,-0.75\n" + \
            ",".join(row) + "\n"
        with pytest.raises(DomainError, match="must be finite"):
            trajectory_from_csv(text, ModelParams(r=1.0),
                                EtaSchedule(kind="constant", eta_start=-1.0,
                                            T=1.0))

    @pytest.mark.parametrize("rows", [1, serialize._BLOCK + 2])
    @pytest.mark.parametrize("field", ["abc", "", "1.5.2"])
    @pytest.mark.parametrize("blank", [0, 2])
    def test_non_numeric_fields_are_refused_with_their_line(self, rows,
                                                            field, blank):
        lines = ["%d,-1,0.5,0.25,1.5,-0.75" % k for k in range(rows + 1)]
        lines[rows] = "%d,-1,0.5,%s,1.5,-0.75" % (rows, field)
        text = "\n" * blank + TRAJECTORY_HEADER + "\n" + "\n".join(lines) \
            + "\n"
        # the header is line blank + 1, so lines[rows] is line
        # blank + rows + 2
        message = f"line {blank + rows + 2}: {field!r} is not a number: " \
            f"'{lines[rows]}'"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            trajectory_from_csv(text, ModelParams(r=1.0),
                                EtaSchedule(kind="constant", eta_start=-1.0,
                                            T=float(rows + 1)))

    def test_crlf_text_reads_as_the_lf_text(self, reference_ramp):
        text = trajectory_to_csv(reference_ramp)
        args = (reference_ramp.params, reference_ramp.schedule)
        want = trajectory_from_csv(text, *args)
        got = trajectory_from_csv(text.replace("\n", "\r\n"), *args)
        for name in ("tau", "eta", "z", "theta", "H", "E"):
            assert getattr(got, name).tolist() == getattr(want, name).tolist()

    def test_crlf_bad_field_is_named_by_its_line(self):
        text = (TRAJECTORY_HEADER + "\n0,-1,0.5,0.25,1.5,-0.75\n"
                "1,-1,0.5,abc,1.5,-0.75\n").replace("\n", "\r\n")
        with pytest.raises(DomainError,
                           match="^line 3: 'abc' is not a number: "):
            trajectory_from_csv(text, ModelParams(r=1.0),
                                EtaSchedule(kind="constant", eta_start=-1.0,
                                            T=1.0))

    @settings(max_examples=50)
    @given(rows=st.lists(st.tuples(st.floats(-1.0, 1.0),
                                   st.floats(-1e6, 1e6)), min_size=1,
                         max_size=30))
    def test_read_back_trajectories_match_the_percent_writer(self, rows):
        z, theta = np.array(rows).T
        tau = np.arange(len(rows), dtype=float)
        text = TRAJECTORY_HEADER + "\n" + "".join(
            "%.15g,-1,%.15g,%.15g,1,2\n" % (t, zv, th)
            for t, zv, th in zip(tau.tolist(), z.tolist(), theta.tolist()))
        schedule = EtaSchedule(kind="constant", eta_start=-1.0,
                               T=max(1.0, tau[-1]))
        traj = trajectory_from_csv(text, ModelParams(r=1.0), schedule)
        assert trajectory_to_csv(traj) == csv_by_percent(traj)
