"""The decimal kernel of the trajectory CSV and SVG writers against the
% conversions it replaced, byte for byte; the trajectory CSV reader
against the block reader it replaced, bit for bit and message for
message, and its refusal of non-finite values and of rows without six
fields."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimer_hysteresis import (DomainError, EtaSchedule, ModelParams,
                              trajectory_from_csv, trajectory_to_csv)
from dimer_hysteresis import serialize
from dimer_hysteresis.serialize import TRAJECTORY_HEADER, _decimal_text

from kernel_oracles import (CSV_BLOCK, coords_by_percent, csv_by_percent,
                            trajectory_from_csv_by_blocks)


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

    @pytest.mark.parametrize("rows", [1, CSV_BLOCK + 2])
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

    @pytest.mark.parametrize("header", ["tau,eta,z,theta,H", "tau,z,eta,theta,H,E"])
    def test_wrong_header_is_refused(self, header):
        text = header + "\n0,-1,0.5,0.25,1.5,-0.75\n"
        message = f"expected header {TRAJECTORY_HEADER!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            trajectory_from_csv(text, ModelParams(r=1.0),
                                EtaSchedule(kind="constant", eta_start=-1.0,
                                            T=1.0))

    def test_header_only_text_reads_with_no_final_state(self):
        traj = trajectory_from_csv(TRAJECTORY_HEADER + "\n",
                                   ModelParams(r=1.0),
                                   EtaSchedule(kind="constant", T=1.0))
        assert traj.samples == ()
        with pytest.raises(DomainError, match="trajectory has no samples"):
            traj.final_state

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

    @pytest.mark.parametrize("blank", [0, 2])
    @pytest.mark.parametrize("rows, line, got", [
        (["0,-1,0.5,0.25,1.5,-0.75", "1,-1,0.5,0.25,1.5"], 3, 5),
        (["0,-1,0.5,0.25,1.5,-0.75", "", "1,-1,0.5,0.25,1.5,-0.75"], 3, 1),
        (["0,-1,0.5,0.25,1.5,-0.75,9"], 2, 7),
    ], ids=["short-row", "blank-middle-line", "long-row"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_rows_without_six_fields_are_refused_with_their_line(
            self, blank, rows, line, got, newline):
        # a full row after the bad one, which so keeps a CRLF line's "\r"
        text = (newline * blank + TRAJECTORY_HEADER + newline
                + newline.join(rows + ["9,-1,0.5,0.25,1.5,-0.75"]) + newline)
        bad = rows[line - 2] + newline[:-1]
        message = f"line {blank + line}: expected 6 columns, got {got}: " \
            f"{bad!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            trajectory_from_csv(text, ModelParams(r=1.0),
                                EtaSchedule(kind="constant", eta_start=-1.0,
                                            T=1.0))


# fields that float() refuses, or reads although np.loadtxt does not
# (1_5, the Arabic-Indic 12, values padded with a non-ASCII space), or
# that np.loadtxt alone would read (values padded with \x1c-\x1f); the
# ASCII spaces \x0b and \x0c pad a value both read
TOKENS = ["", " ", "abc", "1_5", " 1.5", "2.5 ", "\t2", "nan", "-inf",
          "Infinity", "nan(1)", "1.5.2", "0x10", "1e", "+1", "-0", ".5", "5.",
          "1e5", "\u0661\u0662", "1\x002", "1 2", "--1", "\x0b1", "2\x0c",
          "\x1c3", "4\x1d", "\x1e.5", "5.\x1f", "\xa06", "7\u2028"]
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
           1.7976931348623157e308, -1.7976931348623157e308]
finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(SPECIAL))
unit = st.one_of(st.floats(-1.0, 1.0), st.sampled_from(SPECIAL[:6]))


@st.composite
def csv_texts(draw):
    """Trajectory CSV texts: rows of %.15g or repr values, tau the row's
    index and z in [-1, 1], with drawn tokens in place of some fields, a
    short, long or blank row, leading blank lines, CRLF line ends and
    an optional final newline."""
    rows = []
    for k in range(draw(st.integers(1, 8))):
        values = [float(k), draw(finite), draw(unit),
                  *(draw(finite) for _ in range(3))]
        rows.append([repr(v) if draw(st.booleans()) else "%.15g" % v
                     for v in values])
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, 5))] = draw(st.sampled_from(TOKENS))
    lines = [",".join(row) for row in rows]
    i = draw(st.integers(0, len(lines) - 1))
    width = draw(st.sampled_from(["six"] * 5 + ["short", "long", "blank"]))
    if width == "short":
        lines[i] = lines[i].rpartition(",")[0]
    elif width == "long":
        lines[i] += ",1"
    elif width == "blank":
        lines.insert(i, "")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = (newline * draw(st.integers(0, 2)) + TRAJECTORY_HEADER + newline
            + newline.join(lines))
    return text + newline if draw(st.booleans()) else text


def read_back(reader, text):
    """The columns reader reads from text, bits packed, or the message
    of the DomainError it raises."""
    try:
        traj = reader(text, ModelParams(r=1.0),
                      EtaSchedule(kind="constant", eta_start=-1.0, T=1.0))
    except DomainError as exc:
        return str(exc)
    return [getattr(traj, name).tobytes()
            for name in ("tau", "eta", "z", "theta", "H", "E")]


class TestReaderOracle:
    """trajectory_from_csv against the former block reader: the same
    column bits, or the same DomainError message."""

    @settings(max_examples=400, deadline=None)
    @given(text=csv_texts())
    # an empty last field ends the body in a separator, which
    # np.fromstring, the reader before np.loadtxt, read past, one value
    # short
    @example(text=TRAJECTORY_HEADER + "\n0,-1,0.5,0.25,1.5,\n")
    @example(text=TRAJECTORY_HEADER + "\r\n0,-1,0.5,0.25,1.5,\r\n")
    def test_row_texts_read_as_the_block_reader(self, text):
        assert read_back(trajectory_from_csv, text) == \
            read_back(trajectory_from_csv_by_blocks, text)

    def test_reference_ramp_reads_as_the_block_reader(self, reference_ramp):
        text = trajectory_to_csv(reference_ramp)
        for crlf in (False, True):
            if crlf:
                text = text.replace("\n", "\r\n")
            assert read_back(trajectory_from_csv, text) == \
                read_back(trajectory_from_csv_by_blocks, text)

    @pytest.mark.parametrize("field, value", [
        ("1_5", 15.0), (" 1.5", 1.5), ("\u0661\u0662", 12.0)])
    def test_fields_float_reads_and_fromstring_refuses_read_as_float(
            self, field, value):
        # the per-line fallback reads them as the block reader did
        text = TRAJECTORY_HEADER + "\n0,-1,0.5,%s,1.5,-0.75\n" % field
        traj = trajectory_from_csv(text, ModelParams(r=1.0),
                                   EtaSchedule(kind="constant", T=1.0))
        assert traj.theta.tolist() == [value]

    @pytest.mark.parametrize("field", ["1\u00e9", "\ud800"])
    def test_non_ascii_fields_are_refused_with_their_line(self, field):
        # a lone surrogate cannot be encoded as UTF-8 and is read as "?"
        text = TRAJECTORY_HEADER + "\n0,-1,0.5,%s,1.5,-0.75\n" % field
        message = f"line 2: {field!r} is not a number: "
        with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
            trajectory_from_csv(text, ModelParams(r=1.0),
                                EtaSchedule(kind="constant", T=1.0))
        assert read_back(trajectory_from_csv, text) == \
            read_back(trajectory_from_csv_by_blocks, text)

    @pytest.mark.parametrize("field", [" ", "nan(1)"])
    def test_fields_only_fromstring_reads_are_refused(self, field):
        # np.fromstring, the reader before np.loadtxt, read " " as -1.0
        # and "nan(1)" as nan
        text = TRAJECTORY_HEADER + "\n0,-1,0.5,%s,1.5,-0.75\n" % field
        message = f"line 2: {field!r} is not a number: "
        with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
            trajectory_from_csv(text, ModelParams(r=1.0),
                                EtaSchedule(kind="constant", T=1.0))

    @pytest.mark.parametrize("field", [
        "-0.75#x", '"-0.75"', "'-0.75'", "\x1c-0.75", "-0.75\x1d",
        "\x1e-0.75", "-0.75\x1f"], ids=["hash", "double-quoted",
                                       "single-quoted", "x1c", "x1d", "x1e",
                                       "x1f"])
    def test_comment_quote_and_separator_fields_are_refused_with_their_line(
            self, field):
        # in the last field, np.loadtxt's default comments="#" would read
        # "-0.75#x" as -0.75; it strips \x1c-\x1f round any field, and
        # the row after it keeps text.strip() from stripping them
        text = TRAJECTORY_HEADER + "\n0,-1,0.5,0.25,1.5,-0.75\n" \
            "1,-1,0.5,0.25,1.5,%s\n2,-1,0.5,0.25,1.5,-0.75\n" % field
        message = f"line 3: {field!r} is not a number: "
        with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
            trajectory_from_csv(text, ModelParams(r=1.0),
                                EtaSchedule(kind="constant", T=1.0))
        assert read_back(trajectory_from_csv, text) == \
            read_back(trajectory_from_csv_by_blocks, text)

    @pytest.mark.parametrize("field", ["0.25\r", "\r0.25", "0.25\r\r"])
    def test_fields_padded_by_a_lone_cr_read_as_float(self, field):
        # np.loadtxt refuses a "\r" not followed by "\n"; float() strips it
        text = TRAJECTORY_HEADER + "\n0,-1,0.5,%s,1.5,-0.75\n" % field
        traj = trajectory_from_csv(text, ModelParams(r=1.0),
                                   EtaSchedule(kind="constant", T=1.0))
        assert traj.theta.tolist() == [0.25]

    def test_rows_joined_by_a_lone_cr_are_refused_with_their_line(self):
        text = TRAJECTORY_HEADER + "\n0,-1,0.5,0.25,1.5,-0.75\r" \
            "1,-1,0.5,0.25,1.5,-0.75\n"
        with pytest.raises(DomainError,
                           match="^line 2: expected 6 columns, got 11: "):
            trajectory_from_csv(text, ModelParams(r=1.0),
                                EtaSchedule(kind="constant", T=1.0))
        assert read_back(trajectory_from_csv, text) == \
            read_back(trajectory_from_csv_by_blocks, text)
