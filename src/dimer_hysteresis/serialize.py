"""CSV and JSON writers for trajectories, diagrams, and sweep reports.

CSV floats are written with %.15g, so serialize(parse(text)) == text; a
value read back equals the written double to 15 significant digits,
not bitwise. Angles are wrapped into (-pi, pi] at serialization time
only; in-memory states keep whatever winding the integrator produced.

The trajectory CSV, and svgplot's coordinates as %.2f, come from one
numpy decimal kernel, _decimal_text, byte for byte the text % writes.
Per block of 8192 values it scales each |x| by 10**k in the working
type np.longdouble, k giving 15 significant digits (or two decimals),
rounds that to an integer, splits its digits into ASCII bytes with
integer arithmetic, and lays them out in NUL-padded 32-byte slots
together with the sign, point, "0.000" prefix, exponent and separator,
all from small lookup tables built on first use; one bytes.translate
drops the NULs. The scaled value's relative error is at most 1.01 eps,
eps the working type's from np.finfo. A value whose fraction is nearer
a half than twice that bound, and every non-finite or out-of-range
value and every zero under %.15g, is written by % itself instead. That
fallback is the exactness guard: where longdouble is a plain double,
more values take it and the text stays the same. The kernel counts
them.

The trajectory CSV reader parses the body with one np.loadtxt call,
comments=None so that a "#" is no comment, and keeps its values when
they are (rows, 6), rows counted from the body's newlines. np.loadtxt
refuses what float() refuses, with one exception: it strips the ASCII
separators 0x1C-0x1F round a field as whitespace, so a body holding one
goes to the fallback at once. So does an empty body, a ValueError (a
refused field, a row of another width, a lone carriage return, or a
non-ASCII byte, which fails the ascii decode) and any other shape
(np.loadtxt skips blank lines). The fallback reads the body line by line
with float(): it names the first line without six fields, else the first
field float() refuses, and otherwise reads what float() reads but
np.loadtxt does not, such as 1_5, the Arabic-Indic 12 or a value padded
with a non-ASCII space.

JSON is json.dumps(doc, indent=2), floats in full repr, laid out by
_json. With indent, json runs its pure-Python encoder, so a diagram's
points alone are written without it, in place of null. The floats of
all its branches form one float64 array, read from the branch tuples
with numpy; each distinct magnitude is written once by float.__repr__
and signed by its sign bit. The texts fill an object array of cells,
one row per point, between the fixed pieces of a point's layout, and
one str.join writes the rows and the document's text around them. The
diagram CSV takes one % per branch, on a template whose head
(branch_id, kind, theta_star) is formatted once with its '%' escaped.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .model import EtaSchedule, ModelParams, Trajectory, wrap_angle

TRAJECTORY_HEADER = "tau,eta,z,theta,H,E"
BRANCH_HEADER = "branch_id,kind,theta_star,eta,z_star,stability"

# the ASCII separators np.loadtxt strips round a field and float() refuses
_SEPARATORS = b"\x1c\x1d\x1e\x1f"
_BRANCH_HEAD, _BRANCH_ROW = "%d,%s,%.15g,", "%.15g,%.15g,%s\n"
# one point, at the depth of a branch's points: eta, z_star, stability
# and the real and imaginary parts of its two eigenvalues, as the eight
# pieces of text around them, with the ",\n" that joins it to the next
_POINT_JSON = ('        {\n          "eta": %s,\n          "z_star": %s,\n'
               '          "stability": %s,\n          "eigenvalues": [\n'
               + ',\n'.join(['            [\n              %s,\n'
                              '              %s\n            ]'] * 2)
               + '\n          ]\n        },\n').split("%s")
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# The decimal kernel. Its working type only sets how often a value
# falls back to %; see _tables for the error bound.
_WORK = np.longdouble
# values formatted per block; a block's transient arrays take about
# 200 bytes a value, 1.6 MB in all
_KERNEL_VALUES = 8192
_DIGITS = 15
# |x| 10**k has 15 integer digits for k = 14 - floor(log10|x|), from
# -294 (1.8e308) to 338 (5e-324); the table holds 10**k * 2**_FRACTION
_POW_LOW, _POW_HIGH = -300, 340
# fraction bits kept of the scaled value: 10**15 * 2**14 < 2**64
_FRACTION = 14
_HALF = 1 << _FRACTION - 1
# decimal exponents of the exponent table, -330 to 330
_EXP_OFFSET = 330
# mantissa masks: %.15g's for each clipped exponent -5 ... 15 and
# count of digits 0 ... 15, then %.2f's for each count of leading zeros
_G_KEYS = 21 * 16


class _Tables(NamedTuple):
    powers: np.ndarray    # 10**k * 2**_FRACTION in the working type
    tie: int              # fraction units nearer a half-integer fall back
    masks: tuple          # 3 masks x 2 words: digits, digits after the
                          # point, and the point with the ASCII zeros
    prefix: np.ndarray    # sign and "0.000" head, 6 per sign
    exponent: np.ndarray  # "e+XX", empty in fixed notation
    pow10: np.ndarray     # 10, 100, ..., 10**14


def _words(byte_rows) -> np.ndarray:
    """Rows of 8 bytes each, as little-endian words."""
    return np.ascontiguousarray(byte_rows, np.uint8).view("<u8")


def _text_words(texts) -> np.ndarray:
    """Each ASCII text, at most 8 bytes, as one NUL-padded word."""
    return _words([list(t.encode().ljust(8, b"\0")) for t in texts])[:, 0]


@functools.cache
def _tables(work) -> _Tables:
    """The kernel's lookup tables for one working type, built on first
    use.

    The scaled y = |x| * fl(10**k 2**_FRACTION) carries two roundings,
    of the power and of the product, each within eps/2 relative, so it
    lies within 1.01 eps y of the exact product; accepted y are below
    (10**15 + 1) 2**_FRACTION. Truncating y to an integer adds less
    than one unit. tie is twice the sum, in units of 2**-_FRACTION.
    """
    powers = np.array([work(f"1e{k}") for k in range(_POW_LOW, _POW_HIGH + 1)])
    with np.errstate(over="ignore"):
        # a plain double's largest powers overflow; their values fall back
        powers *= 2 ** _FRACTION
    error = 1.01 * float(np.finfo(work).eps) * (1e15 + 1) * 2 ** _FRACTION
    tie = min(2 * math.ceil(error + 1), _HALF)
    # mantissa byte j holds digit D[j] where lead <= j < min(point, end),
    # D[j - 1] where point < j < end, and "." where j == point < end
    point, lead, end = np.zeros((3, _G_KEYS + 13, 1), np.intp)
    for key in range(_G_KEYS):
        x, nd = key // 16 - 5, key % 16
        p = x + 1 if 0 <= x < _DIGITS else nd if -4 <= x < 0 else 1
        point[key], end[key] = p, nd + 1 if nd > p else p
    point[_G_KEYS:], lead[_G_KEYS:, 0], end[_G_KEYS:] = 13, range(13), 16
    j = np.arange(16)
    digits = (lead <= j) & (j < np.minimum(point, end))
    after = (point < j) & (j < end)
    dot = (j == point) & (point < end)
    masks = (0xFF * digits, 0xFF * after,
             ord(".") * dot + ord("0") * (digits | after))
    masks = tuple(w for m in masks for w in _words(m.reshape(-1, 8))
                  .reshape(-1, 2).T.copy())
    prefix = _text_words([sign + "0.000"[:n] for sign in ("", "-")
                          for n in (0, 5, 4, 3, 2, 0)])
    exponent = _text_words(["" if -4 <= x < _DIGITS else "e%+03d" % x
                            for x in range(-_EXP_OFFSET, _EXP_OFFSET + 1)])
    pow10 = 10 ** np.arange(1, _DIGITS, dtype=np.uint64)
    return _Tables(powers, tie, masks, prefix, exponent, pow10)


def _digit_bytes(v: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each v < 10**8, one per byte, the first
    in the lowest: halves, quarters and eighths are split lane by lane,
    with x // 100 as x * 5243 >> 19 below 10**4 and x // 10 as
    x * 103 >> 10 below 100."""
    q = v // 10000
    v = q | v - q * 10000 << 32
    q = v * 5243 >> 19 & 0x0000007F0000007F
    v = q | v - q * 100 << 16
    q = v * 103 >> 10 & 0x000F000F000F000F
    return q | v - q * 10 << 8


def _decimal_text(columns, seps: str, fixed: bool, head: str = "") -> tuple:
    """(text, fallbacks): head, then row by row each value of the
    equal-length float columns followed by its column's separator in
    seps, byte for byte '%.2f' % v if fixed, else '%.15g' % v; fallbacks
    counts the values that % wrote itself.

    See the module docstring for the method.
    """
    t = _tables(_WORK)
    sep = np.frombuffer(seps.encode(), np.uint8).astype("<u8") << 56
    rows = _KERNEL_VALUES // len(seps)
    parts, fallbacks = [head], 0
    with np.errstate(all="ignore"):
        for i in range(0, len(columns[0]), rows):
            block = np.column_stack([c[i:i + rows] for c in columns])
            text, count = _decimal_block(block.ravel(), sep, fixed, t)
            parts.append(text)
            fallbacks += count
    return "".join(parts), fallbacks


def _decimal_block(x, sep, fixed, t):
    """_decimal_text on one block of whole rows."""
    a = np.abs(x)
    neg = np.signbit(x)
    if fixed:
        e = _DIGITS - 3
    else:
        finite = (a > 0) & (a < np.inf)
        e = np.floor(np.log10(a, out=np.zeros_like(a), where=finite))
        e = e.astype(np.intp)
    # y = |x| 10**k 2**_FRACTION, q its integer part, m rounded
    y = a.astype(_WORK) * t.powers[_DIGITS - 1 - _POW_LOW - e]
    q = y.astype(np.uint64)
    m = q + _HALF >> _FRACTION
    low = 0 if fixed else 10 ** (_DIGITS - 1) << _FRACTION
    high = 10 ** _DIGITS - 1 if fixed else 10 ** _DIGITS
    # the fraction's distance from a half, by unsigned wrap-around
    near = (q & (1 << _FRACTION) - 1) - (_HALF - t.tie) <= 2 * t.tie
    ok = (y < 2.0 ** 64) & (q >= low) & (m <= high) & ~near
    n = len(x)
    if fixed:
        m = np.where(ok, m, 0)
    else:
        # a carry to 10**15 moves the exponent up by one
        carry = m == high
        m = np.where(ok & ~carry, m, high // 10)
    hi = m // 10 ** 8
    raw = _digit_bytes(np.concatenate((hi, m - hi * 10 ** 8)))
    r0, r1 = raw[:n], raw[n:]
    if fixed:
        # %.2f: digits from the first significant one or the units on
        lead = np.minimum(12, 14 - np.searchsorted(t.pow10, m, "right"))
        key = _G_KEYS + lead
        prefix = 5 + 6 * neg
        tail = 0
    else:
        exp10 = e + carry
        # nd: the byte of the last nonzero digit in "0" + 15 digits, the
        # top nonzero byte of r1 r0; a float's exponent finds it, as the
        # digit bytes below the top one cannot round it up a byte
        bits = (r1 * 2.0 ** 64 + r0).view(np.int64)
        nd = (bits >> 52) - 1023 >> 3
        key = (np.clip(exp10, -5, _DIGITS) + 5) * 16 + nd
        prefix = np.clip(exp10, -5, 0) + 5 + 6 * neg
        tail = t.exponent[exp10 + _EXP_OFFSET]
    # D[j] at byte j before the point, D[j - 1] at byte j after it
    d0, d1, a0, a1, p0, p1 = (mask.take(key) for mask in t.masks)
    bad = np.flatnonzero(~ok)
    fmt = "%.2f" if fixed else "%.15g"
    strings = [(fmt % v).encode() for v in x[bad].tolist()]
    # a slot is the prefix word, two mantissa words, and the exponent
    # with the separator in its last byte; a fallback's text fills the
    # slot up to the separator, widened for a %.2f beyond 31 bytes
    words = max(4, (max(map(len, strings), default=0) + 8) // 8)
    out = np.zeros((n, words), "<u8")
    out[:, 0] = t.prefix.take(prefix)
    out[:, 1] = (r0 >> 8 | r1 << 56) & d0 | r0 & a0 | p0
    out[:, 2] = r1 >> 8 & d1 | r1 & a1 | p1
    out[:, -1] = tail
    out.reshape(-1, len(sep), words)[:, :, -1] |= sep
    if strings:
        out.view(np.uint8)[bad, :-1] = np.frombuffer(
            b"".join(s.ljust(8 * words - 1, b"\0") for s in strings),
            np.uint8).reshape(len(bad), -1)
    return out.tobytes().translate(None, b"\0").decode("ascii"), len(bad)


def trajectory_to_csv(traj: Trajectory) -> str:
    columns = (traj.tau, traj.eta, traj.z, wrap_angle(traj.theta), traj.H,
               traj.E)
    return _decimal_text(columns, ",,,,,\n", fixed=False,
                         head=TRAJECTORY_HEADER + "\n")[0]


def trajectory_from_csv(text: str, params: ModelParams,
                        schedule: EtaSchedule) -> Trajectory:
    """Rebuild a Trajectory from its CSV form.

    params and schedule are not stored in the CSV; the caller supplies
    the ones the run used. Lines may end in "\n" or "\r\n". See the
    module docstring for the method.
    """
    head, _, body = text.strip().partition("\n")
    # float() ignores the "\r" that ends a line of a CRLF file
    if head.removesuffix("\r") != TRAJECTORY_HEADER:
        raise DomainError(f"expected header {TRAJECTORY_HEADER!r}")
    # a character outside ASCII, or a lone surrogate as "?", fails
    # _parse_body's parse
    data = body.encode(errors="replace")
    # only the caller's text and data stay alive while parsing
    del body
    values = _parse_body(data)
    del data
    if values is None:
        values = _parse_lines(text)
    # file column order: tau, eta, z, theta, H, E
    tau, eta, z, theta, H, E = values.T
    return Trajectory(tau, z, theta, eta, H, E, params, schedule)


def _parse_body(data: bytes):
    """The (rows, 6) values of a non-empty body by one np.loadtxt call,
    or None where it cannot show that they are what float() reads."""
    if not data or any(map(data.__contains__, _SEPARATORS)):
        return None
    try:
        values = np.loadtxt(io.BytesIO(data), delimiter=",", comments=None,
                            ndmin=2, encoding="ascii")
    except ValueError:
        return None
    return values if values.shape == (data.count(b"\n") + 1, 6) else None


def _parse_lines(text: str) -> np.ndarray:
    """The (rows, 6) values of text's body by float() per field, or a
    DomainError naming the first line without six fields, else the first
    field float() refuses. Lines count from text's first, blank ones
    included."""
    lines = text.strip().split("\n")[1:]
    # lines[0] is line 2 after the lines strip() dropped
    first = 2 + text[:len(text) - len(text.lstrip())].count("\n")
    for n, line in enumerate(lines, first):
        if line.count(",") != 5:
            raise DomainError(f"line {n}: expected 6 columns, got "
                              f"{line.count(',') + 1}: {line!r}")
    values = []
    for n, line in enumerate(lines, first):
        for field in line.split(","):
            try:
                values.append(float(field))
            except ValueError:
                raise DomainError(f"line {n}: {field!r} is not a number: "
                                  f"{line!r}") from None
    return np.reshape(values, (-1, 6))


def diagram_to_csv(diagram) -> str:
    """The header, then each branch's rows by one %: its branch_id, kind
    and theta_star are formatted once, '%' escaped, as the head of every
    row of the branch's template."""
    return BRANCH_HEADER + "\n" + "".join(
        ((_BRANCH_HEAD % (b.branch_id, b.kind, b.theta_star)).replace("%", "%%")
         + _BRANCH_ROW) * len(b.eta) % tuple(itertools.chain.from_iterable(
             zip(b.eta, b.z_star, b.stability))) for b in diagram.branches)


def _json(doc: dict, effective: dict | None, indent: int | None = 2) -> str:
    """doc with the effective settings as its last key, as one document
    indented by indent, or as one line for indent None."""
    doc["effective_config"] = dict(effective or {})
    return json.dumps(doc, indent=indent) + "\n"


def _json_floats(v: np.ndarray) -> np.ndarray:
    """Each float of v as json writes it, in an object array of v's
    shape: float.__repr__, or NaN, Infinity and -Infinity. Each distinct
    magnitude is written once, as "-" and its text where the sign bit
    is set (never for NaN, which json writes unsigned)."""
    # the distinct magnitudes by sort, and each value's by searchsorted:
    # np.unique imports numpy.ma on its first call (about 11 ms), and
    # its return_inverse pages in 0.4 MB more of numpy's sorting code;
    # NaN sorts last, and searchsorted finds its first copy
    a = np.abs(v)
    mags = np.sort(a, None)
    mags = np.append(mags[:1], mags[1:][mags[1:] != mags[:-1]])
    strings = list(map(float.__repr__, mags.tolist()))
    strings = list(map(_NON_FINITE.get, strings, strings))
    table = np.array(strings + list(map("-".__add__, strings)), dtype=object)
    return table[np.searchsorted(mags, a)
                 + len(strings) * (np.signbit(v) & (a == a))]


def diagram_to_json(diagram, effective: dict | None = None) -> str:
    """Byte for byte what json.dumps(doc, indent=2) writes for the
    diagram's document.

    _json lays out the document with each non-empty branch's points as
    null, and its text is split at the first '"points": null' per such
    branch (json escapes a string's quotes; effective_config comes
    last). The points are an object array of cells, one row per point:
    _POINT_JSON's pieces around the texts of its floats, all written by
    one _json_floats, and of its stability, by json once per distinct
    name. A branch's first row opens with the text before it, its last
    row closes the list, and one str.join writes every row.
    """
    branches = diagram.branches
    chain = itertools.chain.from_iterable
    floats = np.concatenate([np.empty((0, 6)), *(np.column_stack((
        b.eta, b.z_star, np.fromiter(chain(b.eigenvalues), complex)
        .view(np.float64).reshape(-1, 4))) for b in branches)])
    stability = list(chain(b.stability for b in branches))
    names = {s: json.dumps(s) for s in set(stability)}
    cells = np.empty((len(floats), 15), dtype=object)
    cells[:, 0::2] = _POINT_JSON
    cells[:, [1, 3, 7, 9, 11, 13]] = _json_floats(floats)
    cells[:, 5] = list(map(names.__getitem__, stability))
    text = _json({
        "r": diagram.r,
        "eta_star": diagram.eta_star,
        "eta_plus": diagram.eta_plus,
        "classification": diagram.classification,
        "branches": [{"branch_id": b.branch_id, "kind": b.kind,
                      "theta_star": b.theta_star,
                      "points": None if b.eta else []} for b in branches],
    }, effective)
    sizes = np.array([len(b.eta) for b in branches if b.eta], dtype=np.intp)
    pieces = text.split('"points": null', len(sizes))
    ends = sizes.cumsum()
    cells[ends - sizes, 0] = [p + '"points": [\n' + _POINT_JSON[0]
                              for p in pieces[:-1]]
    cells[ends - 1, -1] = _POINT_JSON[-1][:-2] + "\n      ]"
    return "".join(cells.ravel().tolist()) + pieces[-1]


def report_to_json(report, effective: dict | None = None) -> str:
    return _json({
        "r": report.r,
        "nu": report.nu,
        "detected": report.detected,
        "loop_area": report.loop_area,
        "bistable_area": report.bistable_area,
        "window": list(report.window) if report.window else None,
        "reference": report.reference,
        "forward_trace": [list(p) for p in report.forward_trace],
        "backward_trace": [list(p) for p in report.backward_trace],
    }, effective)


def threshold_to_json(r_threshold: float,
                      effective: dict | None = None) -> str:
    return _json({"r_threshold": r_threshold}, effective)
