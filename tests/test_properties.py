"""Property tests (hypothesis, derandomized): spectrum prefixes, gap
certification monotone in the error constant, the symmetries of Lambda1 on
the square lattice, the reduction of Floquet points into [-pi, pi), the
streaming JSON emitter against json.dumps, sample blocks whose eta1 rows
repeat against their expanded samples, and the 15-digit rounding of printed
floats."""

import json
import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diskbands import (
    ExpansionParams,
    FloquetPoint,
    ModeIndex,
    Parity,
    enumerate_spectrum,
    limit_eigenvalue,
)
from diskbands.bands import detect_gaps
from diskbands.cli import _Block, _csv_chunks, _fmt, _jnum, _json_chunks
from diskbands.corrections import lambda1_grid

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=40)

# determined branches with a nonzero Lambda1: simple modes and the sine
# branch of n != 0 (mod 4)
DETERMINED = st.one_of(
    st.builds(ModeIndex, st.just(0), st.integers(1, 4), st.just(Parity.SIMPLE)),
    st.builds(
        ModeIndex,
        st.integers(1, 12).filter(lambda n: n % 4 != 0),
        st.integers(1, 4),
        st.just(Parity.SINE),
    ),
)
AXIS = st.lists(
    st.floats(-2.0 * math.pi, 2.0 * math.pi, allow_nan=False), min_size=1, max_size=9
)


@PROPERTY
@given(st.integers(1, 120), st.integers(1, 120))
def test_spectrum_prefixes_are_ordered(a, b):
    a, b = min(a, b), max(a, b)
    short, long = enumerate_spectrum(a), enumerate_spectrum(b)
    assert len(short) == a and len(long) == b
    assert long[:a] == short
    values = [limit_eigenvalue(m) for m in long]
    assert values == sorted(values)
    for i, m in enumerate(long):
        n, k = m.n, m.k
        if m.parity is Parity.COSINE and i + 1 < b:
            assert long[i + 1] == ModeIndex(n, k, Parity.SINE)
        if m.parity is Parity.SINE:
            assert long[i - 1] == ModeIndex(n, k, Parity.COSINE)


def _certified(count, params, constants):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports = detect_gaps(count, params, 9, constants)
    return [r.certified for r in reports]


@PROPERTY
@given(
    count=st.integers(2, 14),
    epsilon=st.floats(1e-6, 0.2),
    m=st.floats(0.05, 0.45),
    constant=st.floats(0.0, 1e3),
    shrink=st.floats(0.0, 1.0, exclude_max=True),
    per_mode=st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(1, 3)), st.floats(0.0, 1e3), max_size=4
    ),
)
def test_gap_certification_is_monotone_in_the_constant(
    count, epsilon, m, constant, shrink, per_mode
):
    wide = _certified(count, ExpansionParams(epsilon, m, constant), per_mode)
    narrow = _certified(
        count,
        ExpansionParams(epsilon, m, shrink * constant),
        {key: shrink * c for key, c in per_mode.items()},
    )
    assert all(n for w, n in zip(wide, narrow) if w)


def _assert_close(values, reference):
    scale = np.maximum(1.0, np.abs(reference))
    assert np.all(np.abs(values - reference) <= 1e-12 * scale)


@PROPERTY
@given(DETERMINED, AXIS, st.lists(st.integers(-3, 3), min_size=9, max_size=9))
def test_lambda1_grid_symmetries(mode, axis, turns):
    size = len(axis)
    base = np.asarray(lambda1_grid(mode, axis))
    # eta -> -eta
    _assert_close(np.asarray(lambda1_grid(mode, [-a for a in axis])), base)
    # eta1 <-> eta2: the grid is (axis[i], axis[j]) row-major
    square = base.reshape(size, size)
    _assert_close(square.T, square)
    # 2 pi shifts: point (i, j) moves by turns[i] in eta1 and turns[j] in eta2
    shifted = [a + 2.0 * math.pi * t for a, t in zip(axis, turns)]
    _assert_close(np.asarray(lambda1_grid(mode, shifted)), base)


@PROPERTY
@given(st.floats(-1e3, 1e3, allow_nan=False), st.floats(-1e3, 1e3, allow_nan=False))
def test_floquet_reduction_is_idempotent(a, b):
    eta = FloquetPoint(a, b)
    assert -math.pi <= eta.eta1 < math.pi and -math.pi <= eta.eta2 < math.pi
    assert FloquetPoint(eta.eta1, eta.eta2) == eta
    assert FloquetPoint(math.pi, a) == FloquetPoint(-math.pi, a)


# text with the characters JSON escapes, a %, and non-ASCII letters
JSON_TEXT = st.text(
    st.one_of(st.sampled_from('"\\%\n\t\x00\x1f\x7f'), st.characters()), max_size=6
)
JSON_SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e300]),
    JSON_TEXT,
)
JSON_DOC = st.recursive(
    JSON_SCALAR,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=24,
)
JSON_ROW = st.dictionaries(JSON_TEXT, JSON_DOC, max_size=4)


@PROPERTY
@given(JSON_ROW, st.lists(JSON_ROW, min_size=1, max_size=4))
@example({}, [{}])
# a "null" in the meta, and rows that end in one, before the rows' own null
@example({"null": "null\n}", "%s": [{}, []]}, [{"rows": []}, {"null": None}])
@example({}, [{"eta1": -0.0, "eta2": 5e-324, "value": 1e16, "%": 1e300}])
# floats whose sum overflows, though each one is finite
@example({}, [{"a": 1e308, "b": 1e308}, {"a": -1e308, "b": -1e308}])
@example({'"q"': "a\\b%d\x01"}, [{"\u00e9\u03bb\U0001f600": [None, True, False, 0, -7]}])
def test_json_chunks_equal_json_dumps(meta, rows):
    text = "".join(_json_chunks(meta, rows))
    assert text == json.dumps({"meta": meta, "rows": rows}, indent=1) + "\n"


# a block's sample values: a few that repeat, zeros of both signs, and
# floats of every magnitude up to 1e300, whose 15-digit rounding is finite
BLOCK_VALUE = st.one_of(
    st.sampled_from([1.0, -2.5, 0.1 + 0.2, 1e16, 5e-324, 0.0, -0.0]),
    st.floats(-1e300, 1e300, allow_nan=False),
)


@st.composite
def repeated_rows(draw):
    # the axis and values of a block whose eta1 rows are drawn from a pool of
    # at most four rows, in a drawn order or mirrored (row i equals row
    # size - 1 - i); one pool row may be another with the sign of each zero
    # flipped, and half the blocks hold no zero
    size = draw(st.integers(1, 7))
    pool = draw(st.lists(st.lists(BLOCK_VALUE, min_size=size, max_size=size), min_size=1, max_size=3))
    if draw(st.booleans()):
        pool.append([-v if v == 0.0 else v for v in pool[0]])
    if draw(st.booleans()):
        pool = [[v or 1.0 for v in row] for row in pool]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))
    if draw(st.booleans()):
        picks = picks[:(size + 1) // 2] + picks[:size // 2][::-1]
    axis = draw(st.lists(st.floats(-4.0, 4.0) | st.sampled_from([0.0, -0.0]), min_size=size, max_size=size))
    return axis, [v for i in picks for v in pool[i]]


# the head cells of a block's row: a %, a %-spec, and the NUL and \x01 that
# the row texts use as markers
REPEATED_HEAD = {"n": 3, "name": "50% %s%%d\x00\x01", "on": [False, None]}


@settings(PROPERTY, max_examples=150)
@given(
    repeated_rows(),
    st.sampled_from([("eta1", "eta2", "value"), ("e%ta1", "%s", "100%"), ("\x00", "\x01", "%d\n")]),
)
# rows that differ only in the sign of a zero, in a mirror layout
@example(([1.0, -0.0, 0.0], [1.0, 0.0, 2.0, 1.0, -0.0, 2.0, 1.0, 0.0, 2.0]), ("eta1", "eta2", "value"))
@example(([0.0, 1.0], [-0.0, 1.0, 0.0, 1.0]), ("e%ta1", "%s", "100%"))
def test_repeated_block_rows_write_their_expanded_samples(block, keys):
    axis, values = block
    size = len(axis)
    samples = [
        {keys[0]: _jnum(a), keys[1]: _jnum(b), keys[2]: _jnum(values[i * size + j])}
        for i, a in enumerate(axis)
        for j, b in enumerate(axis)
    ]
    rows = [{**REPEATED_HEAD, "samples": _Block(keys, axis, values)}] * 2
    # json: the list of sample dicts json.dumps writes
    text = "".join(_json_chunks({}, rows))
    expanded = {"meta": {}, "rows": [{**REPEATED_HEAD, "samples": samples}] * 2}
    assert text == json.dumps(expanded, indent=1) + "\n"
    # csv: the lines of the flattened rows, the head cells first
    flat = [{**REPEATED_HEAD, **sample} for sample in samples] * 2
    assert "".join(_csv_chunks(rows)) == "".join(_csv_chunks(flat))


# the largest float whose 15-digit text reads back as a finite float: the
# four floats above it print as 1.79769313486232e+308, past the largest one
TOP = 1.797693134862315e308


@settings(PROPERTY, max_examples=2000)
@given(st.floats(-TOP, TOP))
@example(5e-324)
@example(-1.2345678901234567e-310)
@example(2.2250738585072014e-308)
@example(math.nextafter(2.2250738585072014e-308, 0.0))
@example(TOP)
@example(-TOP)
@example(-0.0)
@example(0.1 + 0.2)
def test_fifteen_digits_read_back(x):
    # DBL_DIG is 15: a float's 15-digit text reads back as a float with the
    # same text, so the CSV writer may print a raw sample as it prints its
    # _jnum, and _jnum rounds only once
    assert _fmt(_jnum(x)) == _fmt(x)
    assert _jnum(_jnum(x)) == _jnum(x)


def test_fifteen_digits_overflow_above_top():
    above = math.nextafter(TOP, math.inf)
    assert _fmt(above) == "1.79769313486232e+308"
    assert _jnum(above) == math.inf and _jnum(-above) == -math.inf
