"""Fuzz of the input parsers through ``cli.main``: every input ends in a documented exit code.

Near-valid and arbitrary matrix JSON, symbol JSON and PGM bytes are written
to a file and run in-process. No example may raise; each returns 0 or a
code of ``cli.EXIT_CODES``, and a non-zero code prints exactly one
``error:`` line.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from wpcontent import cli

UNIT = st.floats(min_value=-4.0, max_value=4.0)
# one scale per input, from subnormal to near the float limit: squared, the largest overflow
SCALE = st.sampled_from([1.0, 5e-324, 1e-300, 1e-150, 2.0**-26, 2.0**26, 1e150, 1e154, 1e308])
NUMBERS = UNIT | st.floats() | st.integers(-3, 3) | st.just(10**400)
# anything a list of numbers must not hold
NOT_NUMBERS = st.sampled_from([True, None, "1", [1.0], {"a": 1.0}])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=12,
)
# a size that is no small natural number
ODD_SIZE = st.sampled_from([-1, 0, 0.5, 2.0, "4", True, None, 10**30, 10**3000])


def _small(size, limit):
    """``size`` when it is an int in [0, limit], else a stand-in that keeps the example small."""
    return size if type(size) is int and 0 <= size <= limit else 2


def _near(n):
    """A list of about ``n`` entries: one longer or shorter, or holding a non-number."""
    return st.lists(NUMBERS | NOT_NUMBERS, min_size=max(n - 1, 0), max_size=n + 1)


@st.composite
def matrix_json(draw):
    """A scaled symmetric or Gram matrix, or a near miss of the schema."""
    if draw(st.booleans()):
        dim = draw(st.integers(1, 8) | ODD_SIZE)
        return {"dim": dim, "data": draw(_near(_small(dim, 8) ** 2))}
    n, c = draw(st.sampled_from([1, 2, 3, 4, 8])), draw(SCALE)
    x = [c * v for v in draw(st.lists(UNIT, min_size=n * n, max_size=n * n))]
    if draw(st.booleans()):
        # G^T G in Python floats, which overflow to inf without a warning
        x = [sum(x[k * n + i] * x[k * n + j] for k in range(n)) for i in range(n) for j in range(n)]
    return {"dim": n, "data": [x[min(i, j) * n + max(i, j)] for i in range(n) for j in range(n)]}


@st.composite
def symbol_json(draw):
    """Scaled nonnegative values on 2^levels bands, or a near miss of the schema."""
    if draw(st.booleans()):
        levels = draw(st.integers(0, 5) | ODD_SIZE)
        return {"levels": levels, "r": draw(_near(2 ** _small(levels, 5)))}
    levels, c = draw(st.integers(1, 5)), draw(SCALE)
    r = draw(st.lists(UNIT.map(abs), min_size=2**levels, max_size=2**levels))
    return {"levels": levels, "r": [c * v for v in r]}


def _text(payload):
    return json.dumps(payload).encode()


def _mangled(payloads):
    """The JSON text of a payload, whole (half the time) or cut short, or arbitrary JSON or bytes."""
    whole = payloads.map(_text)
    cut = st.tuples(whole, st.integers(0, 200)).map(lambda t: t[0][: t[1]])
    garbage = st.sampled_from([cut, JSON.map(_text), st.binary(max_size=40)]).flatmap(lambda s: s)
    return whole | garbage


ODD_TOKEN = st.sampled_from(["0", "256", "+4", "2_5", "-1", "99999999999", ""])
ODD_SPACE = st.sampled_from([b"", b"#x"])


@st.composite
def pgm_bytes(draw):
    """A P5 or P2 image of up to 12 x 12 pixels, or one with a header token, separator or size off."""
    near = draw(st.booleans())
    magic = draw(st.sampled_from([b"P5", b"P2"] + near * [b"P6", b"", b"P5P2"]))
    size = st.integers(1, 12).map(str)
    maxvals = st.sampled_from(["255", "12", "1"])
    space = st.sampled_from([b" ", b"\n", b"\t", b"\n# note\n"])
    tokens = [draw(t | ODD_TOKEN if near else t) for t in (size, size, maxvals)]
    header = magic
    for token in tokens:
        header += draw(space | ODD_SPACE if near else space) + token.encode()
    width, height, maxval = tokens
    count = int(width) * int(height) if width.isdigit() and height.isdigit() else 16
    count = max(min(count, 400) + (draw(st.integers(-1, 1)) if near else 0), 0)
    top = int(maxval) if maxval.isdigit() and int(maxval) <= 255 else 255
    if magic == b"P2":
        pixel = st.integers(0, top).map(str)
        pixels = draw(st.lists(pixel | ODD_TOKEN if near else pixel, min_size=count, max_size=count))
        return header + b"\n" + " ".join(pixels).encode()
    return header + draw(st.sampled_from([b"\n", b""] if near else [b"\n"])) + draw(
        st.binary(min_size=count, max_size=count))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(argv):
    """Exit code and stderr lines of ``main(argv)``; an exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().splitlines()


def _check(code, err):
    assert code == 0 or code in cli.EXIT_CODES.values(), code
    if code:
        assert len(err) == 1 and err[0].startswith("error: "), err


FUZZ = settings(max_examples=60, deadline=None, database=None)


@FUZZ
@given(data=_mangled(matrix_json()), command=st.sampled_from([
    ["decompose"], ["decompose", "--tree", "haar", "--depth", "1"], ["greedy"],
    ["greedy", "--mode", "hs", "--tree", "d4", "--depth", "1", "--steps", "4"],
]))
def test_matrix_json(workdir, data, command):
    path = workdir / "matrix.json"
    path.write_bytes(data)
    _check(*_run([*command, "--in", str(path), "--report", str(workdir / "report.json")]))


@FUZZ
@given(data=_mangled(symbol_json()), command=st.sampled_from([
    ["decompose"], ["decompose", "--depth", "1"], ["greedy"], ["greedy", "--mode", "hs"],
]))
def test_symbol_json(workdir, data, command):
    path = workdir / "symbol.json"
    path.write_bytes(data)
    _check(*_run([*command, "--symbol", str(path), "--report", str(workdir / "report.json")]))


@FUZZ
@given(data=pgm_bytes() | st.binary(max_size=40), mode=st.sampled_from(["trace", "hs"]))
def test_pgm_bytes(workdir, data, mode):
    path = workdir / "image.pgm"
    path.write_bytes(data)
    _check(*_run(["denoise", "--in", str(path), "--patch-side", "2", "--depth", "1",
                  "--topk", "1", "--mode", mode, "--out", str(workdir / "out.pgm"),
                  "--report", str(workdir / "report.json")]))
