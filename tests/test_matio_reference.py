"""The table-driven text format against the per-cell reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhadamard import QMatrix
from qhadamard import matio
from qhadamard.matio import (
    ParseError,
    decode,
    parse,
    parse_phase_vector,
    serialize,
)
from qhadamard.qmatrix import PHASES
import reference
import test_golden_cli as golden
from conftest import FIXTURES
from reference import QALPHABET, equal, qmatrix


def outcome(fn, data):
    """The value, or the ParseError as (message, line, col)."""
    try:
        return fn(data)
    except ParseError as exc:
        return (str(exc), exc.line, exc.col)


# The expected outcomes on a file's bytes: the CLI has always decoded a
# file before parsing it, so a non-ASCII byte comes before any other error.
def reference_parse(data):
    return reference.parse(decode(data))


def reference_parse_phase_vector(data):
    return reference.parse_phase_vector(decode(data))


def same(a, b):
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, QMatrix):
        return isinstance(b, QMatrix) and equal(a, b)
    return type(a) is type(b) and a == b


def square(values, wrap):
    return st.integers(1, 9).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from(values), min_size=n, max_size=n),
        min_size=n, max_size=n)).map(wrap)


matrices = st.one_of(square(QALPHABET, qmatrix), square((-1, 0, 1), QMatrix))

# Single-character edits of valid files: the characters that matter to
# the format, a few it rejects, and two non-ASCII ones (one past U+00FF),
# the edited text encoded as UTF-8.
EDIT_CHARS = "1-ij0x2 \r\nQR\u00e9\u2028"


@st.composite
def edited_text(draw):
    text = serialize(draw(matrices)).decode()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(EDIT_CHARS))
        kind = draw(st.sampled_from(("insert", "replace", "delete")))
        if kind == "insert":
            text = text[:at] + ch + text[at:]
        elif kind == "replace":
            text = text[:at] + ch + text[at + 1:]
        else:
            text = text[:at] + text[at + 1:]
    return text.encode()


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_serialize_matches_reference(m):
    data = serialize(m)
    assert data == reference.serialize(m).encode()
    assert equal(parse(data), m)


@settings(max_examples=400, deadline=None)
@given(edited_text())
def test_parse_matches_reference_on_edited_files(data):
    assert same(outcome(parse, data), outcome(reference_parse, data))


def _lines(*rows):
    return ("\n".join(rows) + "\n").encode()


PARSE_CASES = {
    "bad cell": _lines("QHM 3", "1i-", "1x1", "ij0"),
    "i in RHM": _lines("RHM 2", "1-", "i1"),
    "j in RHM": _lines("RHM 2", "1j", "11"),
    "short row": _lines("QHM 3", "111", "11", "111"),
    "long row": _lines("QHM 3", "111", "1111", "111"),
    "short row before bad cell": _lines("QHM 3", "11", "1x1", "111"),
    "short row after bad cell": _lines("QHM 3", "1x1", "11", "111"),
    "long row with a bad cell": _lines("QHM 3", "111", "11x1", "111"),
    "long row before bad cell": _lines("QHM 3", "1111", "111", "1x1"),
    "long row after bad cell": _lines("QHM 3", "111", "x11", "1111"),
    "crlf": b"QHM 2\r\n1j\r\ni1\r\n",
    "crlf bad cell": b"QHM 2\r\n1j\r\ni\r1\r\n",
    "lone cr": b"QHM 2\r1j\ni1\n",
    "missing final newline": b"QHM 2\n1j\ni1",
    "missing final newline, bad last cell": b"QHM 2\n1j\ni?",
    "blank last line": b"QHM 2\n1j\ni1\n\n",
    "too few rows": b"QHM 3\n111\n111\n",
    "too many rows": b"QHM 1\n1\n1\n",
    "empty": b"",
    "only newline": b"\n",
    "bad header": b"QHX 1\n1\n",
    "bad order": b"QHM x\n1\n",
    "zero order": b"QHM 0\n",
    "header only": b"QHM 1",
    "non-ASCII cell": "QHM 2\n1é\nii\n".encode(),
    # Header forms that int() reads as the order 2, or refuses; a
    # non-ASCII digit is a non-ASCII byte before it is a digit.
    "plus order": _lines("QHM +2", "1j", "i1"),
    "underscore order": _lines("QHM 0_2", "1j", "i1"),
    "leading zero order": _lines("QHM 02", "1j", "i1"),
    "non-ASCII digit order": _lines("QHM \u0662", "1j", "i1"),
    "fullwidth letter order": _lines("QHM \uff12x", "1j", "i1"),
    # Layouts of the right total length that the newline column refuses.
    "short row then long row": _lines("QHM 3", "1i-", "1j", "1-1-"),
    "long row then short row": _lines("QHM 3", "1i-1", "j1", "1-1"),
    "crlf without final newline": b"QHM 2\r\n1j\r\ni1",
    "crlf with lone cr in a row": b"QHM 2\r\n1\rj\r\ni1\r\n",
    "byte 0x80": b"QHM 2\n1j\ni\x80\n",
    "byte 0xff": b"QHM 2\n\xff1\ni1\n",
    "byte 0x85 (a str line break)": b"QHM 2\n1\x85\ni1\n",
    "past U+00FF": "QHM 2\n1j\n\u0131\u0131\n".encode(),
    "nul byte": b"QHM 2\n1\x00\ni1\n",
    "order 1": b"QHM 1\n1\n",
    "order 1 real": b"RHM 1\n-\n",
    "order 1 zero": b"QHM 1\n0",
    "order 1 with a long row": b"QHM 1\n1i\n",
    "real 0 body": _lines("RHM 2", "10", "0-"),
    "j in RHM second row": _lines("RHM 2", "11", "1j"),
}


ORDER_3 = {"QHM": b"QHM 3\n1ij\n-0j\ni-1\n", "RHM": b"RHM 3\n1-0\n-1-\n01-\n"}
# Offsets into the files above: the first, the middle and the last cell,
# the newline ending the middle row and the final newline.
BYTE_SITES = {"first cell": 6, "middle cell": 11, "last cell": 16,
              "middle newline": 13, "final newline": 17}


@pytest.mark.parametrize("kind", sorted(ORDER_3))
@pytest.mark.parametrize("site", sorted(BYTE_SITES))
def test_parse_matches_reference_on_every_byte(kind, site):
    data, at = ORDER_3[kind], BYTE_SITES[site]
    assert data[at] in b"1-ij0\n"
    for byte in range(256):
        edited = data[:at] + bytes([byte]) + data[at + 1:]
        assert same(outcome(parse, edited), outcome(reference_parse, edited)), byte


@pytest.mark.parametrize("name", sorted(PARSE_CASES))
def test_parse_matches_reference_on_cases(name):
    data = PARSE_CASES[name]
    assert same(outcome(parse, data), outcome(reference_parse, data))


VALID_CASES = {
    "crlf", "missing final newline", "plus order", "underscore order",
    "leading zero order", "crlf without final newline",
    "order 1", "order 1 real", "order 1 zero", "real 0 body",
}


def test_parse_cases_are_errors_except_line_endings():
    for name in set(PARSE_CASES) - VALID_CASES:
        with pytest.raises(ParseError):
            parse(PARSE_CASES[name])
    assert equal(parse(PARSE_CASES["crlf"]), parse(PARSE_CASES["missing final newline"]))


phase_vectors = st.lists(st.sampled_from(PHASES), max_size=12).map(
    lambda v: np.array(v, dtype=np.complex128))


@settings(max_examples=100, deadline=None)
@given(phase_vectors)
def test_phase_vector_matches_reference(v):
    data = reference.serialize_phase_vector(v).encode()
    assert same(parse_phase_vector(data), v)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="1-ij0x \r\n\té\u2028", max_size=16))
def test_parse_phase_vector_matches_reference(text):
    data = text.encode()
    assert same(outcome(parse_phase_vector, data), outcome(reference_parse_phase_vector, data))


# A non-ASCII byte after another error, and its raw (line, col): it is
# reported first.
NON_ASCII_FIRST = {
    "bad header": (b"QHX 2\n1j\ni\xe9\n", 3, 2),
    "non-ASCII header": ("QHM \u0662\n1j\ni1\n".encode(), 1, 5),
    "too few rows": (b"QHM 3\n1ij\n-\xe9j\n", 3, 2),
    "short row": (b"QHM 2\n1\ni\xe9\n", 3, 2),
    "crlf": (b"QHM 2\r\n1x\r\ni\xe9\r\n", 3, 2),
}


def test_decode_reports_first_non_ascii_byte():
    assert decode(b"QHM 1\n1\n") == "QHM 1\n1\n"
    with pytest.raises(ParseError) as err:
        decode("QHM 2\n11\n1é\n".encode())
    assert (err.value.line, err.value.col) == (3, 2)
    assert "0xc3" in str(err.value)
    with pytest.raises(ParseError) as err:
        decode(b"\xff")
    assert (err.value.line, err.value.col) == (1, 1)
    cases = [(parse, *case) for case in NON_ASCII_FIRST.values()]
    cases.append((parse_phase_vector, b"1\r\n0\nx\n\xe9\n", 4, 1))
    for fn, data, line, col in cases:
        with pytest.raises(ParseError) as err:
            fn(data)
        assert str(err.value).startswith("non-ASCII byte"), data
        assert (err.value.line, err.value.col) == (line, col), data


def test_valid_files_never_reach_the_error_locator(monkeypatch):
    files = {name: PARSE_CASES[name] for name in VALID_CASES}
    files.update({name: text.encode() for name, text in golden.INPUTS.items()
                  if name.endswith(".qhm")})
    files.update({path.name: path.read_bytes() for path in FIXTURES.glob("*.qhm")})
    expected = {}
    for name, data in files.items():
        try:
            expected[name] = reference_parse(data)
        except ParseError:
            pass
    assert len(expected) >= len(VALID_CASES) + 15

    def locate(data):
        raise AssertionError("a valid file reached the error locator")

    monkeypatch.setattr(matio, "_locate_error", locate)
    for name, m in expected.items():
        assert equal(parse(files[name]), m), name
        assert equal(parse(serialize(m)), m), name
