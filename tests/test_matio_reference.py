"""The table-driven text format against the per-cell reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhadamard import QMatrix, SignMatrix
from qhadamard.matio import (
    ParseError,
    decode,
    parse,
    parse_phase_vector,
    serialize,
    serialize_phase_vector,
)
from qhadamard.qmatrix import PHASES, QALPHABET
import reference


def outcome(fn, text):
    """The value, or the ParseError as (message, line, col)."""
    try:
        return fn(text)
    except ParseError as exc:
        return (str(exc), exc.line, exc.col)


def same(a, b):
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def square(values, wrap):
    return st.integers(1, 9).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from(values), min_size=n, max_size=n),
        min_size=n, max_size=n)).map(wrap)


matrices = st.one_of(square(QALPHABET, QMatrix), square((-1, 0, 1), SignMatrix))

# Single-character edits of valid files: the characters that matter to
# the format, a few it rejects, and two non-ASCII ones (one past U+00FF).
EDIT_CHARS = "1-ij0x2 \r\nQR\u00e9\u2028"


@st.composite
def edited_text(draw):
    text = serialize(draw(matrices))
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
    return text


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_serialize_matches_reference(m):
    text = serialize(m)
    assert text == reference.serialize(m)
    assert parse(text) == m


@settings(max_examples=400, deadline=None)
@given(edited_text())
def test_parse_matches_reference_on_edited_files(text):
    assert same(outcome(parse, text), outcome(reference.parse, text))


def _lines(*rows):
    return "\n".join(rows) + "\n"


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
    "crlf": "QHM 2\r\n1j\r\ni1\r\n",
    "crlf bad cell": "QHM 2\r\n1j\r\ni\r1\r\n",
    "lone cr": "QHM 2\r1j\ni1\n",
    "missing final newline": "QHM 2\n1j\ni1",
    "missing final newline, bad last cell": "QHM 2\n1j\ni?",
    "blank last line": "QHM 2\n1j\ni1\n\n",
    "too few rows": "QHM 3\n111\n111\n",
    "too many rows": "QHM 1\n1\n1\n",
    "empty": "",
    "only newline": "\n",
    "bad header": "QHX 1\n1\n",
    "bad order": "QHM x\n1\n",
    "zero order": "QHM 0\n",
    "header only": "QHM 1",
    "non-ASCII cell": "QHM 2\n1é\nii\n",
}


@pytest.mark.parametrize("name", sorted(PARSE_CASES))
def test_parse_matches_reference_on_cases(name):
    text = PARSE_CASES[name]
    assert same(outcome(parse, text), outcome(reference.parse, text))


def test_parse_cases_are_errors_except_line_endings():
    valid = {"crlf", "missing final newline"}
    for name in set(PARSE_CASES) - valid:
        with pytest.raises(ParseError):
            parse(PARSE_CASES[name])
    assert parse(PARSE_CASES["crlf"]) == parse(PARSE_CASES["missing final newline"])


phase_vectors = st.lists(st.sampled_from(PHASES), max_size=12).map(
    lambda v: np.array(v, dtype=np.complex128))


@settings(max_examples=100, deadline=None)
@given(phase_vectors)
def test_phase_vector_matches_reference(v):
    text = serialize_phase_vector(v)
    assert text == reference.serialize_phase_vector(v)
    assert same(parse_phase_vector(text), v)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="1-ij0x \r\n\té\u2028", max_size=16))
def test_parse_phase_vector_matches_reference(text):
    assert same(outcome(parse_phase_vector, text), outcome(reference.parse_phase_vector, text))


def test_decode_reports_first_non_ascii_byte():
    assert decode(b"QHM 1\n1\n") == "QHM 1\n1\n"
    with pytest.raises(ParseError) as err:
        decode("QHM 2\n11\n1é\n".encode())
    assert (err.value.line, err.value.col) == (3, 2)
    assert "0xc3" in str(err.value)
    with pytest.raises(ParseError) as err:
        decode(b"\xff")
    assert (err.value.line, err.value.col) == (1, 1)
