"""Bit-exact text format for quaternary and real matrices.

Header ``QHM n`` or ``RHM n`` followed by n lines of n cells, one
character each: '1' -> 1, '-' -> -1, 'i' -> i, 'j' -> -i, '0' -> 0.
('j' denoting -i follows the printed convention of the source tables.)
Real bodies are restricted to {'1', '-', '0'}.

Cells are translated through byte lookup tables over the whole body at
once.  A cell value x = re + im*i has the code (re + 1) * 3 + (im + 1)
in 0..8; ``_CODE_CHAR`` maps codes to bytes and the 256-entry tables
map bytes back to codes, with ``_BAD`` for every byte outside the
alphabet (so also for every non-ASCII byte).
"""

from __future__ import annotations

import numpy as np

from .qmatrix import MatrixError, QMatrix, SignMatrix, _is_alphabet

_BAD = 255
_CHARS = b"?-?j0i?1?"
_CODE_CHAR = np.frombuffer(_CHARS, dtype=np.uint8)
_CODE_VALUE = np.array([complex(c // 3 - 1, c % 3 - 1) for c in range(9)])


def _char_codes(chars: bytes) -> np.ndarray:
    table = np.full(256, _BAD, dtype=np.uint8)
    for ch in chars:
        table[ch] = _CHARS.index(ch)
    return table


_QHM_CODES = _char_codes(b"1-ij0")
_RHM_CODES = _char_codes(b"1-0")
_PHASE_CODES = _char_codes(b"1-ij")


class ParseError(ValueError):
    """Malformed matrix file; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, col: int | None = None):
        at = f"line {line}" if col is None else f"line {line} col {col}"
        super().__init__(f"{message} ({at})")
        self.line = line
        self.col = col


def decode(data: bytes) -> str:
    """ASCII text of a matrix or phase-vector file.

    A non-ASCII byte is a ParseError at its own line and column.
    """
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        at = exc.start
        line_start = data.rfind(b"\n", 0, at) + 1
        raise ParseError(f"non-ASCII byte 0x{data[at]:02x}",
                         data.count(b"\n", 0, at) + 1, at - line_start + 1) from None


def _to_bytes(text: str) -> np.ndarray:
    # One byte per character: characters past U+00FF become '?', which
    # like every non-ASCII byte is outside the alphabet.
    return np.frombuffer(text.encode("latin-1", errors="replace"), dtype=np.uint8)


def _codes(values: np.ndarray) -> np.ndarray:
    """Codes of an array of alphabet values, through int8 temporaries only."""
    codes = values.real.astype(np.int8)
    codes *= 3
    if np.iscomplexobj(values):
        codes += values.imag.astype(np.int8)
    codes += 4
    return codes.view(np.uint8)


def serialize(m: QMatrix | SignMatrix) -> str:
    n = m.n
    kind = "RHM" if isinstance(m, SignMatrix) else "QHM"
    body = np.empty((n, n + 1), dtype=np.uint8)
    body[:, :n] = np.take(_CODE_CHAR, _codes(m.data))
    body[:, n] = ord("\n")
    return f"{kind} {n}\n" + body.tobytes().decode("ascii")


def parse(text: str) -> QMatrix | SignMatrix:
    """Inverse of ``serialize``.

    Errors are reported in reading order: header, then the row count,
    then row by row, where a row of the wrong length is reported before
    any bad cell in it.
    """
    text = text.replace("\r\n", "\n")
    head, newline, body = text.partition("\n")
    rows = body.split("\n") if newline else []
    if rows and rows[-1] == "":
        rows.pop()
    if not newline and not head:
        raise ParseError("empty input", 1)
    header = head.split()
    if len(header) != 2 or header[0] not in ("QHM", "RHM"):
        raise ParseError("header must be 'QHM n' or 'RHM n'", 1)
    try:
        n = int(header[1])
    except ValueError:
        raise ParseError(f"bad order {header[1]!r}", 1) from None
    if n < 1:
        raise ParseError(f"bad order {n}", 1)
    if len(rows) != n:
        raise ParseError(f"expected {n} body rows, got {len(rows)}", len(rows) + 1)
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=n)
    wrong = np.flatnonzero(lengths != n)
    ragged = int(wrong[0]) if wrong.size else n
    # The rows before the first one of the wrong length are n cells and
    # a newline each, so they fill a (ragged, n + 1) grid.
    grid = _to_bytes(body[: ragged * (n + 1)].ljust(ragged * (n + 1), "\n"))
    grid = grid.reshape(ragged, n + 1)[:, :n]
    real = header[0] == "RHM"
    codes = np.take(_RHM_CODES if real else _QHM_CODES, grid)
    bad = codes == _BAD
    if bad.any():
        r, c = divmod(int(np.argmax(bad)), n)
        raise ParseError(f"bad cell {rows[r][c]!r}", r + 2, c + 1)
    if ragged < n:
        raise ParseError(f"expected {n} cells, got {lengths[ragged]}", ragged + 2)
    if real:
        return SignMatrix(codes.astype(np.int64) // 3 - 1)
    return QMatrix(np.take(_CODE_VALUE, codes))


def serialize_phase_vector(v) -> str:
    values = np.asarray(v, dtype=np.complex128)
    if not _is_alphabet(values):
        raise MatrixError("vector entries must be 0 or fourth roots of unity")
    chars = np.take(_CODE_CHAR, _codes(values))
    return np.column_stack([chars, np.full_like(chars, ord("\n"))]).tobytes().decode("ascii")


def parse_phase_vector(text: str) -> np.ndarray:
    """One phase per whitespace-separated token; errors name the token's index."""
    tokens = text.replace("\r\n", "\n").split()
    lengths = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
    wrong = np.flatnonzero(lengths != 1)
    ragged = int(wrong[0]) if wrong.size else len(tokens)
    codes = np.take(_PHASE_CODES, _to_bytes("".join(tokens[:ragged])))
    bad = np.flatnonzero(codes == _BAD)
    if bad.size or ragged < len(tokens):
        r = int(bad[0]) if bad.size else ragged
        raise ParseError(f"bad phase {tokens[r]!r}", r + 1)
    return np.take(_CODE_VALUE, codes)
