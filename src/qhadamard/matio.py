"""Bit-exact text format for quaternary and real matrices.

Header ``QHM n`` or ``RHM n`` followed by n lines of n cells, one
character each: '1' -> 1, '-' -> -1, 'i' -> i, 'j' -> -i, '0' -> 0.
('j' denoting -i follows the printed convention of the source tables.)
Real bodies are restricted to {'1', '-', '0'}.

Cells go through ``bytes.translate`` tables over the whole body at once.
A cell value x = re + im*i has the code 3*re + im + 4 in 0..8, and code
9 is the newline; ``_CODE_CHAR`` maps codes to characters.  Each
alphabet has a pair of 256-byte tables that map a character to the int8
byte of its ``re`` or its ``im`` plane, and every other byte (so also
every non-ASCII one) to ``_BAD``.
"""

from __future__ import annotations

from typing import NoReturn

import numpy as np

from .qmatrix import QMatrix

_BAD = b"\x02"  # no plane value: the planes hold 0, 1 and -1 (0xff)
_CHARS = b"?-?j0i?1?"
_CODE_CHAR = bytes.maketrans(bytes(range(10)), _CHARS + b"\n")


def _tables(chars: bytes) -> tuple[bytes, bytes]:
    """The ``re`` and ``im`` plane tables of an alphabet."""
    re, im = bytearray(_BAD * 256), bytearray(_BAD * 256)
    for ch in chars:
        code = _CHARS.index(ch)
        re[ch] = (code // 3 - 1) & 0xFF
        im[ch] = (code % 3 - 1) & 0xFF
    return bytes(re), bytes(im)


_QHM = _tables(b"1-ij0")
_RHM = _tables(b"1-0")
_PHASE = _tables(b"1-ij")


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


def _to_bytes(text: str) -> bytes:
    # One byte per character: characters past U+00FF become '?', which
    # like every non-ASCII byte is outside the alphabet.
    return text.encode("latin-1", errors="replace")


def _cells(data: bytes, table: bytes, count: int) -> bytes | None:
    """``data`` through ``table`` with newlines dropped; None unless that
    leaves exactly ``count`` cells, all in the alphabet."""
    out = data.translate(table, b"\n")
    return out if len(out) == count and _BAD not in out else None


def serialize(m: QMatrix) -> str:
    n = m.n
    body = np.empty((n, n + 1), dtype=np.int8)
    cells = body[:, :n]
    np.multiply(m.re, 3, out=cells)
    if m.im is not None:
        cells += m.im
    cells += 4
    body[:, n] = 9
    kind = "RHM" if m.im is None else "QHM"
    return f"{kind} {n}\n" + body.tobytes().translate(_CODE_CHAR).decode("ascii")


def _header(head: str) -> tuple[bool, int]:
    """Whether the header line names a real matrix, and its order."""
    header = head.split()
    if len(header) != 2 or header[0] not in ("QHM", "RHM"):
        raise ParseError("header must be 'QHM n' or 'RHM n'", 1)
    try:
        n = int(header[1])
    except ValueError:
        raise ParseError(f"bad order {header[1]!r}", 1) from None
    if n < 1:
        raise ParseError(f"bad order {n}", 1)
    return header[0] == "RHM", n


def parse(text: str) -> QMatrix:
    """Inverse of ``serialize``.

    A well-formed body is exactly n rows of n cells and a newline (the
    last newline may be missing), so its layout is checked by its length
    and its newline column, and its cells by one translation per plane.
    Any other input goes to ``_locate_error``.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    head_end = text.find("\n")
    if head_end >= 0:
        real, n = _header(text[:head_end])
        body = _to_bytes(text[head_end + 1:])
        if not body.endswith(b"\n"):
            body += b"\n"
        if len(body) == n * (n + 1) and body[n::n + 1] == b"\n" * n:
            re = _cells(body, (_RHM if real else _QHM)[0], n * n)
            if re is not None:
                planes = (re,) if real else (re, body.translate(_QHM[1], b"\n"))
                return QMatrix(*(np.frombuffer(plane, dtype=np.int8).reshape(n, n)
                                 for plane in planes))
    _locate_error(text)


def _locate_error(text: str) -> NoReturn:
    """Raise the first error of a file ``parse`` refused, in reading
    order: header, then the row count, then row by row, where a row of
    the wrong length is reported before any bad cell in it."""
    head, newline, body = text.partition("\n")
    rows = body.split("\n") if newline else []
    if rows and rows[-1] == "":
        rows.pop()
    if not newline and not head:
        raise ParseError("empty input", 1)
    real, n = _header(head)
    if len(rows) != n:
        raise ParseError(f"expected {n} body rows, got {len(rows)}", len(rows) + 1)
    table = (_RHM if real else _QHM)[0]
    for line, row in enumerate(rows, start=2):
        if len(row) != n:
            raise ParseError(f"expected {n} cells, got {len(row)}", line)
        col = _to_bytes(row).translate(table).find(_BAD)
        if col >= 0:
            raise ParseError(f"bad cell {row[col]!r}", line, col + 1)
    raise AssertionError("parse refused a well-formed file")


def parse_phase_vector(text: str) -> np.ndarray:
    """One phase per whitespace-separated token; errors name the token's index."""
    tokens = text.replace("\r\n", "\n").split()
    cells = _to_bytes("".join(tokens))
    re = _cells(cells, _PHASE[0], len(tokens))
    if re is None:
        for index, token in enumerate(tokens, start=1):
            if len(token) != 1 or _to_bytes(token).translate(_PHASE[0]) == _BAD:
                raise ParseError(f"bad phase {token!r}", index)
    im = cells.translate(_PHASE[1])
    return np.frombuffer(re, dtype=np.int8) + 1j * np.frombuffer(im, dtype=np.int8)
