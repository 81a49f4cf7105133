"""Bit-exact text format for quaternary and real matrices.

Header ``QHM n`` or ``RHM n`` followed by n lines of n cells, one
character each: '1' -> 1, '-' -> -1, 'i' -> i, 'j' -> -i, '0' -> 0.
('j' denoting -i follows the printed convention of the source tables.)
Real bodies are restricted to {'1', '-', '0'}.

A file stays bytes: ``parse`` reads the cells of the file's bytes and
``serialize`` writes them into the buffer it returns, through (n, n)
uint8 views with rows n + 1 bytes apart, one panel of rows at a time,
so that no temporary is larger than a panel.  ``_frame`` lays out that
buffer and ``_chars`` forms the cells' characters, for ``serialize``
and for ``cod``'s evaluated designs alike.
"""

from __future__ import annotations

from typing import NoReturn

import numpy as np

from .qmatrix import QMatrix, _row_panels

_ALPHABET = {False: "1-ij0", True: "1-0"}  # by whether the matrix is real


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


def _planes(cells: np.ndarray, alphabet: str) -> list[np.ndarray] | None:
    """The int8 ``re`` plane ('1', '-') and, unless ``alphabet`` is real,
    ``im`` plane ('i', 'j') of a 2-D uint8 array of cell characters; None
    unless the nonzero plane cells and the '0' cells the alphabet allows
    number as many as the cells, that is, all are in the alphabet."""
    pairs = ("1-", "ij") if "i" in alphabet else ("1-",)
    planes = [np.empty(cells.shape, dtype=np.int8) for _ in pairs]
    found = 0
    for rows in _row_panels(*cells.shape):
        panel = np.ascontiguousarray(cells[rows])  # compares run faster on it
        for plane, (one, minus) in zip(planes, pairs):
            out = plane[rows]
            np.subtract((panel == ord(one)).view(np.int8),
                        (panel == ord(minus)).view(np.int8), out=out)
            found += np.count_nonzero(out)
        if "0" in alphabet:
            found += np.count_nonzero(panel == ord("0"))
    return planes if found == cells.size else None


def _frame(real: bool, n: int) -> tuple[bytearray, np.ndarray]:
    """The buffer of a file of order n, holding its header and its newline
    column, and the (n, n) uint8 view of its cells, rows n + 1 bytes apart."""
    head = f"{'RHM' if real else 'QHM'} {n}\n".encode()
    buf = bytearray(len(head) + n * (n + 1))
    buf[:len(head)] = head
    body = np.frombuffer(buf, dtype=np.uint8, offset=len(head)).reshape(n, n + 1)
    body[:, n] = ord("\n")
    return buf, body[:, :n]


def _chars(re: np.ndarray, im: np.ndarray | None, out: np.ndarray) -> None:
    """Write the characters of the cells re + i*im into ``out``: '0' plus
    the offset (re & -3) + 57|im| + [im < 0], that is 1 for 1, -3 for -1,
    57 for i and 58 for -i."""
    offset = re & np.int8(-3)
    if im is not None:
        offset += im * im * np.int8(57)
        offset += (im < 0).view(np.int8)
    np.add(offset.view(np.uint8), ord("0"), out=out)


def serialize(m: QMatrix) -> bytearray:
    """The file's bytes, in the one buffer they are written into."""
    buf, cells = _frame(m.im is None, m.n)
    for rows in _row_panels(m.n, m.n):
        _chars(m.re[rows], None if m.im is None else m.im[rows], cells[rows])
    return buf


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


def parse(data: bytes) -> QMatrix:
    """Inverse of ``serialize``, on the file's bytes.

    A well-formed body is exactly n rows of n cells and a newline (the
    last newline may be missing), so its layout is checked by its length
    and its newline column, and its cells, viewed in place, by
    ``_planes``.  Any other input goes to ``_locate_error``.
    """
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    start = data.find(b"\n") + 1
    try:
        real, n = _header(data[:start].decode("ascii"))
    except (UnicodeDecodeError, ParseError):  # a non-ASCII byte is named first
        _locate_error(data)
    size = len(data) - start
    if (size in (n * (n + 1), n * (n + 1) - 1)
            and data[start + n::n + 1] == b"\n" * (size // (n + 1))):
        cells = np.ndarray((n, n), np.uint8, data, start, (n + 1, 1))
        planes = _planes(cells, _ALPHABET[real])
        if planes is not None:
            # Every cell is counted in the alphabet, one character a cell:
            # planes in {-1, 0, 1} with disjoint supports.
            return QMatrix._frozen(*planes)
    _locate_error(data)


def _locate_error(data: bytes) -> NoReturn:
    """Raise the first error of a file ``parse`` refused, in reading
    order: a non-ASCII byte, the header, then the row count, then row by
    row, where a row of the wrong length is reported before any bad cell
    in it."""
    head, newline, body = decode(data).partition("\n")
    rows = body.split("\n") if newline else []
    if rows and rows[-1] == "":
        rows.pop()
    if not newline and not head:
        raise ParseError("empty input", 1)
    real, n = _header(head)
    if len(rows) != n:
        raise ParseError(f"expected {n} body rows, got {len(rows)}", len(rows) + 1)
    for line, row in enumerate(rows, start=2):
        if len(row) != n:
            raise ParseError(f"expected {n} cells, got {len(row)}", line)
        col = n - len(row.lstrip(_ALPHABET[real]))
        if col < n:
            raise ParseError(f"bad cell {row[col]!r}", line, col + 1)
    raise AssertionError("parse refused a well-formed file")


def parse_phase_vector(data: bytes) -> np.ndarray:
    """One phase per whitespace-separated token of the file's decoded
    bytes; a bad token's error names its index."""
    tokens = decode(data).split()
    cells = np.frombuffer("".join(tokens).encode(), dtype=np.uint8)
    planes = _planes(cells[None], "1-ij") if len(cells) == len(tokens) else None
    if planes is None:
        for index, token in enumerate(tokens, start=1):
            if len(token) != 1 or token not in "1-ij":
                raise ParseError(f"bad phase {token!r}", index)
    return planes[0][0] + 1j * planes[1][0]
