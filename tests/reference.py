"""Slow reference implementations that the library is tested against.

The text format as it was first written, one Python step per cell, and
a Gram product over Python integers.  Both are deliberately naive: they
are the oracles for the table-driven ``matio`` and the float-BLAS Gram
kernel in ``qmatrix``.
"""

import numpy as np

from qhadamard import QMatrix, SignMatrix
from qhadamard.matio import ParseError

CHAR_TO_VALUE = {"1": 1 + 0j, "-": -1 + 0j, "i": 1j, "j": -1j, "0": 0j}
VALUE_TO_CHAR = {v: k for k, v in CHAR_TO_VALUE.items()}


def serialize(m):
    if isinstance(m, SignMatrix):
        kind = "RHM"
        data = m.data.astype(np.complex128)
    else:
        kind = "QHM"
        data = m.data
    lines = [f"{kind} {m.n}"]
    for row in data:
        lines.append("".join(VALUE_TO_CHAR[complex(x)] for x in row))
    return "\n".join(lines) + "\n"


def parse(text):
    lines = text.replace("\r\n", "\n").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty input", 1)
    header = lines[0].split()
    if len(header) != 2 or header[0] not in ("QHM", "RHM"):
        raise ParseError("header must be 'QHM n' or 'RHM n'", 1)
    try:
        n = int(header[1])
    except ValueError:
        raise ParseError(f"bad order {header[1]!r}", 1) from None
    if n < 1:
        raise ParseError(f"bad order {n}", 1)
    if len(lines) - 1 != n:
        raise ParseError(f"expected {n} body rows, got {len(lines) - 1}", len(lines))
    real = header[0] == "RHM"
    data = np.zeros((n, n), dtype=np.complex128)
    for r, line in enumerate(lines[1:], start=2):
        if len(line) != n:
            raise ParseError(f"expected {n} cells, got {len(line)}", r)
        for c, ch in enumerate(line):
            if ch not in CHAR_TO_VALUE or (real and ch in ("i", "j")):
                raise ParseError(f"bad cell {ch!r}", r, c + 1)
            data[r - 2, c] = CHAR_TO_VALUE[ch]
    if real:
        return SignMatrix(data.real.astype(np.int64))
    return QMatrix(data)


def serialize_phase_vector(v):
    return "".join(VALUE_TO_CHAR[complex(x)] + "\n" for x in np.asarray(v))


def parse_phase_vector(text):
    chars = text.replace("\r\n", "\n").split()
    values = []
    for r, ch in enumerate(chars, start=1):
        if ch not in CHAR_TO_VALUE or ch == "0":
            raise ParseError(f"bad phase {ch!r}", r)
        values.append(CHAR_TO_VALUE[ch])
    return np.asarray(values, dtype=np.complex128)


def gauss_gram(re, im, conjugate=True):
    """X X* (X X^T unless ``conjugate``) for X = re + i*im, over Python
    ints; returns the real and imaginary parts as nested lists."""
    x = [[(int(a), int(b)) for a, b in zip(ra, rb)] for ra, rb in zip(re, im)]
    n = len(x)
    g_re = [[0] * n for _ in range(n)]
    g_im = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s_re = s_im = 0
            for (a, b), (c, d) in zip(x[i], x[j]):
                if conjugate:
                    d = -d
                s_re += a * c - b * d
                s_im += a * d + b * c
            g_re[i][j], g_im[i][j] = s_re, s_im
    return g_re, g_im


def gauss_is_scalar(re, im, c, conjugate=True):
    c = complex(c)
    g_re, g_im = gauss_gram(re, im, conjugate)
    n = len(g_re)
    return all(
        (g_re[i][j], g_im[i][j]) == ((c.real, c.imag) if i == j else (0, 0))
        for i in range(n) for j in range(n)
    )
