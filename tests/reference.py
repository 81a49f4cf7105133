"""Slow reference implementations that the library is tested against.

The text format as it was first written, one Python step per cell, a
Gram product over Python integers and one by int64 numpy products, GF(p^2) arithmetic on coordinate
pairs, row sums as Python complex numbers with the row-sum predicates
on them, the skew-type test as one n x n sum, the Hadamard predicate,
the conjugate transpose, unit scaling and 2 x 2 block matrices by cell
values, a design's cell codes from its coefficients' values, the
closed-form row-sum schedule of the evaluated designs, a design's
realness from its codes, the skew-core identities that the ``cod``
summary's certificate rests on, and
the excess pipeline on the dense matrices of order 4 + 4p^2, and S as
the paper writes it, diag(v)(I - iC)diag(v*) from the conference matrix
C, with the full-plane base-form test and skew core that went with it.
All are deliberately naive: they are the oracles for the byte-level
``matio``, the float-BLAS Gram kernel and the structural certificates
in ``qmatrix``, the vectorized character table in ``field``, the
report in ``verify``, the recursion and summary in ``cod``, the factored report
in ``excess`` and the coset-by-coset build, recogniser and core in
``builder``.  ``qmatrix`` and ``equal`` build and compare matrices by
their values.
"""

import math

import numpy as np

from qhadamard import (
    CODMatrix, MatrixError, QMatrix, diag_similarity, gram_is_scalar, realify,
)
from qhadamard.excess import ExcessReport, PipelineReport, weight_bound
from qhadamard.field import FieldCtx, is_prime
from qhadamard.matio import ParseError
from qhadamard.qmatrix import PHASES, _mul
from qhadamard.verify import check_skew_type

QALPHABET = (0j, 1 + 0j, 1j, -1 + 0j, -1j)
CHAR_TO_VALUE = {"1": 1 + 0j, "-": -1 + 0j, "i": 1j, "j": -1j, "0": 0j}
VALUE_TO_CHAR = {v: k for k, v in CHAR_TO_VALUE.items()}


def qmatrix(values):
    """The matrix of an array of values: quaternary for a complex array,
    real (no ``im`` plane) otherwise."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        return QMatrix(values.real, values.imag)
    return QMatrix(values)


def equal(a, b):
    """Same kind (real or quaternary) and the same entries."""
    return ((a.im is None) == (b.im is None) and np.array_equal(a.re, b.re)
            and (a.im is None or np.array_equal(a.im, b.im)))


def conj_transpose(m):
    return QMatrix(m.re.T, None if m.im is None else -m.im.T)


def scale(m, phase):
    """phase * M for a fourth root of unity ``phase``."""
    if phase not in PHASES:
        raise MatrixError(f"{phase!r} is not a phase")
    return qmatrix(np.asarray(m.data) * phase)


def block2(m11, m12, m21, m22):
    """[[M11, M12], [M21, M22]] of quaternary blocks of one order."""
    if not (m11.n == m12.n == m21.n == m22.n):
        raise MatrixError("block orders differ")
    return qmatrix(np.block([[m11.data, m12.data], [m21.data, m22.data]]))


def serialize(m):
    kind = "RHM" if m.im is None else "QHM"
    lines = [f"{kind} {m.n}"]
    for row in np.asarray(m.data, dtype=np.complex128):
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
        return QMatrix(data.real)
    return qmatrix(data)


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


def gram_parts(re, im, conjugate=True):
    """X X* (X X^T unless ``conjugate``) for X = re + i*im of integers, as
    int64 real and imaginary parts by numpy products; ``im`` None for a
    real X."""
    a = np.asarray(re, dtype=np.int64)
    b = np.zeros_like(a) if im is None else np.asarray(im, dtype=np.int64)
    sign = 1 if conjugate else -1
    return a @ a.T + sign * (b @ b.T), b @ a.T - sign * (a @ b.T)


def parts_are_scalar(parts, c):
    """Whether the Gram parts ``(g_re, g_im)`` are cI."""
    c = complex(c)
    g_re, g_im = parts
    eye = np.eye(len(g_re))
    return bool(np.array_equal(g_re, c.real * eye) and np.array_equal(g_im, c.imag * eye))


def skew_type(m):
    """M + M* = 2I, formed as one n x n sum."""
    s = m.re + m.re.T
    s.flat[:: m.n + 1] -= 2
    return not s.any() and (m.im is None or np.array_equal(m.im, m.im.T))


def row_sums(m):
    """The row sums of a matrix as a list of Python complex numbers."""
    return [complex(s) for s in np.asarray(m.data, dtype=np.complex128).sum(axis=1)]


def check_quaternary_hadamard(m):
    """All entries nonzero phases and M M* = n I."""
    return bool((m.re | m.im).all()) and gram_is_scalar(m, m.n)


def is_regular(m):
    """The common row sum, or None when row sums differ."""
    sums = row_sums(m)
    return sums[0] if len(set(sums)) == 1 else None


def is_absolutely_regular(m):
    """Whether all |row sum|^2 agree, and the common value if so."""
    norms = [int(round(s.real)) ** 2 + int(round(s.imag)) ** 2 for s in row_sums(m)]
    if all(v == norms[0] for v in norms):
        return True, norms[0]
    return False, None


def check_semi_regular(m, a, b):
    """Row sums confined to {+-a +-bi, +-b +-ai}; requires a^2 + b^2 = n."""
    if a * a + b * b != m.n:
        raise ValueError(f"a^2 + b^2 = {a * a + b * b} != order {m.n}")
    allowed = {complex(ea * x, eb * y) for x, y in ((a, b), (b, a))
               for ea in (1, -1) for eb in (1, -1)}
    return all(s in allowed for s in row_sums(m))


def semi_regular_witness(m):
    """Smallest (a, b) with a <= b, a^2 + b^2 = n, and row sums in the set."""
    for a in range(math.isqrt(m.n) + 1):
        b = math.isqrt(m.n - a * a)
        if a * a + b * b == m.n and b >= a and check_semi_regular(m, a, b):
            return a, b
    return None


def gf_mul(p, n, x, y):
    """(a + b theta)(c + d theta) in GF(p^2) with theta^2 = n, on pairs (a, b)."""
    (a, b), (c, d) = x, y
    return (a * c + n * b * d) % p, (a * d + b * c) % p


def gf_pow(p, n, x, e):
    """x^e in GF(p^2) by square-and-multiply."""
    result = (1, 0)
    while e > 0:
        if e & 1:
            result = gf_mul(p, n, result, x)
        x = gf_mul(p, n, x, x)
        e >>= 1
    return result


def expected_row_sum(p, level):
    """Row-sum schedule for the evaluated designs, 1-based level.

    Level 1 is the base design at a = b = 1 (row sum 1 - p*i); each
    recursion step advances one level: even levels give
    p^level - p^(level-1) i, odd levels p^(level-1) - p^level i.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    if level % 2 == 0:
        return complex(p**level, -(p ** (level - 1)))
    return complex(p ** (level - 1), -(p**level))


def design(acoef, bcoef):
    """The design aA + bB over the identity level table, its cell codes
    read from the values of A and B: 0, 1 + e for a*i^e and 5 + e for
    b*i^e.  Refuses cells outside the alphabet and overlapping supports."""
    acoef, bcoef = np.asarray(acoef, dtype=complex), np.asarray(bcoef, dtype=complex)
    if not (np.isin(acoef, QALPHABET).all() and np.isin(bcoef, QALPHABET).all()):
        raise MatrixError("entries must be 0 or fourth roots of unity")
    if ((acoef != 0) & (bcoef != 0)).any():
        raise MatrixError("each cell may carry at most one variable")
    code = np.zeros(acoef.shape, dtype=np.uint8)
    for first, coef in ((1, acoef), (5, bcoef)):
        for e, phase in enumerate(PHASES):
            code[coef == phase] = first + e
    return CODMatrix(code, np.arange(9, dtype=np.uint8).reshape(9, 1, 1))


def is_real(d):
    """No cell of the design ``d`` is imaginary: no code of ``d.code`` has
    a block ``d.table[c]`` that holds an imaginary code, 2, 4, 6 or 8
    (a or b times +-i).

    The plain-transpose Gram X X^T = (s1 a^2 + s2 b^2) I holds exactly
    when ``d`` is real and X X* does (``certify_gram``): the diagonal of
    X X^T at (1, 0) counts the real minus the imaginary cells in a row of
    A, so it equals s1 only when A has no imaginary cell, and likewise
    for B at (0, 1); for a real X, X^T = X*.
    """
    imaginary = [c for c in range(9) if np.isin(d.table[c], (2, 4, 6, 8)).any()]
    return not np.isin(d.code, imaginary).any()


def broken_identity(stype, core, q):
    """The first identity of the factored ``cod`` certificate that a skew
    core I + Q of order q and a base row type ``stype`` fail, by name, or
    None when all hold, each checked on the dense Q = core - I by value:
    the int64 Gram ``gram_parts`` decides QQ* exactly."""
    eye = np.eye(q)
    values = np.asarray(core.data) - eye
    if not ((np.diagonal(values) == 0).all()
            and (np.abs(values[eye == 0]) == 1).all()):
        return "Q has zero diagonal and unit cells off it"
    if not np.array_equal(values.conj().T, -values):
        return "Q* = -Q"
    if values.sum(axis=1).any():
        return "QJ = 0"
    g_re, g_im = gram_parts(values.real, values.imag)
    if not (np.array_equal(g_re, q * eye - 1) and not g_im.any()):
        return "QQ* = qI - J"
    s1, s2 = stype
    if s2 != q * s1:
        return "s2 = q s1"
    return None


def build_triple(s):
    """([[S,iS],[iS,S]], [[Q,iQ],[iQ,Q]], [[I,iI],[iI,I]]) for S = I + Q."""
    if not (check_quaternary_hadamard(s) and check_skew_type(s)
            and is_regular(s) is not None):
        raise MatrixError("input is not a skew-regular quaternary Hadamard matrix")
    eye = np.eye(s.n, dtype=np.int8)
    q = QMatrix(s.re - eye, s.im)

    def doubled(m):
        return block2(m, scale(m, 1j), scale(m, 1j), m)

    return doubled(s), doubled(q), doubled(QMatrix(eye, np.zeros_like(eye)))


def excess(w):
    return int(w.re.sum())


def maximize_excess_rows(w):
    """Negate every row of a real matrix with a negative sum; zero-sum
    rows stay put."""
    sums = w.re.sum(axis=1)
    negate = sums < 0
    flipped = QMatrix(np.where(negate[:, None], -w.re, w.re))
    weight = np.count_nonzero(w.re[0])
    return flipped, ExcessReport(
        order=w.n,
        excess_before=int(sums.sum()),
        excess_after=int(np.abs(sums).sum()),
        rows_negated=np.flatnonzero(negate).tolist(),
        bound_nk=weight_bound(w.n, weight),
    )


def negate_rows(w, rows):
    out = w.re.copy()
    out[rows] *= -1
    return QMatrix(out)


def dense_pipeline(s):
    """The excess pipeline on the dense matrices: build W1, W2, W3, negate
    the W1 rows with negative sums everywhere, and report the resulting
    excesses; returns the report and the maximized Hadamard matrix."""
    q1, q2, q3 = build_triple(s)
    w1, w2, w3 = realify(q1), realify(q2), realify(q3)
    w1_max, report = maximize_excess_rows(w1)
    w2_neg = negate_rows(w2, report.rows_negated)
    w3_neg = negate_rows(w3, report.rows_negated)
    w2_sums = w2_neg.re.sum(axis=1)
    constant = int(w2_sums[0]) if np.all(w2_sums == w2_sums[0]) else None
    pipeline = PipelineReport(
        p=math.isqrt(s.n - 1),
        order=w1.n,
        w1=report,
        w2_excess=excess(w2_neg),
        w2_bound=weight_bound(w2.n, np.count_nonzero(w2.re[0])) or 0,
        w2_row_sums_constant=constant,
        w2_col_sums=w2_neg.re.sum(axis=0).tolist(),
        w3_total=excess(w3_neg),
    )
    return pipeline, w1_max


def conference_matrix(ctx):
    """Order q+1: zero diagonal, first row/column 1, chi(x - y) elsewhere,
    x and y at the indices b*p + a of ``ctx.char_table``."""
    p, q = ctx.p, ctx.q
    a, b = np.arange(q) % p, np.arange(q) // p
    c = np.zeros((q + 1, q + 1), dtype=np.int8)
    c[0, 1:] = 1
    c[1:, 0] = 1
    c[1:, 1:] = ctx.char_table[(b[:, None] - b) % p * p + (a[:, None] - a) % p]
    return QMatrix(c)


def paley_qhm(ctx):
    """H = I - iC: unit diagonal, +-i off-diagonal, HH* = (q+1) I."""
    c = conference_matrix(ctx)
    return QMatrix(np.eye(ctx.q + 1, dtype=np.int8), -c.re)


def twist_vector(ctx):
    """Phase vector: 1 on {infinity} and GF(p), -i on the cosets 1..(p-1)/2
    and +i on the others."""
    b = np.arange(ctx.q) // ctx.p
    v = np.empty(ctx.q + 1, dtype=np.complex128)
    v[0] = 1
    v[1:] = np.where(b == 0, 1, np.where(b <= (ctx.p - 1) // 2, -1j, 1j))
    return v


def core_blocks(ctx):
    """The core K[b1, a1, b2, a2] = chi(b1 - b2, a1 - a2) of the conference
    matrix as a read-only (p, p, p, p) view: K[b1, a1] is the p x p window
    at (p-1-b1, p-1-a1) of the 2p x 2p table T[i, j] = chi(-1 - i, -1 - j)."""
    p = ctx.p
    i = (-1 - np.arange(2 * p)) % p
    t = ctx.char_table.reshape(p, p)[i[:, None], i]
    s0, s1 = t.strides
    return np.lib.stride_tricks.as_strided(t[p - 1:, p - 1:], (p, p, p, p),
                                           (-s0, -s1, s0, s1), writeable=False)


def base_form(re, im, ctx=None):
    """(ctx, u, w) for X = re + i*im = diag(u)(I - iC)diag(w), u and w as
    (re, im) pairs with w[0] = 1, formed over whole planes: u from column
    0, w from row 0, Y = diag(u*) X diag(w*) compared with I - iC.  None
    when X is not of that form.  ``ctx`` defaults to ``FieldCtx(p)``."""
    n = re.shape[0]
    p = math.isqrt(n - 1)
    if im is None or p * p + 1 != n or p == 2 or not is_prime(p):
        return None
    ur, ui = _mul(re[:, 0], im[:, 0], 0, 1)
    ur[0], ui[0] = re[0, 0], im[0, 0]
    wr, wi = _mul(*_mul(re[0], im[0], 0, 1), ur[0], -ui[0])
    wr[0], wi[0] = 1, 0
    if not ((ur | ui).all() and (wr | wi).all()):
        return None
    zr, zi = _mul(re, im, ur[:, None], -ui[:, None])
    yi = zi * wr - zr * wi
    if ((zr.diagonal() * wr + zi.diagonal() * wi != 1).any()
            or np.count_nonzero(yi) != n * (n - 1)):
        return None
    ctx = FieldCtx(p) if ctx is None else ctx
    yi[0, 1:] += 1
    yi[1:, 0] += 1
    core = yi[1:, 1:].reshape(p, p, p, p)
    core += core_blocks(ctx)
    return None if yi.any() else (ctx, (ur, ui), (wr, wi))


def skew_core(h):
    """I + Q of order n-1 from a skew-type matrix by the similarity
    diag(first row) over the whole matrix."""
    if not check_skew_type(h):
        raise MatrixError("input is not skew-type")
    d = h.re[0] + 1j * h.im[0]
    if (d == 0).any():
        raise MatrixError("input is not normalizable to the bordered form")
    d[0] = 1
    normalized = diag_similarity(h, d)
    if not ((normalized.re[0] == 1).all() and (normalized.re[1:, 0] == -1).all()):
        raise MatrixError("input is not normalizable to the bordered form")
    return QMatrix(normalized.re[1:, 1:], normalized.im[1:, 1:])
