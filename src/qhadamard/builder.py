"""Skew-regular quaternary Hadamard matrices of order 1 + p^2.

The pipeline: Paley-style conference matrix C over GF(p^2), the complex
Hadamard matrix H = I - iC, and a diagonal phase similarity that makes
every row sum equal to 1 - p*i while keeping H + H* = 2I.  Also the
skew-core extraction and the order-doubling block construction.
"""

from __future__ import annotations

import math

import numpy as np

from .field import FieldCtx, is_prime
from .qmatrix import MatrixError, QMatrix, _mul, diag_similarity, gram_is_scalar

# Row/column labels are {infinity} followed by GF(p^2) in index order,
# so position of element x is 1 + index(x) and each additive coset is a
# contiguous block of p positions.


def _core(ctx: FieldCtx) -> np.ndarray:
    """The core K[(b1, a1), (b2, a2)] = chi(b1 - b2, a1 - a2) of the
    conference matrix, as a read-only (p, p, p, p) view of O(q) memory.

    For x = b*p + a the table ``char_table.reshape(p, p)`` is indexed
    [b, a].  For the 2p x 2p table T[i, j] = chi(-1 - i, -1 - j) (mod p),
    K[b1, a1] is the p x p window of T at (p-1-b1, p-1-a1).
    """
    p = ctx.p
    i = (-1 - np.arange(2 * p)) % p
    t = ctx.char_table.reshape(p, p)[i[:, None], i]
    # From T[p-1, p-1], b1 and a1 step back a row and a column, b2 and a2
    # forward, so every index stays in T.
    s0, s1 = t.strides
    return np.lib.stride_tricks.as_strided(t[p - 1:, p - 1:], (p, p, p, p),
                                           (-s0, -s1, s0, s1), writeable=False)


def conference_matrix(ctx: FieldCtx) -> QMatrix:
    """Order q+1: zero diagonal, first row/column 1, chi(x - y) elsewhere."""
    p, q = ctx.p, ctx.q
    c = np.zeros((q + 1, q + 1), dtype=np.int8)
    c[0, 1:] = 1
    c[1:, 0] = 1
    c[1:, 1:].reshape(p, p, p, p)[...] = _core(ctx)
    return QMatrix(c)


def paley_qhm(ctx: FieldCtx) -> QMatrix:
    """H = I - iC: unit diagonal, +-i off-diagonal, HH* = (q+1) I."""
    c = conference_matrix(ctx)
    return QMatrix(np.eye(ctx.q + 1, dtype=np.int8), -c.re)


def twist_vector(ctx: FieldCtx) -> np.ndarray:
    """Phase vector: 1 on {infinity} and GF(p), -i on the cosets 1..(p-1)/2
    and +i on the others."""
    b = ctx.b
    v = np.empty(ctx.q + 1, dtype=np.complex128)
    v[0] = 1
    v[1:] = np.where(b == 0, 1, np.where(b <= (ctx.p - 1) // 2, -1j, 1j))
    return v


def skew_regular_qhm(ctx: FieldCtx) -> QMatrix:
    """The order 1+p^2 matrix with Gram (1+p^2) I, row sums 1 - p*i, S + S* = 2I."""
    return diag_similarity(paley_qhm(ctx), twist_vector(ctx))


def base_form(re: np.ndarray, im: np.ndarray | None):
    """(ctx, u, w), u and w as (re, im) pairs, for X = re + i*im of the
    base form X = diag(u)(I - iC)diag(w), u and w unit vectors and C the
    conference matrix of ctx = GF(p^2), p an odd prime with 1 + p^2 the
    order; None when X is not of that form.  S (``skew_regular_qhm``),
    its twists and their rows negated are of it.

    The form fixes u and w up to a common unit, so set w[0] = 1; then
    X[0, 0] = u[0], X[i, 0] = -i u[i] and X[0, j] = -i u[0] w[j] for
    i, j > 0.  X is of the form exactly when diag(u*) X diag(w*), with u
    and w read off in this way, is I - iC cell for cell.

    X + X* = 2I exactly when w = u* and C = C^T: C has a zero diagonal,
    so X + X* has the diagonal 2 Re(u_k w_k), and for w = u* the cell
    (j, k) off it is -i u_j C_jk u*_k + conj(-i u_k C_kj u*_j)
    = i u_j u*_k (C_kj - C_jk), with u_j u*_k a unit.
    """
    n = re.shape[0]
    p = math.isqrt(n - 1)
    if im is None or p * p + 1 != n or p == 2 or not is_prime(p):
        return None
    ur, ui = _mul(re[:, 0], im[:, 0], 0, 1)
    ur[0], ui[0] = re[0, 0], im[0, 0]
    wr, wi = _mul(*_mul(re[0], im[0], 0, 1), ur[0], -ui[0])
    wr[0], wi[0] = 1, 0
    # The planes are disjoint, so a cell is a unit exactly when one is nonzero.
    if not ((ur | ui).all() and (wr | wi).all()):
        return None
    # Y = diag(u*) X diag(w*) = Z diag(w*) has |Y_jk| <= 1, so a unit diagonal and
    # Im Y = -C, nonzero off the diagonal, leave Re Y zero there: Y = I - iC.
    zr, zi = _mul(re, im, ur[:, None], -ui[:, None])
    yi = zi * wr - zr * wi
    if ((zr.diagonal() * wr + zi.diagonal() * wi != 1).any()
            or np.count_nonzero(yi) != n * (n - 1)):
        return None
    # yi + C = 0, with C added in place through the view of its core, so
    # that C is not built a second time.
    ctx = FieldCtx(p)
    yi[0, 1:] += 1
    yi[1:, 0] += 1
    core = yi[1:, 1:].reshape(p, p, p, p)
    core += _core(ctx)
    return None if yi.any() else (ctx, (ur, ui), (wr, wi))


def skew_core(h: QMatrix) -> QMatrix:
    """Extract I + Q of order n-1 from a skew-type quaternary Hadamard matrix.

    Normalizes by the diagonal phase similarity diag(first row), which
    sends the first row to all ones and (by skewness) the first column
    below the corner to all minus ones.
    """
    from .verify import check_skew_type

    if not check_skew_type(h):
        raise MatrixError("input is not skew-type")
    d = h.re[0] + 1j * h.im[0]
    if (d == 0).any():
        raise MatrixError("input is not normalizable to the bordered form")
    d[0] = 1
    normalized = diag_similarity(h, d)
    # A cell whose real plane is +-1 has a zero imaginary plane.
    if not ((normalized.re[0] == 1).all() and (normalized.re[1:, 0] == -1).all()):
        raise MatrixError("input is not normalizable to the bordered form")
    return QMatrix(normalized.re[1:, 1:], normalized.im[1:, 1:])


def double(h: QMatrix) -> QMatrix:
    """Order-doubling block matrix [[H, iH], [iH*, H*]].

    Preserves the Hadamard property and skewness; a constant row sum
    a + b*i spreads into {a-b + (a+b)i, a+b + (a-b)i}.  For H = A + iB, the
    planes of iH = -B + iA, H* = A^T - iB^T and iH* = B^T + iA^T are written in place.
    """
    if not gram_is_scalar(h, h.n):
        raise MatrixError("input is not a quaternary Hadamard matrix")
    n = h.n
    re, im = np.empty((2, 2 * n, 2 * n), dtype=np.int8)
    re[:n, :n], im[:n, :n], im[:n, n:] = h.re, h.im, h.re
    np.negative(h.im, out=re[:n, n:])
    re[n:, n:], re[n:, :n] = h.re.T, h.im.T
    im[n:, :n] = re[n:, n:]
    np.negative(re[n:, :n], out=im[n:, n:])
    return QMatrix(re, im)
