"""Skew-regular quaternary Hadamard matrices of order 1 + p^2.

S = diag(v)(I - iC)diag(v*) for C the Paley-style conference matrix
over GF(p^2) and v the twist, which is constant on each additive coset:
1 on {infinity} and the coset b = 0, -i on the cosets 1..(p-1)/2 and +i
on the others.  It keeps H H* = (1 + p^2) I and H + H* = 2I of
H = I - iC and makes every row sum 1 - p*i.  Off its border and
diagonal S is C's core times the p x p coset table
f[b1, b2] = -i v(b1) v*(b2).  The one view of that core,
``FieldCtx.core``, built once per prime and process (``field.context``),
serves the build of S, the base-form recogniser and the skew core, each
coset by coset.  Also the order-doubling block construction.
"""

from __future__ import annotations

import math

import numpy as np

from .field import FieldCtx, context, is_prime
from .qmatrix import (MatrixError, QMatrix, _row_panels, check_skew_type, diag_similarity,
                      gram_is_scalar)

# Row/column labels are {infinity} followed by GF(p^2) in index order,
# so position of element x is 1 + index(x) and each additive coset is a
# contiguous block of p positions.

# The planes of i^e, for the phase exponent e = 0, 1, 2, 3.
_UNIT_RE = np.array([1, 0, -1, 0], dtype=np.int8)
_UNIT_IM = np.array([0, 1, 0, -1], dtype=np.int8)

# ``base_form`` tests rows in panels of whole cosets of about this many cells.
_FORM_PANEL = 1 << 18


def _phase(re: np.ndarray, im: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The exponent e, modulo 4, of each unit cell re + i*im = i^e, in
    ``out`` if given; a zero cell gives 0 too.  An int8 -1 has every bit
    set, so (re & 2) | (im & 3) takes 1, i, -1, -i to 0, 1, 2, 3; at most
    one plane of a cell is nonzero, so (re & 2) + im is the same modulo 4
    and needs no temporary."""
    e = np.bitwise_and(re, 2, out=out)
    e += im
    return e


def skew_regular_qhm(ctx: FieldCtx) -> QMatrix:
    """The order 1+p^2 matrix with Gram (1+p^2) I, row sums 1 - p*i, S + S* = 2I.

    Each plane is written from phase exponents: S[0, 0] = 1,
    S[0, k] = -i v*_k and S[k, 0] = -i v_k for k > 0, a unit diagonal
    (C's is zero), and S[(b1, a1), (b2, a2)] = f[b1, b2] K[b1, a1, (b2, a2)]
    off it, for the core view K = ``ctx.core``.
    """
    p, n = ctx.p, ctx.q + 1
    b = np.arange(p)
    ev = np.where(b == 0, 0, np.where(b <= (p - 1) // 2, 3, 1))
    # f[b1, b2] = i^(3 + ev(b1) - ev(b2)), repeated over the p cells of coset b2.
    f = np.repeat((3 + ev[:, None] - ev) % 4, p, axis=1)
    ek = np.repeat(ev, p)
    row0, col0 = (np.concatenate(([0], (3 + s * ek) % 4)) for s in (-1, 1))
    core = ctx.core
    planes = np.empty((2, n, n), dtype=np.int8)
    for plane, unit in zip(planes, (_UNIT_RE, _UNIT_IM)):
        np.multiply(core, unit[f][:, None], out=plane[1:].reshape(p, p, n)[:, :, 1:])
        plane[0], plane[:, 0] = unit[row0], unit[col0]
        plane.flat[:: n + 1] = unit[0]
    # Unit tables times the core's {-1, 0, 1}, a unit border and diagonal.
    return QMatrix._frozen(*planes)


def base_form(re: np.ndarray, im: np.ndarray | None):
    """(ctx, skew) for X = re + i*im of the base form
    X = diag(u)(I - iC)diag(w), u and w unit vectors and C the conference
    matrix of ctx = GF(p^2), p an odd prime with 1 + p^2 the order, and
    skew whether X + X* = 2I; None when X is not of that form.  S
    (``skew_regular_qhm``), its twists and their rows negated are of it.

    The phase test.  Write a unit as i^e, e as in ``_phase``.  C has a
    zero diagonal and C_jk = +-1 off it, and -i = i^-1, so
    (I - iC)_jk = i^(-C_jk) for every j, k, and
    X_jk = u_j (I - iC)_jk w_k = i^(e(u_j) + e(w_k) - C_jk).  So X is of
    the form exactly when every cell of X is a unit and
    (e(X_jk) - e(u_j) - e(w_k) + C_jk) & 3 = 0 for all j, k.  This needs
    C_jk != 0 off the diagonal: a zero there would accept a 1 = i^0
    where the form has a 0.  So a character table with chi(0) != 0 or
    chi(x) = 0 for some x != 0 is refused.

    The form fixes u and w up to a common unit, so set w_0 = 1; then
    X_00 = u_0, X_j0 = -i u_j and X_0k = -i u_0 w_k for j, k > 0, so
    e(u_0) = e(X_00), e(u_j) = e(X_j0) + 1 and
    e(w_k) = e(X_0k) - e(X_00) + 1.  Row 0 and column 0 then pass the
    test by construction.  Rows 1.. are tested in panels of whole
    cosets, each against its rows of the core view ``ctx.core``.

    The context is the process's one context of p (``field.context``),
    so its table, core view and evenness are built once per prime; only
    the phase test runs on every matrix.

    X + X* = 2I exactly when w = u*, i.e. e(u_k) + e(w_k) = 0 mod 4,
    and C = C^T: C has a zero diagonal, so X + X* has the diagonal
    2 Re(u_k w_k), and for w = u* the cell (j, k) off it is
    -i u_j C_jk u*_k + conj(-i u_k C_kj u*_j) = i u_j u*_k (C_kj - C_jk),
    with u_j u*_k a unit.
    """
    n = re.shape[0]
    p = math.isqrt(n - 1)
    if im is None or p * p + 1 != n or p == 2 or not is_prime(p):
        return None
    ctx = context(p)
    table = ctx.char_table
    # The planes are disjoint, so a cell is a unit exactly when one is nonzero.
    if (table[0] or not table[1:].all()
            or not ((re[0] | im[0]).all() and (re[:, 0] | im[:, 0]).all())):
        return None
    eu = _phase(re[:, 0], im[:, 0]) + 1
    eu[0] -= 1
    ew = _phase(re[0], im[0]) - eu[0] + 1
    ew[0] = 0
    core = ctx.core
    panels = list(_row_panels(p, p * n, _FORM_PANEL))  # slices of cosets
    buf = np.empty((p * panels[0].stop, n - 1), dtype=np.int8)
    for b in panels:
        rows = slice(1 + p * b.start, 1 + p * b.stop)
        xr, xi = re[rows], im[rows]
        if np.count_nonzero(xr) + np.count_nonzero(xi) != xr.size:
            return None
        # The int8 sums wrap modulo 256, a multiple of 4.
        e = _phase(xr[:, 1:], xi[:, 1:], buf[: len(xr)])
        e -= ew[1:]
        e -= eu[rows, None]
        cosets = e.reshape(-1, p, p * p)
        cosets += core[b]
        e &= 3
        if e.any():
            return None
    return ctx, not ((eu + ew) & 3).any() and ctx.even


def skew_core(h: QMatrix) -> QMatrix:
    """Extract I + Q of order n-1 from a skew-type quaternary Hadamard matrix.

    Normalizes by the diagonal phase similarity N = D H D* for
    D = diag(first row), which sends the first row to all ones and the
    first column below the corner to all minus ones: H + H* = 2I gives
    h_00 = 1 and h_j0 = -conj(h_0j), so for a first row of units
    N_0k = |h_0k|^2 = 1 and N_j0 = -|h_0j|^2 = -1.  A zero in the first
    row is the one input that cannot be normalized.

    A skew X of the base form (``base_form``) has w = u* and
    u_0 = X_00 = 1, so the first row is d_k = -i w_k for k > 0, and
    d_j X_jk d*_k = w_j u_j (I - iC)_jk w_k w*_k = (I - iC)_jk for
    j, k > 0: its core is I - iK, read from the view ``ctx.core``.
    """
    form = base_form(h.re, h.im)
    if form and form[1]:
        ctx = form[0]
        im = np.negative(ctx.core, order="C").reshape(ctx.q, ctx.q)
        # base_form refused a table unless K is 0 on the diagonal, +-1 off it.
        return QMatrix._frozen(np.eye(ctx.q, dtype=np.int8), im)
    if not check_skew_type(h):
        raise MatrixError("input is not skew-type")
    d = h.re[0] + 1j * h.im[0]
    if (d == 0).any():
        raise MatrixError("input is not normalizable to the bordered form")
    normalized = diag_similarity(h, d)
    # Slices of a valid matrix are valid.
    return QMatrix._frozen(normalized.re[1:, 1:], normalized.im[1:, 1:])


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
    # Copies, negations and transposes of H's valid planes, each in one quarter.
    return QMatrix._frozen(re, im)
