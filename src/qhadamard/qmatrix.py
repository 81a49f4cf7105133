"""Dense exact matrices over {0, 1, i, -1, -i} and their real counterparts.

A matrix X = re + i*im is held as two int8 planes with entries in
{-1, 0, 1} and disjoint supports; a real (sign) matrix has no ``im``
plane.  Gram matrices are formed from the planes with real float BLAS
products in a float type chosen from an explicit bound on the order and
the entry size (``_exact_dtype``), under which every partial sum is an
exactly representable integer.

``gram_is_scalar`` and ``sign_gram_is_scalar`` form no Gram matrix for
the families the constructions produce: the base form
diag(u)(I - iC)diag(w) (``builder.base_form_gram``), the doubled blocks
[[A, iA], [iB, B]] (``_doubled_gram``) and realified matrices up to row
signs (``_realified_gram``) are each decided in O(n^2) by a lemma that
holds exactly when the Gram identity does.  Any other matrix goes to
the dense certificate, ``_gram_is_scalar``.
"""

from __future__ import annotations

import numpy as np

PHASES = (1 + 0j, 1j, -1 + 0j, -1j)


class MatrixError(ValueError):
    """Shape or alphabet violation."""


def _row_panels(rows: int, cols: int):
    """Row slices of about 2^16 cells each, covering 0..rows."""
    step = max(1, (1 << 16) // max(cols, 1))
    return (slice(r0, r0 + step) for r0 in range(0, rows, step))


def _plane(x) -> np.ndarray:
    """``x`` as a read-only int8 array with entries in {-1, 0, 1}.  An
    int8 array is frozen as it is, not copied."""
    arr = np.asarray(x)
    if arr.dtype.kind not in "biuf":
        raise MatrixError(f"a plane must be real, got dtype {arr.dtype}")
    # Reductions rather than np.abs, which leaves the int8 -128 negative.
    if arr.size and (arr.min() < -1 or arr.max() > 1):
        raise MatrixError("entries must be in {-1, 0, +1}")
    if arr.dtype != np.int8:
        cast = arr.astype(np.int8)
        if not np.array_equal(cast, arr):
            raise MatrixError("entries must be in {-1, 0, +1}")
        arr = cast
    arr.setflags(write=False)
    return arr


class QMatrix:
    """Immutable square matrix X = re + i*im with entries in {0, 1, i, -1, -i}.

    ``re`` and ``im`` are read-only int8 planes in {-1, 0, 1} with
    disjoint supports; ``im`` None marks a real matrix, written as RHM.
    The constructor is the only one, and it always validates.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im=None):
        re = _plane(re)
        if re.ndim != 2 or re.shape[0] != re.shape[1]:
            raise MatrixError(f"expected a square matrix, got shape {re.shape}")
        if im is not None:
            im = _plane(im)
            if im.shape != re.shape:
                raise MatrixError(f"plane shapes differ: {re.shape} and {im.shape}")
            # A nonzero int8 in {-1, 1} has its lowest bit set.
            if any((re[rows] & im[rows]).any() for rows in _row_panels(*re.shape)):
                raise MatrixError("entries must be 0 or fourth roots of unity")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    @property
    def n(self) -> int:
        return self.re.shape[0]

    @property
    def data(self) -> np.ndarray:
        """The entries as one read-only array, for callers outside the
        package: the ``re`` plane of a real matrix, else a new complex128
        array."""
        if self.im is None:
            return self.re
        out = self.re + 1j * self.im
        out.setflags(write=False)
        return out

    def __repr__(self):
        return f"QMatrix(n={self.n}{', real' if self.im is None else ''})"


def _mul(re, im, ur, ui):
    """The planes of (re + i*im)(ur + i*ui), broadcast, for factors that
    are each a unit or zero: of the two terms of each product plane at
    most one is nonzero, so the result is a unit or zero too."""
    out_re = re * ur
    out_re -= im * ui
    out_im = re * ui
    out_im += im * ur
    return out_re, out_im


def _exact_dtype(n: int, max_abs_sq: int) -> type:
    """Float type in which the Gram products of ``_gram_parts`` are exact
    for an order-n matrix X = A + iB of integers with |x|^2 <= max_abs_sq.

    Every entry of A A^T, B B^T, A A^T +- B B^T, B A^T and B A^T +- A B^T,
    and every partial sum BLAS forms towards one in whatever order, is an
    integer sum over some k of terms bounded by |a_ik a_jk| + |b_ik b_jk|
    or |b_ik a_jk| + |a_ik b_jk|.  By Cauchy-Schwarz on the vectors
    (a, b) each such bound is at most |x_ik| |x_jk| <= max|x|^2, so every
    value is an integer of absolute value at most n * max|x|^2.  A float
    with a p-bit significand holds all integers below 2^p exactly, so no
    operation rounds while n * max|x|^2 < 2^24 (float32) or < 2^53
    (float64).  Beyond that no float type is exact.
    """
    bound = n * max_abs_sq
    if bound < 2**24:
        return np.float32
    if bound < 2**53:
        return np.float64
    raise MatrixError(
        f"order {n} with |entry|^2 up to {max_abs_sq} exceeds exact float arithmetic"
    )


def _gram_parts(re: np.ndarray, im: np.ndarray | None, max_abs_sq: int,
                conjugate: bool = True):
    """Yield the real part, then the imaginary part of X X* for
    X = re + i*im (X X^T when ``conjugate`` is false), exactly.

    ``re`` and ``im`` hold integers with re^2 + im^2 <= max_abs_sq; ``im``
    None means X is real, and then the imaginary part yielded is None.
    With M = B A^T, X X* = A A^T + B B^T + i(M - M^T) and
    X X^T = A A^T - B B^T + i(M + M^T).  The imaginary part is only
    computed when the caller asks for it.
    """
    dtype = _exact_dtype(re.shape[0], max_abs_sq)
    a = np.asarray(re, dtype=dtype)
    g = a @ a.T
    if im is None:
        yield g
        yield None
        return
    b = np.asarray(im, dtype=dtype)
    if conjugate:
        g += b @ b.T
    else:
        g -= b @ b.T
    yield g
    del g
    m = b @ a.T
    yield m - m.T if conjugate else m + m.T


# The dense certificate forms the upper triangle of the Gram matrix in
# row panels, so that it holds one panel beside the operands and stops
# at the first panel that fails.  A Hadamard matrix with one cell
# changed fails in every pair of rows that cell touches, the first panel
# among them.  Orders up to one full panel are one product.
_PANEL_FIRST = 8
_PANEL_CAP = 128


def _panels(n: int):
    """Row ranges [r0, r1) covering 0..n: one range when n fits in a
    full panel, else ranges growing from ``_PANEL_FIRST`` rows to
    ``_PANEL_CAP``."""
    if n <= _PANEL_CAP:
        yield 0, n
        return
    r0, size = 0, _PANEL_FIRST
    while r0 < n:
        yield r0, min(n, r0 + size)
        r0 += size
        size = min(2 * size, _PANEL_CAP)


def _panel_is_scalar(part: np.ndarray, target: float) -> bool:
    """Whether a Gram panel, whose rows meet the diagonal at columns
    0, 1, ..., is ``target`` there and zero elsewhere.  Zeroes the
    diagonal of ``part``."""
    # float64 holds the exact diagonal; comparing in the part's own
    # float32 would round the target.
    if not (part.diagonal().astype(np.float64) == target).all():
        return False
    np.fill_diagonal(part, 0)
    return not part.any()


def _gram_is_scalar(re: np.ndarray, im: np.ndarray | None, max_abs_sq: int,
                    c: complex, conjugate: bool = True) -> bool:
    """Exact certificate X X* = cI (X X^T = cI unless ``conjugate``) by
    the dense products of ``_gram_parts``, row panel by row panel.

    The Gram matrix is Hermitian (X X^T symmetric), so its upper
    triangle decides.  A panel of rows R against the columns C from R's
    first row on is A_R A_C^T +- B_R B_C^T in the real part and
    B_R A_C^T -+ A_R B_C^T in the imaginary part, the rows R, columns C
    of AA^T +- BB^T and of M -+ M^T for M = BA^T.  The real part of a
    panel is checked before its imaginary part is formed.
    """
    c = complex(c)
    if im is None and c.imag:
        return False
    dtype = _exact_dtype(re.shape[0], max_abs_sq)
    a = np.asarray(re, dtype=dtype)
    b = None if im is None else np.asarray(im, dtype=dtype)
    real_sign, imag_sign = (np.add, np.subtract) if conjugate else (np.subtract, np.add)
    for r0, r1 in _panels(a.shape[0]):
        rows, cols = slice(r0, r1), slice(r0, None)
        part = a[rows] @ a[cols].T
        if b is not None:
            real_sign(part, b[rows] @ b[cols].T, out=part)
        if not _panel_is_scalar(part, c.real):
            return False
        if b is None:
            continue
        del part
        part = b[rows] @ a[cols].T
        imag_sign(part, a[rows] @ b[cols].T, out=part)
        if not _panel_is_scalar(part, c.imag):
            return False
    return True


def _certify(re: np.ndarray, im: np.ndarray | None, c: complex) -> bool:
    """X X* = cI for X = re + i*im with unit or zero cells.

    The first lemma whose form X has decides, each exactly when the
    dense certificate would: the base form (``builder.base_form_gram``),
    then the doubled blocks (``_doubled_gram``).  Any other X goes to
    the dense certificate ``_gram_is_scalar``.
    """
    from .builder import base_form_gram

    for lemma in (base_form_gram, _doubled_gram):
        verdict = lemma(re, im, c)
        if verdict is not None:
            return verdict
    return _gram_is_scalar(re, im, 1, c)


def gram_is_scalar(m: QMatrix, c: complex) -> bool:
    return _certify(m.re, m.im, c)


def diag_similarity(m: QMatrix, v) -> QMatrix:
    """D M D* for D = diag(v), v a vector of phases; M quaternary."""
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 1:
        raise MatrixError("phase vector must be one-dimensional")
    if not np.isin(v, PHASES).all():
        raise MatrixError("vector entries must be fourth roots of unity")
    if v.shape[0] != m.n:
        raise MatrixError(f"vector length {v.shape[0]} != order {m.n}")
    vr, vi = v.real.astype(np.int8), v.imag.astype(np.int8)
    re, im = _mul(m.re, m.im, vr[:, None], vi[:, None])
    return QMatrix(*_mul(re, im, vr, -vi))


def doubled_blocks(re: np.ndarray, im: np.ndarray | None):
    """The planes (A.re, A.im) and (B.re, B.im) of X = [[A, iA], [iB, B]],
    as views, and whether B = A*; None when X is not of that form."""
    n = re.shape[0]
    if im is None or n % 2:
        return None
    h = n // 2
    a_re, a_im, b_re, b_im = re[:h, :h], im[:h, :h], re[h:, h:], im[h:, h:]
    # i(x + iy) = -y + ix.
    if not (np.array_equal(im[:h, h:], a_re) and np.array_equal(re[:h, h:], -a_im)
            and np.array_equal(im[h:, :h], b_re) and np.array_equal(re[h:, :h], -b_im)):
        return None
    adjoint = np.array_equal(b_re, a_re.T) and np.array_equal(b_im, -a_im.T)
    return (a_re, a_im), (b_re, b_im), adjoint


def _doubled_gram(re: np.ndarray, im: np.ndarray | None, c: complex) -> bool | None:
    """X X* = cI for X = [[A, iA], [iB, B]]; None when X is not of that
    form.

    X X* = [[AA* + AA*, -iAB* + iAB*], [iBA* - iBA*, BB* + BB*]]
    = diag(2AA*, 2BB*), so X X* = cI exactly when AA* = BB* = (c/2)I.
    B is not certified when it is A*: AA* = kI makes A*A = kI too (A is
    invertible for k != 0, and zero for k = 0).
    """
    blocks = doubled_blocks(re, im)
    if blocks is None:
        return None
    (a_re, a_im), (b_re, b_im), adjoint = blocks
    c = complex(c) / 2
    return _certify(a_re, a_im, c) and (adjoint or _certify(b_re, b_im, c))


def realify(m: QMatrix) -> QMatrix:
    """Order-doubling substitution 1 -> [[1,1],[1,-1]], i -> [[-1,1],[1,1]]
    of a quaternary matrix, giving a real one.

    A cell a + bi becomes [[a-b, a+b], [a+b, b-a]], written as four
    strided quarters of the result.
    """
    a, b = m.re, m.im
    out = np.empty((2 * m.n, 2 * m.n), dtype=np.int8)
    np.subtract(a, b, out=out[0::2, 0::2])
    np.add(a, b, out=out[0::2, 1::2])
    out[1::2, 0::2] = out[0::2, 1::2]
    np.negative(out[0::2, 0::2], out=out[1::2, 1::2])
    return QMatrix(out)


def _realified_gram(w: np.ndarray, c: complex) -> bool | None:
    """W W^T = cI for a real W that is ``realify(X)`` up to the sign of
    each row, by X X* = (c/2)I; None when W is not of that form.

    ``realify`` writes a cell x = a + bi as [[e, f], [f, -e]] with
    e = a - b and f = a + b, so a row pair (u, v) of W has
    v[0::2] = tau*u[1::2] and v[1::2] = -tau*u[0::2], tau = +1, and
    x = ((e + f) + (f - e)i)/2; negating a row makes tau = -1 or negates
    x.  Then W = E realify(X) for a diagonal E of signs, and
    W W^T = E realify(X) realify(X)^T E.  Writing realify(X) as
    A (x) K1 + B (x) K2 with K1 = [[1, 1], [1, -1]], K2 = [[-1, 1], [1, 1]],
    K1K1^T = K2K2^T = 2I and K1K2^T = -K2K1^T = [[0, 2], [-2, 0]] gives
    realify(X) realify(X)^T = 2(AA^T + BB^T) (x) I
    + (AB^T - BA^T) (x) [[0, 2], [-2, 0]],
    which is cI exactly when X X* = AA^T + BB^T + i(BA^T - AB^T) is
    (c/2)I.  Every cell of u is +-1 and tau != 0, so x is a unit; a W
    with zero cells is not of the form.
    """
    n = w.shape[0]
    if n % 2:
        return None
    u, v = w[0::2], w[1::2]
    e, f = u[:, 0::2], u[:, 1::2]
    tau = v[:, :1] * f[:, :1]
    if not (u.all() and tau.all() and np.array_equal(v[:, 0::2], tau * f)
            and np.array_equal(v[:, 1::2], -tau * e)):
        return None
    return _certify((e + f) // 2, (f - e) // 2, complex(c) / 2)


def sign_gram_is_scalar(w: QMatrix, c: int) -> bool:
    verdict = _realified_gram(w.re, c)
    return _gram_is_scalar(w.re, None, 1, c) if verdict is None else verdict
