"""Dense exact matrices over {0, 1, i, -1, -i} and their real counterparts.

A matrix X = re + i*im is held as two int8 planes with entries in
{-1, 0, 1} and disjoint supports; a real (sign) matrix has no ``im``
plane.  Every O(n^2) pass walks the rows by ``_row_panels``.  The dense
Gram certificate ``_gram_is_scalar`` forms X X* in panels of 128 rows
with real float BLAS products, in a float type chosen from a bound on
the order (``_exact_dtype``) under which every partial sum is an exact
integer.  Above one panel it first screens X ybar = c1 for the column
sums y (``_ones_screen``), exact with partial sums at most n^2, which one
changed cell of a Hadamard matrix fails at the screen's first panel.
The skew check ``check_skew_type`` walks the same panels.

``gram_is_scalar(m, n)`` and ``sign_gram_is_scalar(w, n)`` for the order
n take their verdict from ``verify._recognise``, which decides the
families the constructions produce by their form, with no Gram product,
and sends any other matrix to the dense certificate.  A realified
matrix up to row signs (``_realified_planes``) is recognised by the
quaternary matrix it realifies.  For any other target c the dense
certificate decides.
"""

from __future__ import annotations

import numpy as np

PHASES = (1 + 0j, 1j, -1 + 0j, -1j)


class MatrixError(ValueError):
    """Shape or alphabet violation."""


def _row_panels(rows: int, cols: int, cells: int = 1 << 16):
    """The row walk of every O(n^2) pass: contiguous slices covering
    0..rows exactly, of max(1, cells // cols) rows each but the last."""
    step = max(1, cells // max(cols, 1))
    return (slice(r0, min(r0 + step, rows)) for r0 in range(0, rows, step))


def _sums(plane: np.ndarray, axis: int) -> np.ndarray:
    """Sums of an int8 plane along ``axis``: each partial sum of n cells
    is at most n, exact in int16 below order 2^15 and in int32 above."""
    return plane.sum(axis=axis, dtype=np.int16 if plane.shape[axis] < 2**15 else np.int32)


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
            if any((re[rows] & im[rows]).any() for rows in _row_panels(*re.shape, 1 << 18)):
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


def _exact_dtype(n: int) -> type:
    """Float type in which the Gram products of ``_gram_is_scalar`` are
    exact for an order-n matrix X = A + iB with |x| <= 1.

    Every entry of A A^T + B B^T and B A^T - A B^T, and every partial sum
    BLAS forms towards one in whatever order, is an integer sum over some
    k of terms bounded by |a_ik a_jk| + |b_ik b_jk| or
    |b_ik a_jk| + |a_ik b_jk|.  By Cauchy-Schwarz on the vectors (a, b)
    each such bound is at most |x_ik| |x_jk| <= 1, so every value is an
    integer of absolute value at most n.  A float with a p-bit
    significand holds all integers below 2^p exactly, so no operation
    rounds while n < 2^24 (float32) or n < 2^53 (float64).  Beyond that
    no float type is exact.
    """
    if n < 2**24:
        return np.float32
    if n < 2**53:
        return np.float64
    raise MatrixError(f"order {n} exceeds exact float arithmetic")


# The dense certificate forms the upper triangle of the Gram matrix in
# panels of this many rows, so that it holds one panel beside the
# operands; rejecting early is the screen's job.  Orders up to one panel
# are one product.
_PANEL_CAP = 128


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


def _ones_screen(re: np.ndarray, im: np.ndarray | None, c: complex) -> bool:
    """Whether X ybar = c1, row panel by row panel, for X = re + i*im
    with re^2 + im^2 <= 1 and y = u + iv its column sums.  X* 1 = ybar,
    so X X* = cI gives X ybar = c1 (Freivalds' check with the all-ones
    vector); False refutes X X* = cI.  A Hadamard matrix of units with
    cell (r, c) changed by d misses c by x_ic conj(d) in every row i != r.

    X ybar = Au + Bv + i(Bu - Av).  Every |y_k| <= n, so each term of
    these, by Cauchy-Schwarz, is at most |x_ik| |y_k| <= n, and every
    partial sum BLAS forms is an integer at most n^2 in absolute value:
    exact in ``_exact_dtype(n * n)``, float32 while n < 4096.
    """
    dtype = _exact_dtype(re.size)  # re.size = n * n
    planes = (re,) if im is None else (re, im)
    y = np.stack([_sums(plane, 0) for plane in planes], axis=1).astype(dtype)
    target = np.array([c.real, c.imag][:len(planes)])
    for rows in _row_panels(*re.shape):
        xy = ay = re[rows].astype(dtype) @ y
        if im is not None:
            by = im[rows].astype(dtype) @ y
            xy = np.stack([ay[:, 0] + by[:, 1], by[:, 0] - ay[:, 1]], axis=1)
        if not (xy == target).all():  # float64 target: no rounding
            return False
    return True


def _gram_is_scalar(re: np.ndarray, im: np.ndarray | None, c: complex) -> bool:
    """Exact dense certificate X X* = cI for X = re + i*im with
    re^2 + im^2 <= 1 (``im`` None for a real X), row panel by row panel.

    With M = B A^T, X X* = A A^T + B B^T + i(M - M^T) is Hermitian, so
    its upper triangle decides.  A panel of rows R against the columns C
    from R's first row on is A_R A_C^T + B_R B_C^T in the real part and
    B_R A_C^T - A_R B_C^T in the imaginary part.  The real part of a
    panel is checked before its imaginary part is formed.
    """
    c = complex(c)
    if im is None and c.imag:
        return False
    if re.shape[0] > _PANEL_CAP and not _ones_screen(re, im, c):
        return False
    dtype = _exact_dtype(re.shape[0])
    a = np.asarray(re, dtype=dtype)
    b = None if im is None else np.asarray(im, dtype=dtype)
    for rows in _row_panels(*a.shape, _PANEL_CAP * a.shape[1]):
        cols = slice(rows.start, None)
        part = a[rows] @ a[cols].T
        if b is not None:
            part += b[rows] @ b[cols].T
        if not _panel_is_scalar(part, c.real):
            return False
        if b is None:
            continue
        del part
        part = b[rows] @ a[cols].T
        part -= a[rows] @ b[cols].T
        if not _panel_is_scalar(part, c.imag):
            return False
    return True


def gram_is_scalar(m: QMatrix, c: complex) -> bool:
    """M M* = cI, exactly."""
    if c != m.n:
        return _gram_is_scalar(m.re, m.im, c)
    from .verify import _recognise

    return _recognise(m.re, m.im)[0]


def check_skew_type(m: QMatrix) -> bool:
    """M = I + Q with Q* = -Q, i.e. M + M* = 2I: the real plane plus its
    transpose is 2I and the imaginary plane is symmetric.

    Both conditions are symmetric, so a panel of rows r0:r1 is checked
    against the columns r0: only, in the dense Gram's row panels, and
    the check stops at the first panel that fails.
    """
    re, im = m.re, m.im
    for rows in _row_panels(m.n, m.n, _PANEL_CAP * m.n):
        cols = slice(rows.start, None)
        s = re[rows, cols] + re[cols, rows].T
        # The panel's row i meets the diagonal at its column i.
        s.flat[:: s.shape[1] + 1] -= 2
        if s.any() or (im is not None and not np.array_equal(im[rows, cols], im[cols, rows].T)):
            return False
    return True


def diag_similarity(m: QMatrix, v) -> QMatrix:
    """D M D* for D = diag(v), v a vector of phases; M quaternary.  Row
    j of the result is v_j times row j of M times v*, written into the
    output planes one row panel at a time."""
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 1:
        raise MatrixError("phase vector must be one-dimensional")
    if not np.isin(v, PHASES).all():
        raise MatrixError("vector entries must be fourth roots of unity")
    if v.shape[0] != m.n:
        raise MatrixError(f"vector length {v.shape[0]} != order {m.n}")
    vr, vi = v.real.astype(np.int8), v.imag.astype(np.int8)
    out = np.empty((2, m.n, m.n), dtype=np.int8)
    for rows in _row_panels(m.n, m.n):
        re, im = _mul(m.re[rows], m.im[rows], vr[rows, None], vi[rows, None])
        out[0, rows], out[1, rows] = _mul(re, im, vr, -vi)
    return QMatrix(*out)


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


def _realified_planes(w: np.ndarray):
    """The planes of X for a real W that is ``realify(X)`` up to the sign
    of each row; None when W is not of that form.

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
    return (e + f) // 2, (f - e) // 2


def sign_gram_is_scalar(w: QMatrix, c: int) -> bool:
    """W W^T = cI, exactly, for a real W."""
    planes = _realified_planes(w.re) if c == w.n else None
    if planes is None:
        return _gram_is_scalar(w.re, None, c)
    from .verify import _recognise

    return _recognise(*planes)[0]
