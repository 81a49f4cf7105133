"""Dense exact matrices over {0, 1, i, -1, -i} and their real counterparts.

A matrix X = re + i*im is held as two int8 planes with entries in
{-1, 0, 1} and disjoint supports; a real (sign) matrix has no ``im``
plane.  Gram matrices are formed from the planes with real float BLAS
products in a float type chosen from an explicit bound on the order and
the entry size (``_exact_dtype``), under which every partial sum is an
exactly representable integer.
"""

from __future__ import annotations

import numpy as np

PHASES = (1 + 0j, 1j, -1 + 0j, -1j)


class MatrixError(ValueError):
    """Shape or alphabet violation."""


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
            if (re & im).any():
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

    def scale(self, phase: complex) -> "QMatrix":
        if phase not in PHASES:
            raise MatrixError(f"{phase!r} is not a phase")
        return QMatrix(*_mul(self.re, self.im, int(phase.real), int(phase.imag)))


def _mul(re, im, ur, ui):
    """The planes of (re + i*im)(ur + i*ui), broadcast, for factors that
    are each a unit or zero: of the two terms of each product plane at
    most one is nonzero, so the result is a unit or zero too."""
    out_re = re * ur
    out_re -= im * ui
    out_im = re * ui
    out_im += im * ur
    return out_re, out_im


def conj_transpose(m: QMatrix) -> QMatrix:
    return QMatrix(m.re.T, None if m.im is None else -m.im.T)


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


def _gram_is_scalar(re: np.ndarray, im: np.ndarray | None, max_abs_sq: int,
                    c: complex, conjugate: bool = True) -> bool:
    """Exact certificate X X* = cI (X X^T = cI unless ``conjugate``); see
    ``_gram_parts``.  Stops before the imaginary part when the real part
    already fails."""
    c = complex(c)
    for part, target in zip(_gram_parts(re, im, max_abs_sq, conjugate), (c.real, c.imag)):
        if part is None:
            if target != 0:
                return False
            continue
        # float64 holds the exact diagonal; comparing in the part's own
        # float32 would round the target.
        if not (part.diagonal().astype(np.float64) == target).all():
            return False
        np.fill_diagonal(part, 0)
        if part.any():
            return False
    return True


def gram_is_scalar(m: QMatrix, c: complex) -> bool:
    return _gram_is_scalar(m.re, m.im, 1, c)


def row_sums(m: QMatrix) -> list[complex]:
    sums = m.re.sum(axis=1)
    if m.im is not None:
        sums = sums + 1j * m.im.sum(axis=1)
    return [complex(s) for s in sums]


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


def block2(m11: QMatrix, m12: QMatrix, m21: QMatrix, m22: QMatrix) -> QMatrix:
    """[[M11, M12], [M21, M22]] of quaternary blocks of one order."""
    if not (m11.n == m12.n == m21.n == m22.n):
        raise MatrixError("block orders differ")
    rows = ((m11, m12), (m21, m22))
    return QMatrix(np.block([[m.re for m in row] for row in rows]),
                   np.block([[m.im for m in row] for row in rows]))


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


def sign_gram_is_scalar(w: QMatrix, c: int) -> bool:
    return _gram_is_scalar(w.re, None, 1, c)
