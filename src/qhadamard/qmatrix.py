"""Dense exact matrices over {0, 1, i, -1, -i} and their real counterparts.

Entries and all derived quantities are small Gaussian integers.  Gram
matrices are formed from the real and imaginary parts with real float
BLAS products in a float type chosen from an explicit bound on the
order and the entry size (``_exact_dtype``), under which every partial
sum is an exactly representable integer.
"""

from __future__ import annotations

import numpy as np

PHASES = (1 + 0j, 1j, -1 + 0j, -1j)
QALPHABET = (0j,) + PHASES


class MatrixError(ValueError):
    """Shape or alphabet violation."""


def _is_alphabet(arr: np.ndarray, alphabet=QALPHABET) -> bool:
    ok = np.zeros(arr.shape, dtype=bool)
    for v in alphabet:
        ok |= arr == v
    return bool(ok.all())


class _ExactMatrix:
    """Immutable square matrix over a small alphabet of Gaussian integers.

    The constructor is the only validating path: it checks shape and
    alphabet and keeps a read-only copy.  Results that the package builds
    from already validated operands go through ``_trusted`` instead.
    Equality requires the same leaf type.
    """

    __slots__ = ("data",)
    _dtype: type
    _alphabet: tuple
    _alphabet_error: str

    def __init__(self, data):
        arr = np.asarray(data, dtype=self._dtype)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise MatrixError(f"expected a square matrix, got shape {arr.shape}")
        if not _is_alphabet(arr, self._alphabet):
            raise MatrixError(self._alphabet_error)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @classmethod
    def _trusted(cls, arr: np.ndarray):
        """Wrap a freshly built square array of the class's dtype whose
        entries are known to lie in the alphabet: read-only, unchecked,
        not copied."""
        arr.setflags(write=False)
        m = object.__new__(cls)
        object.__setattr__(m, "data", arr)
        return m

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and np.array_equal(self.data, other.data)

    def __hash__(self):
        # + 0 turns -0.0, which conj() writes, into the 0.0 it equals.
        return hash((self.n, (self.data + 0).tobytes()))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"


class QMatrix(_ExactMatrix):
    """Immutable square matrix with entries in {0, 1, i, -1, -i}."""

    __slots__ = ()
    _dtype = np.complex128
    _alphabet = QALPHABET
    _alphabet_error = "entries must be 0 or fourth roots of unity"

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls._trusted(np.eye(n, dtype=np.complex128))

    def scale(self, phase: complex) -> "QMatrix":
        if phase not in PHASES:
            raise MatrixError(f"{phase!r} is not a phase")
        return QMatrix._trusted(self.data * phase)


class SignMatrix(_ExactMatrix):
    """Immutable square matrix with entries in {-1, 0, +1}."""

    __slots__ = ()
    _dtype = np.int64
    _alphabet = (-1, 0, 1)
    _alphabet_error = "entries must be in {-1, 0, +1}"


def conj_transpose(m: QMatrix) -> QMatrix:
    return QMatrix._trusted(m.data.conj().T)


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


def _gram_complex(re: np.ndarray, im: np.ndarray, max_abs_sq: int) -> np.ndarray:
    """X X* as a complex128 array; see ``_gram_parts``."""
    g_re, g_im = _gram_parts(re, im, max_abs_sq)
    out = g_re.astype(np.complex128)
    out.imag = g_im
    return out


def gram_is_scalar(m: QMatrix, c: complex) -> bool:
    return _gram_is_scalar(m.data.real, m.data.imag, 1, c)


def row_sums(m: QMatrix | SignMatrix) -> list[complex]:
    return [complex(s) for s in m.data.sum(axis=1)]


def check_phase_vector(v) -> np.ndarray:
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1:
        raise MatrixError("phase vector must be one-dimensional")
    if not _is_alphabet(arr, PHASES):
        raise MatrixError("vector entries must be fourth roots of unity")
    return arr


def diag_similarity(m: QMatrix, v) -> QMatrix:
    """D M D* for D = diag(v), v a vector of phases."""
    arr = check_phase_vector(v)
    if arr.shape[0] != m.n:
        raise MatrixError(f"vector length {arr.shape[0]} != order {m.n}")
    return QMatrix._trusted(arr[:, None] * m.data * arr.conj()[None, :])


def block2(m11: QMatrix, m12: QMatrix, m21: QMatrix, m22: QMatrix) -> QMatrix:
    if not (m11.n == m12.n == m21.n == m22.n):
        raise MatrixError("block orders differ")
    return QMatrix._trusted(np.block([[m11.data, m12.data], [m21.data, m22.data]]))


def realify(m: QMatrix) -> SignMatrix:
    """Order-doubling substitution 1 -> [[1,1],[1,-1]], i -> [[-1,1],[1,1]].

    A cell a + bi becomes [[a-b, a+b], [a+b, b-a]], written as four
    strided quarters of the result.
    """
    a, b = m.data.real, m.data.imag
    out = np.empty((2 * m.n, 2 * m.n), dtype=np.int64)
    np.subtract(a, b, out=out[0::2, 0::2], casting="unsafe")
    np.add(a, b, out=out[0::2, 1::2], casting="unsafe")
    out[1::2, 0::2] = out[0::2, 1::2]
    np.negative(out[0::2, 0::2], out=out[1::2, 1::2])
    return SignMatrix._trusted(out)


def sign_gram_is_scalar(w: SignMatrix, c: int) -> bool:
    return _gram_is_scalar(w.data, None, 1, c)
