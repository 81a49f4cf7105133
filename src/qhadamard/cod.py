"""Quaternary orthogonal designs in two variables and their recursion.

A design is stored as a pair of coefficient matrices with disjoint
supports: ``acoef`` carries the phase multiplying the first variable in
each cell, ``bcoef`` the phase multiplying the second.  Evaluation at
integers is then just ``a * acoef + b * bcoef``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import BudgetError, FieldCtx, order_within_budget
from .qmatrix import (
    MatrixError,
    QMatrix,
    _check_integral,
    _gram_complex,
    _gram_is_scalar,
    _is_alphabet,
)
from .builder import skew_core, skew_regular_qhm

EVAL_POINTS = ((1, 0), (0, 1), (1, 1))


@dataclass(frozen=True)
class CODMatrix:
    """Two-variable quaternary orthogonal design with constant row type."""

    acoef: np.ndarray
    bcoef: np.ndarray

    def __post_init__(self):
        a, b = self.acoef, self.bcoef
        if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise MatrixError("coefficient matrices must be square and equal-shape")
        if not (_is_alphabet(a) and _is_alphabet(b)):
            raise MatrixError("coefficients must be 0 or fourth roots of unity")
        if ((a != 0) & (b != 0)).any():
            raise MatrixError("each cell may carry at most one variable")

    @classmethod
    def _trusted(cls, acoef: np.ndarray, bcoef: np.ndarray) -> "CODMatrix":
        """Wrap freshly built coefficient arrays already known to form a
        design: read-only, unchecked, not copied."""
        d = object.__new__(cls)
        for name, arr in (("acoef", acoef), ("bcoef", bcoef)):
            arr.setflags(write=False)
            object.__setattr__(d, name, arr)
        return d

    @property
    def n(self) -> int:
        return self.acoef.shape[0]

    @property
    def stype(self) -> tuple[int, int]:
        """(s1, s2) variable multiplicities; requires them constant per row."""
        s1 = (self.acoef != 0).sum(axis=1)
        s2 = (self.bcoef != 0).sum(axis=1)
        if not (np.all(s1 == s1[0]) and np.all(s2 == s2[0])):
            raise MatrixError("row type is not constant")
        return int(s1[0]), int(s2[0])

    def evaluate(self, a: int, b: int) -> np.ndarray:
        """Substitute integers for the variables; exact Gaussian-integer matrix."""
        return _check_integral(a * self.acoef + b * self.bcoef)

    def evaluate_qmatrix(self, a: int, b: int) -> QMatrix:
        """Evaluation for a, b in {0, 1}, where the result stays quaternary."""
        return QMatrix(self.evaluate(a, b))


def _parts_at(d: CODMatrix, a: int, b: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Real and imaginary parts of the evaluation at (a, b), and the bound
    on |entry|^2: each cell carries at most one variable with a unit or
    zero coefficient, so it is at most max(a^2, b^2)."""
    re = a * d.acoef.real + b * d.bcoef.real
    im = a * d.acoef.imag + b * d.bcoef.imag
    return re, im, max(a * a, b * b)


def gram_at(d: CODMatrix, a: int, b: int) -> np.ndarray:
    return _gram_complex(*_parts_at(d, a, b))


def certify_gram(d: CODMatrix, conjugate: bool = True) -> bool:
    """Check X X* = (s1 a^2 + s2 b^2) I at (1, 0), (0, 1) and (1, 1).

    For X = aA + bB with real a, b,
    X X* = a^2 AA* + b^2 BB* + ab (AB* + BA*), a form with three matrix
    coefficients.  Its differences P, R, T from the claimed coefficients
    s1 I, s2 I and 0 are P at (1, 0), R at (0, 1) and P + R + T at (1, 1),
    so the form agrees with the claim at these three points exactly when
    P = R = T = 0, which certifies the symbolic identity.  With
    ``conjugate=False`` checks the plain-transpose variant X X^T the same
    way.
    """
    s1, s2 = d.stype
    for a, b in EVAL_POINTS:
        if not _gram_is_scalar(*_parts_at(d, a, b), s1 * a * a + s2 * b * b,
                               conjugate):
            return False
    return True


def cod_base(ctx: FieldCtx) -> CODMatrix:
    """a I + b Q from the skew-regular matrix I + Q: type (1, p^2)."""
    s = skew_regular_qhm(ctx)
    return CODMatrix._trusted(np.eye(s.n, dtype=np.complex128), s.data - np.eye(s.n))


def cod_recurse(ctx: FieldCtx, k: int) -> CODMatrix:
    """k substitution steps: order (1+p^2) p^(2k), type (p^(2k), p^(2k+2)).

    Each step sends an a-cell with phase e to the p^2 x p^2 block e*b*J
    and a b-cell with phase e to e*(a I + b Q), Q the skew-core minus
    its identity.  In coefficient form that is a pair of Kronecker
    products per step.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    order = (1 + ctx.q) * ctx.q**k
    if not order_within_budget(order):
        raise BudgetError(f"order {order} exceeds the memory budget")
    d = cod_base(ctx)
    if k == 0:
        return d
    core = skew_core(skew_regular_qhm(ctx))
    q_core = core.data - np.eye(core.n)
    eye = np.eye(ctx.q, dtype=np.complex128)
    ones = np.ones((ctx.q, ctx.q), dtype=np.complex128)
    for _ in range(k):
        acoef = np.kron(d.bcoef, eye)
        bcoef = np.kron(d.acoef, ones) + np.kron(d.bcoef, q_core)
        d = CODMatrix._trusted(acoef, bcoef)
    return d


def expected_row_sum(p: int, level: int) -> complex:
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
