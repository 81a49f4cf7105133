"""Quaternary orthogonal designs in two variables and their recursion.

A design is stored as a pair of quaternary coefficient matrices with
disjoint supports: ``acoef`` carries the phase multiplying the first
variable in each cell, ``bcoef`` the phase multiplying the second.
Evaluation at integers is then just ``a * acoef + b * bcoef``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import BudgetError, FieldCtx, order_within_budget
from .qmatrix import MatrixError, QMatrix, _gram_is_scalar, _gram_parts, _mul
from .builder import skew_core, skew_regular_qhm

EVAL_POINTS = ((1, 0), (0, 1), (1, 1))
_UNITS = (-1, 0, 1)


def _support(m: QMatrix) -> np.ndarray:
    """The nonzero cells of a quaternary matrix, as an int8 mask."""
    return m.re | m.im


@dataclass(frozen=True)
class CODMatrix:
    """Two-variable quaternary orthogonal design with constant row type."""

    acoef: QMatrix
    bcoef: QMatrix

    def __post_init__(self):
        a, b = self.acoef, self.bcoef
        if a.n != b.n or a.im is None or b.im is None:
            raise MatrixError("coefficients must be quaternary matrices of one order")
        if (_support(a) & _support(b)).any():
            raise MatrixError("each cell may carry at most one variable")

    @property
    def n(self) -> int:
        return self.acoef.n

    @property
    def stype(self) -> tuple[int, int]:
        """(s1, s2) variable multiplicities; requires them constant per row."""
        s1 = np.count_nonzero(_support(self.acoef), axis=1)
        s2 = np.count_nonzero(_support(self.bcoef), axis=1)
        if not (np.all(s1 == s1[0]) and np.all(s2 == s2[0])):
            raise MatrixError("row type is not constant")
        return int(s1[0]), int(s2[0])

    def evaluate_qmatrix(self, a: int, b: int) -> QMatrix:
        """Evaluation at a, b in {-1, 0, 1} as a quaternary matrix."""
        if not (a in _UNITS and b in _UNITS):
            raise MatrixError(f"({a}, {b}) is not a point of {{-1, 0, 1}}^2")
        return QMatrix(*_planes_at(self, a, b))


def _planes_at(d: CODMatrix, a: int, b: int) -> list[np.ndarray]:
    """The planes of the evaluation at a, b in {-1, 0, 1}.  Every cell is
    one unit coefficient times a unit or zero, since the supports are
    disjoint, so each plane stays in {-1, 0, 1}.  Each is summed in
    place: its only array of the full order is the result."""
    planes = []
    for x, y in ((d.acoef.re, d.bcoef.re), (d.acoef.im, d.bcoef.im)):
        out = x * a
        if b:
            (np.add if b == 1 else np.subtract)(out, y, out=out)
        planes.append(out)
    return planes


def _is_real(d: CODMatrix) -> bool:
    return not (d.acoef.im.any() or d.bcoef.im.any())


def certify_gram(d: CODMatrix, conjugate: bool = True) -> bool:
    """Check X X* = (s1 a^2 + s2 b^2) I at (1, 0), (0, 1) and (1, 1).

    For X = aA + bB with real a, b,
    X X* = a^2 AA* + b^2 BB* + ab (AB* + BA*), a form with three matrix
    coefficients.  Its differences P, R, T from the claimed coefficients
    s1 I, s2 I and 0 are P at (1, 0), R at (0, 1) and P + R + T at (1, 1),
    so the form agrees with the claim at these three points exactly when
    P = R = T = 0, which certifies the symbolic identity.

    With ``conjugate=False`` checks the plain-transpose variant X X^T,
    which holds exactly when the design is real and X X* holds: the
    diagonal of X X^T at (1, 0) counts the real minus the imaginary cells
    in a row of A, so it equals s1 only when A has no imaginary cell, and
    likewise for B at (0, 1); for a real X, X^T = X*.
    """
    s1, s2 = d.stype
    if not (conjugate or _is_real(d)):
        return False
    for a, b in EVAL_POINTS:
        # A unit point keeps every |entry|^2 at most 1.
        if not _gram_is_scalar(*_planes_at(d, a, b), 1, s1 * a * a + s2 * b * b):
            return False
    return True


def _factors(ctx: FieldCtx) -> tuple[CODMatrix, QMatrix]:
    """The base design a I + b (S - I) and the core Q = skew_core(S) - I of
    the recursion, from one build of the skew-regular matrix S."""
    s = skew_regular_qhm(ctx)
    core = skew_core(s)
    eye = np.eye(s.n, dtype=np.int8)
    base = CODMatrix(QMatrix(eye, np.zeros_like(eye)), QMatrix(s.re - eye, s.im))
    return base, QMatrix(core.re - eye[1:, 1:], core.im)


def _checked_order(ctx: FieldCtx, k: int) -> int:
    """The order of level k, checked against the budget for the dense
    design before anything is built."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    order = (1 + ctx.q) * ctx.q**k
    if not order_within_budget(order):
        raise BudgetError(f"order {order} exceeds the memory budget")
    return order


def cod_recurse(ctx: FieldCtx, k: int) -> CODMatrix:
    """k substitution steps: order (1+p^2) p^(2k), type (p^(2k), p^(2k+2)).

    Each step sends an a-cell with phase e to the p^2 x p^2 block e*b*J
    and a b-cell with phase e to e*(a I + b Q), Q the skew-core minus
    its identity.  In coefficient form that is A' = B (x) I and
    B' = A (x) J + B (x) Q, written straight into the new int8 planes,
    viewed as (n, q, n, q) blocks, with no Kronecker temporaries.
    """
    _checked_order(ctx, k)
    d, q_core = _factors(ctx)
    q, diag = ctx.q, np.arange(ctx.q)
    qr, qi = q_core.re[None, :, None, :], q_core.im[None, :, None, :]
    for _ in range(k):
        n = d.n
        a = np.zeros((2, n, q, n, q), dtype=np.int8)
        a[:, :, diag, :, diag] = (d.bcoef.re, d.bcoef.im)
        b_re, b_im = _mul(d.bcoef.re[:, None, :, None], d.bcoef.im[:, None, :, None], qr, qi)
        b_re += d.acoef.re[:, None, :, None]
        b_im += d.acoef.im[:, None, :, None]
        shape = (n * q, n * q)
        d = CODMatrix(QMatrix(*a.reshape(2, *shape)),
                      QMatrix(b_re.reshape(shape), b_im.reshape(shape)))
    return d


def _broken_identity(base: CODMatrix, q_core: QMatrix, q: int) -> str | None:
    """The first hypothesis of the factored certificate that the factors
    fail, by name; None when all hold.  Every check is exact: the cells
    are Gaussian integers, the sums have at most q unit terms, and QQ* is
    formed by the exact kernel."""
    if not np.array_equal(_support(q_core) != 0, ~np.eye(q, dtype=bool)):
        return "Q has zero diagonal and unit cells off it"
    if not (np.array_equal(q_core.re.T, -q_core.re)
            and np.array_equal(q_core.im.T, q_core.im)):
        return "Q* = -Q"
    if q_core.re.sum(axis=1).any() or q_core.im.sum(axis=1).any():
        return "QJ = 0"
    g_re, g_im = _gram_parts(q_core.re, q_core.im, 1)
    if g_im.any() or not np.array_equal(g_re, q * np.eye(q) - 1):
        return "QQ* = qI - J"
    s1, s2 = base.stype
    if s2 != q * s1:
        return "s2 = q s1"
    return None


def factored_summary(ctx: FieldCtx, k: int) -> dict:
    """Order, row type and both Gram verdicts of ``cod_recurse(ctx, k)``,
    certified from its factors without forming the design.

    Suppose level k satisfies AA* = s1 I, BB* = s2 I, AB* + BA* = 0 and
    s2 = q s1.  One step sets A' = B (x) I and B' = A (x) J + B (x) Q, and
    JQ* = (QJ)* = 0.  Then
      A'A'* = s2 I,
      B'B'* = q s1 I (x) J + s2 I (x) (qI - J) = q s2 I,
      A'B'* + B'A'* = (AB* + BA*) (x) J + s2 I (x) (Q + Q*) = 0,
    and s2' = q s2 = q s1', so the hypotheses carry over.  Since Q has a
    zero diagonal and unit cells off it, and A and B have disjoint
    supports, every cell of A', B' is one unit or zero with disjoint
    supports, and a row of B' has s1 q + s2 (q - 1) = q s2 cells: the row
    type steps as (s1, s2) -> (s2, q s2).  By induction level k is
    certified by the dense base certificate and the q x q facts
    Q zero-diagonal with unit cells off it, Q* = -Q, QJ = 0,
    QQ* = qI - J, and s2 = q s1 at the base.  The order (1+q) q^k is an
    exact int.

    Level k is real exactly when the base is and (k = 0 or Q is real): an
    imaginary cell of A or B reappears in B' or A', and a real B, with
    s2 > 0 cells a row, times a non-real Q puts one in B'.  With the
    conjugate verdict this decides the transpose verdict (see
    ``certify_gram``).

    Should a hypothesis fail, its name is reported under "broken" and the
    verdicts are those of the dense design, so a broken hypothesis never
    yields a verdict.
    """
    order = _checked_order(ctx, k)
    base, q_core = _factors(ctx)
    broken = (_broken_identity(base, q_core, ctx.q) if certify_gram(base)
              else "base Gram")
    if broken is not None:
        d = cod_recurse(ctx, k)
        s1, s2 = d.stype
        return {"order": d.n, "type": [s1, s2],
                "gram_conjugate": certify_gram(d),
                "gram_transpose": certify_gram(d, conjugate=False),
                "broken": broken}
    s1, s2 = base.stype
    for _ in range(k):
        s1, s2 = s2, ctx.q * s2
    real = _is_real(base) and (k == 0 or not q_core.im.any())
    return {"order": order, "type": [s1, s2],
            "gram_conjugate": True, "gram_transpose": real}
