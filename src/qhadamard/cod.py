"""Quaternary orthogonal designs in two variables and their recursion.

A cell of X = aA + bB has one of nine codes: 0, 1 + e for a*i^e or
5 + e for b*i^e.  X is a plane ``code`` over a level table ``table`` of
shape (9, m, m): ``code`` with every cell c replaced by the block
table[c].  The base design aI + b(S - I) is level 0, over the identity
table.  An evaluation maps the codes to their values in the small
table and gathers X from it; A and B are those at (1, 0) and (0, 1).
The file of an evaluation is written the same way: its nine codes'
characters, checked against the alphabet, are mapped over the table,
and each panel of code rows is gathered straight into the file's bytes.
The summary (``factored_summary``) forms neither the design nor the
skew core: S's recognised verdict certifies the base and, by the core
identities it implies, every level; an S that fails it is an error.
"""

from __future__ import annotations

import sys
from functools import cached_property

import numpy as np

from . import matio
from .field import BudgetError, FieldCtx, FieldError, max_order
from .qmatrix import MatrixError, QMatrix, _gram_is_scalar, _row_panels, check_skew_type
from .builder import skew_core, skew_regular_qhm
from .verify import _recognise

_UNITS = (-1, 0, 1)
# The code of a cell re + i*im of B, at 3*re + im + 4.
_B_CODES = np.array([0, 7, 0, 8, 0, 6, 0, 5, 0], dtype=np.uint8)
# The real and the imaginary plane of each code's value at a unit point.
_VALUES = {(a, b): np.array([[0, a, 0, -a, 0, b, 0, -b, 0], [0, 0, a, 0, -a, 0, b, 0, -b]],
                            dtype=np.int8) for a in _UNITS for b in _UNITS}
# _KIND[v, c]: whether code c carries a (v = 0) or b (v = 1).
_KIND = np.array([_VALUES[1, 0].any(axis=0), _VALUES[0, 1].any(axis=0)])
# _TIMES[e, c]: the code of i^e times a cell of code c.
_TIMES = np.array([[0] + [v + (x + e) % 4 for v in (1, 5) for x in range(4)]
                   for e in range(4)], dtype=np.uint8)
_IDENTITY = np.arange(9, dtype=np.uint8).reshape(9, 1, 1)


def _lookup(values: np.ndarray, code: np.ndarray) -> np.ndarray:
    """values[code] for one-byte ``values``, as a writable array made by a
    ``bytearray.translate`` pass, which needs no intp copy of ``code``."""
    table = values.view(np.uint8).tobytes().ljust(256, b"\0")
    return np.frombuffer(bytearray(code).translate(table), values.dtype).reshape(code.shape)


def _check_point(a: int, b: int) -> None:
    if not (a in _UNITS and b in _UNITS):
        raise MatrixError(f"({a}, {b}) is not a point of {{-1, 0, 1}}^2")


def _design(m: QMatrix) -> np.ndarray:
    """The code plane of aI + b(M - I) for an M with unit diagonal."""
    code = _lookup(_B_CODES, 3 * m.re + m.im + 4)
    np.fill_diagonal(code, 1)
    return code


def _substitute(code: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``code`` (..., h, n) with every cell c replaced by the m x m block
    table[c]: row r of the blocks in row i is the rows table[code[i, j], r],
    one gather from ``table`` viewed as rows of m bytes (m = 1: a lookup)."""
    (h, n), m = code.shape[-2:], table.shape[-1]
    if m == 1:
        return _lookup(table[:, 0, 0], code)
    rows = table.view(np.dtype((np.void, m)))[..., 0]
    out = rows[code[..., None, :], np.arange(m)[:, None]]
    return out.view(table.dtype).reshape(*code.shape[:-2], h * m, n * m)


class CODMatrix:
    """Two-variable quaternary orthogonal design with constant row type:
    the read-only ``code`` plane over the level ``table`` (see the module)."""

    def __init__(self, code: np.ndarray, table: np.ndarray):
        code.setflags(write=False)
        table.setflags(write=False)
        self.__dict__.update(code=code, table=table, n=code.shape[0] * table.shape[1])

    def __setattr__(self, name, value):
        raise AttributeError("CODMatrix is immutable")

    @cached_property
    def stype(self) -> tuple[int, int]:
        """(s1, s2) variable multiplicities; requires them constant per row."""
        rows = [np.count_nonzero(_substitute(self.code, _lookup(kind, self.table)), axis=1)
                for kind in _KIND]
        if not all((r == r[0]).all() for r in rows):
            raise MatrixError("row type is not constant")
        return int(rows[0][0]), int(rows[1][0])

    def evaluate_qmatrix(self, a: int, b: int) -> QMatrix:
        """Evaluation at a, b in {-1, 0, 1} as a quaternary matrix."""
        _check_point(a, b)
        return QMatrix(*self._planes(a, b))

    def text(self, a: int, b: int) -> bytearray:
        """The file's bytes of ``evaluate_qmatrix(a, b)``, with no plane.

        The nine codes' values, as the cells of a 3 x 3 ``QMatrix``, pass
        the constructor's checks; their characters, mapped over the level
        table, are gathered one panel of code rows at a time into the
        file's buffer, the only array of the design's order.
        """
        _check_point(a, b)
        values = QMatrix(*_VALUES[a, b].reshape(2, 3, 3))
        chars = np.empty(9, dtype=np.uint8)
        matio._chars(values.re.ravel(), values.im.ravel(), chars)
        table = _lookup(chars, self.table)
        buf, cells = matio._frame(False, self.n)
        m = table.shape[1]
        for rows in _row_panels(self.code.shape[0], m * self.n):
            cells[rows.start * m:rows.stop * m] = _substitute(self.code[rows], table)
        return buf

    def _planes(self, a: int, b: int) -> list[np.ndarray]:
        # Each plane is in {-1, 0, 1} and the only array of the design's order.
        return [_substitute(self.code, _lookup(v, self.table)) for v in _VALUES[a, b]]


def certify_gram(d: CODMatrix) -> bool:
    """Check X X* = (s1 a^2 + s2 b^2) I at (1, 0), (0, 1) and (1, 1).

    For X = aA + bB with real a, b,
    X X* = a^2 AA* + b^2 BB* + ab (AB* + BA*), a form with three matrix
    coefficients.  Its differences P, R, T from the claimed coefficients
    s1 I, s2 I and 0 are P at (1, 0), R at (0, 1) and P + R + T at (1, 1),
    so the form agrees with the claim at these three points exactly when
    P = R = T = 0, which certifies the symbolic identity.
    """
    s1, s2 = d.stype
    for a, b in ((1, 0), (0, 1), (1, 1)):
        # A unit point keeps every |entry|^2 at most 1.
        if not _gram_is_scalar(*d._planes(a, b), s1 * a * a + s2 * b * b):
            return False
    return True


def _factors(ctx: FieldCtx) -> tuple[CODMatrix, QMatrix]:
    """The base design a I + b (S - I) and the skew core I + Q of S, from
    one build of S; ``skew_core`` certifies S + S* = 2I, so S_ii = 1."""
    s = skew_regular_qhm(ctx)
    return CODMatrix(_design(s), _IDENTITY), skew_core(s)


def _order_text(q: int, k: int) -> str:
    """The order (1 + q) q^k in digits, or by its factors when it has more
    digits than Python turns into a string (4300 by default).  q^k has
    over k (bits(q) - 1) bits, and an int of D digits at most 4D, so an
    order past 4D such bits is named by its factors without being formed."""
    if k * (q.bit_length() - 1) <= 4 * (sys.get_int_max_str_digits() or 4300):
        try:
            return str((1 + q) * q**k)
        except ValueError:
            pass
    return f"(1 + {q}) * {q}^{k}"


def _checked_order(ctx: FieldCtx, k: int) -> int:
    """The order of level k, checked against the budget for the dense
    design before anything is built.  q^k > 2^k, so a k above the bit
    length of the largest order that fits is refused before the order is
    formed."""
    if k < 0:
        raise FieldError("k must be nonnegative")
    limit = max_order()
    if k > limit.bit_length() or (order := (1 + ctx.q) * ctx.q**k) > limit:
        raise BudgetError(f"order {_order_text(ctx.q, k)} exceeds the memory budget")
    return order


def cod_recurse(ctx: FieldCtx, k: int) -> CODMatrix:
    """k substitution steps: order (1+p^2) p^(2k), type (p^(2k), p^(2k+2)).

    A step, A' = B (x) I and B' = A (x) J + B (x) Q for I + Q the skew
    core, sends a cell of code c to a q x q block step[c]: a*i^e to
    i^e b J, b*i^e to i^e (a I + b Q).  So a cell's k-fold expansion
    depends on its code alone; it is the block T_k[c], where T_0 is the
    identity and T_{j+1}[c] is step[c] with each cell c' replaced by its
    j-fold expansion T_j[c'].  Level k is the base code plane over T_k.
    """
    _checked_order(ctx, k)
    base, core = _factors(ctx)
    table = _IDENTITY
    if k:
        step = np.zeros((9, ctx.q, ctx.q), dtype=np.uint8)
        step[1:5] = _TIMES[:, 5, None, None]
        step[5:] = _TIMES[:, _design(core)]
        for _ in range(k):
            table = _substitute(step, table)
    return CODMatrix(base.code, table)


def factored_summary(ctx: FieldCtx, k: int) -> dict:
    """Order, row type and both Gram verdicts of ``cod_recurse(ctx, k)``,
    certified from S's recognised verdict alone, without forming the
    design or the skew core.

    The base design aI + b(S - I) has A = I and B = S - I, so AA* = I,
    AB* + BA* = S + S* - 2I and BB* = SS* - S - S* + I: AA* = s1 I,
    BB* = s2 I and AB* + BA* = 0 with (s1, s2) = (1, q) hold exactly
    when S + S* = 2I and SS* = (1 + q)I, the verdict ``(True, True)`` of
    the recogniser (``verify._recognise``), which decides S by its form
    in one pass over its cells.  Every cell of a Hadamard S is a unit
    and a skew S has S_ii = 1, so the base has type (1, q): s2 = q s1.

    The skew core I + Q of the recursion inherits the rest from that
    verdict.  SS* = (q + 1)I with every |cell| <= 1 makes every cell a
    unit, so S normalized by its first row d is
    N = D S D* = [[1, 1^T], [-1, I + Q]] for D = diag(d) (``skew_core``),
    and Q has unit cells off its diagonal.  N + N* = 2I gives Q* = -Q
    and, with S_ii = 1, a zero diagonal of Q.  NN* = (q + 1)I gives
    QJ = 0 (row 0 against row j) and J + I + Q + Q* + QQ* = (q + 1)I,
    so QQ* = qI - J.  A real S has a real D and so a real Q.

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
    type steps as (s1, s2) -> (s2, q s2), to (q^k, q^(k+1)) at level k.
    By induction S's verdict certifies every level.  The order
    (1+q) q^k is an exact int.

    Level k is real exactly when S is: an imaginary cell of A or B
    reappears in B' or A', and a real S has a real Q.  The diagonal of
    X X^T at (1, 0) counts the real minus the imaginary cells in a row of
    A, so it equals s1 only when A has no imaginary cell, and likewise
    for B at (0, 1); for a real X, X^T = X*.  So the transpose verdict is
    S's realness.

    An S that is not skew or not Hadamard raises ``MatrixError``.
    """
    order = _checked_order(ctx, k)
    s = skew_regular_qhm(ctx)
    hadamard, skew = _recognise(s.re, s.im)
    if not (check_skew_type(s) if skew is None else skew):
        raise MatrixError("input is not skew-type")
    if not hadamard:
        raise MatrixError(f"base Gram: S S* is not {ctx.q + 1}I")
    return {"order": order, "type": [ctx.q**k, ctx.q**(k + 1)],
            "gram_conjugate": True, "gram_transpose": not s.im.any()}
