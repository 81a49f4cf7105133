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
The summary (``factored_summary``) forms no design: it takes the base's
certificate from S's recognised verdict and the recursion's from facts
of the skew core, and only a broken one falls back to the dense Gram
certificate of the design (``certify_gram``).
"""

from __future__ import annotations

import sys
from functools import cached_property

import numpy as np

from . import matio
from .field import BudgetError, FieldCtx, FieldError, max_order
from .qmatrix import (MatrixError, QMatrix, _gram_is_scalar, _row_panels, check_skew_type,
                      gram_is_scalar)
from .builder import skew_core, skew_regular_qhm
from .verify import _recognise, _row_sums

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


def _is_real(d: CODMatrix) -> bool:
    """No block of a code in ``d.code`` holds an imaginary cell.

    The plain-transpose Gram X X^T = (s1 a^2 + s2 b^2) I holds exactly
    when ``d`` is real and X X* does (``certify_gram``): the diagonal of
    X X^T at (1, 0) counts the real minus the imaginary cells in a row of
    A, so it equals s1 only when A has no imaginary cell, and likewise
    for B at (0, 1); for a real X, X^T = X*.
    """
    return not _lookup(_lookup(_VALUES[1, 1][1], d.table).any(axis=(1, 2)), d.code).any()


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


def _broken_identity(stype: tuple[int, int], core: QMatrix, q: int) -> str | None:
    """The first hypothesis of the factored certificate that the factors
    fail, by name, each checked on the skew core I + Q and the base row
    type ``stype``; None when all hold.  Every check is exact: the cells
    are Gaussian integers, the sums have at most q unit terms, and QQ*
    is decided by ``gram_is_scalar``."""
    if not ((core.re | core.im).all() and (core.re.diagonal() == 1).all()):
        return "Q has zero diagonal and unit cells off it"
    if not check_skew_type(core):
        return "Q* = -Q"
    x, y = _row_sums(core.re, core.im)
    if (x != 1).any() or y.any():
        return "QJ = 0"
    # Given Q* = -Q and QJ = 0, N = [[1, 1^T], [-1, I + Q]] has
    # NN* = [[q + 1, (QJ)*], [QJ, J + I + QQ*]], which is (q + 1)I exactly
    # when QQ* = qI - J.  For the skew core of S, N is skew_core's
    # normalization D S D* of S, of the base form, which the recogniser
    # decides in one pass over its cells; any other N goes to the dense
    # certificate.
    border = np.zeros((2, q + 1, q + 1), dtype=np.int8)
    border[0, 0], border[0, 1:, 0] = 1, -1
    border[0, 1:, 1:], border[1, 1:, 1:] = core.re, core.im
    if not gram_is_scalar(QMatrix(*border), q + 1):
        return "QQ* = qI - J"
    s1, s2 = stype
    if s2 != q * s1:
        return "s2 = q s1"
    return None


def factored_summary(ctx: FieldCtx, k: int) -> dict:
    """Order, row type and both Gram verdicts of ``cod_recurse(ctx, k)``,
    certified from S and its skew core without forming the design.

    The base design aI + b(S - I) has A = I and B = S - I, so AA* = I,
    AB* + BA* = S + S* - 2I and BB* = SS* - S - S* + I: AA* = s1 I,
    BB* = s2 I and AB* + BA* = 0 with (s1, s2) = (1, q) hold exactly
    when S + S* = 2I and SS* = (1 + q)I, the verdict ``(True, True)`` of
    the recogniser (``verify._recognise``), which decides S by its form
    in one pass over its cells.  Every cell of a Hadamard S is a unit
    and a skew S has S_ii = 1, so the base has type (1, q) and is real
    exactly when S is.

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
    By induction level k is certified by S's verdict and the q x q facts Q
    zero-diagonal with unit cells off it, Q* = -Q, QJ = 0, QQ* = qI - J,
    and s2 = q s1 at the base, each read off the skew core I + Q
    (``_broken_identity``).  The order (1+q) q^k is an exact int.

    Level k is real exactly when the base is and (k = 0 or Q is real): an
    imaginary cell of A or B reappears in B' or A', and a real B, with
    s2 > 0 cells a row, times a non-real Q puts one in B'.  With the
    conjugate verdict this decides the transpose verdict (see
    ``_is_real``).

    Should S's verdict or a hypothesis fail, its name ("base Gram" for
    the verdict) is reported under "broken" and the verdicts are those
    of the dense design, so a broken hypothesis never yields a verdict.
    """
    order = _checked_order(ctx, k)
    s = skew_regular_qhm(ctx)
    core = skew_core(s)
    hadamard, skew = _recognise(s.re, s.im)
    if hadamard and skew is None:
        skew = check_skew_type(s)
    real = not s.im.any()
    del s  # from here on only the core and its bordered N are held
    broken = (_broken_identity((1, ctx.q), core, ctx.q) if hadamard and skew
              else "base Gram")
    if broken is not None:
        d = cod_recurse(ctx, k)
        conjugate = certify_gram(d)
        return {"order": d.n, "type": list(d.stype),
                "gram_conjugate": conjugate,
                "gram_transpose": conjugate and _is_real(d),
                "broken": broken}
    return {"order": order, "type": [ctx.q**k, ctx.q**(k + 1)],
            "gram_conjugate": True,
            "gram_transpose": real and (k == 0 or not core.im.any())}
