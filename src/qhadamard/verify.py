"""Certification predicates and machine-readable property reports.

``_recognise`` decides a quaternary matrix X by its form.  It is the one
recogniser: ``full_report``, ``qmatrix.gram_is_scalar`` and
``qmatrix.sign_gram_is_scalar`` all take their verdicts from it.  X X* = nI
alone makes X Hadamard, its diagonal counting the nonzero cells of each
row.  Only ``full_report`` reads row sums, so only it asks for them.

- The base form X = diag(u)(I - iC)diag(w) (``builder.base_form``) has
  X X* = diag(u)(I + CC^T + i(C^T - C))diag(u*), which is nI exactly
  when C = C^T and CC^T = (n - 1)I: the symmetric conference matrix,
  which ``field.certify_character`` decides from the character table.
- For D = [[A, iA], [iB, B]] (``qmatrix.doubled_blocks``),
  D D* = [[AA* + AA*, -iAB* + iAB*], [iBA* - iBA*, BB* + BB*]]
  = diag(2AA*, 2BB*), so D D* = nI exactly when AA* = BB* = (n/2)I.
  B needs no certificate when it is A*: AA* = kI makes A*A = kI too (A
  is invertible for k != 0, and zero for k = 0).  D + D* =
  [[A + A*, i(A - B*)], [i(B - A*), B + B*]] is 2I iff B = A* and
  A + A* = 2I.  Row k of the top half sums to (1 + i)r = (x - y) +
  i(x + y), r = x + iy the k-th row sum of A, and of the bottom half
  likewise with B.  A, and B unless it is A*, are recognised in turn,
  and the sums are read from them.
- Any other X goes to the skew check and the dense Gram certificate,
  both in panels of 128 rows (``qmatrix._row_panels``); above one panel
  the certificate first screens X ybar = n1 for the column sums y in
  O(n^2), exactly: its partial sums are <= n^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmatrix
from .builder import base_form
from .field import certify_character
from .qmatrix import MatrixError, QMatrix, doubled_blocks, sign_gram_is_scalar


def check_real_hadamard(w: QMatrix) -> bool:
    """W W^T = nI; its diagonal counts each row's nonzero cells."""
    return sign_gram_is_scalar(w, w.n)


def check_skew_type(m: QMatrix) -> bool:
    """M = I + Q with Q* = -Q, i.e. M + M* = 2I: the real plane plus its
    transpose is 2I and the imaginary plane is symmetric.

    Both conditions are symmetric, so a panel of rows r0:r1 is checked
    against the columns r0: only, in the dense Gram's row panels, and
    the check stops at the first panel that fails.
    """
    re, im = m.re, m.im
    for rows in qmatrix._row_panels(m.n, m.n, qmatrix._PANEL_CAP * m.n):
        cols = slice(rows.start, None)
        s = re[rows, cols] + re[cols, rows].T
        # The panel's row i meets the diagonal at its column i.
        s.flat[:: s.shape[1] + 1] -= 2
        if s.any() or (im is not None and not np.array_equal(im[rows, cols], im[cols, rows].T)):
            return False
    return True


def _row_sums(re: np.ndarray, im: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the row sums, as int64."""
    x = qmatrix._sums(re, 1).astype(np.int64)
    y = np.zeros_like(x) if im is None else qmatrix._sums(im, 1).astype(np.int64)
    return x, y


def _common_sum(re: np.ndarray, im: np.ndarray) -> complex | None:
    if (re == re[0]).all() and (im == im[0]).all():
        return complex(int(re[0]), int(im[0]))
    return None


def _recognise(re: np.ndarray, im: np.ndarray | None, sums: bool = False):
    """(hadamard, skew, row_sums) of X = re + i*im: X X* = nI, X + X* = 2I
    (None if no form decides it) and, when ``sums`` is set, the row sums
    x + iy as the pair (x, y), else None."""
    if form := base_form(re, im):
        ctx, skew = form
        hadamard = certify_character(ctx.char_table, ctx.p)
    elif blocks := doubled_blocks(re, im):
        (ar, ai), (br, bi), adjoint = blocks
        hadamard, skew, a_sums = _recognise(ar, ai, sums)
        if adjoint:
            b_sums = _row_sums(br, bi) if sums else None
        else:
            b_hadamard, _, b_sums = _recognise(br, bi, sums)
            hadamard, skew = hadamard and b_hadamard, False
        if not sums:
            return hadamard, skew, None
        x, y = (np.concatenate(pair) for pair in zip(a_sums, b_sums))
        return hadamard, skew, (x - y, x + y)
    else:
        hadamard, skew = qmatrix._gram_is_scalar(re, im, len(re)), None
    return hadamard, skew, _row_sums(re, im) if sums else None


def _semi_regular_witness(re: np.ndarray, im: np.ndarray, n: int) -> tuple[int, int] | None:
    """Smallest (a, b) with a <= b, a^2 + b^2 = n and every row sum in
    {+-a +-bi, +-b +-ai}."""
    re, im = np.abs(re), np.abs(im)
    for a in range(math.isqrt(n) + 1):
        b2 = n - a * a
        b = math.isqrt(b2)
        if b * b == b2 and b >= a and (((re == a) & (im == b)) | ((re == b) & (im == a))).all():
            return a, b
    return None


@dataclass
class PropertyReport:
    order: int
    hadamard: bool
    skew: bool
    row_sum_multiset: dict[complex, int]
    regular: complex | None
    abs_regular: bool
    abs_value_sq: int | None
    semi_regular_witness: tuple[int, int] | None
    excess: int | None  # real matrices only

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "hadamard": self.hadamard,
            "skew": self.skew,
            "row_sums": sorted(
                [int(s.real), int(s.imag), c]
                for s, c in self.row_sum_multiset.items()
            ),
            "regular": None if self.regular is None
            else [int(self.regular.real), int(self.regular.imag)],
            "abs_regular": self.abs_regular,
            "semi_regular_witness": None if self.semi_regular_witness is None
            else list(self.semi_regular_witness),
            "excess": self.excess,
        }


def full_report(m: QMatrix) -> PropertyReport:
    if m.im is None:
        hadamard, skew, (re, im) = check_real_hadamard(m), None, _row_sums(m.re, None)
    else:
        hadamard, skew, (re, im) = _recognise(m.re, m.im, sums=True)
    skew = check_skew_type(m) if skew is None else skew
    regular = _common_sum(re, im)
    norms = re * re + im * im
    abs_reg = bool((norms == norms[0]).all())
    abs_sq = int(norms[0]) if abs_reg else None
    if regular is not None:
        # A regular quaternary Hadamard matrix must have |row sum|^2 = order.
        if hadamard and abs_sq != m.n:
            raise MatrixError(
                f"regular Hadamard matrix of order {m.n} with |row sum|^2 = {abs_sq}"
            )
    sums, counts = np.unique(re + 1j * im, return_counts=True)
    return PropertyReport(
        order=m.n,
        hadamard=hadamard,
        skew=skew,
        row_sum_multiset=dict(zip(sums.tolist(), counts.tolist())),
        regular=regular,
        abs_regular=abs_reg,
        abs_value_sq=abs_sq,
        semi_regular_witness=_semi_regular_witness(re, im, m.n) if hadamard else None,
        excess=int(re.sum()) if m.im is None else None,
    )
