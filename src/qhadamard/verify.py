"""Certification predicates and machine-readable property reports.

``_recognise`` decides a quaternary matrix X by its form.  It is the one
recogniser: ``full_report``, ``qmatrix.gram_is_scalar`` and
``qmatrix.sign_gram_is_scalar`` all take their verdicts from it.  X X* = nI
alone makes X Hadamard, its diagonal counting the nonzero cells of each
row.  It returns verdicts only; ``full_report`` takes the row sums of
every matrix once and reads each summary from their distinct values.

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
  A + A* = 2I.  A, and B unless it is A*, are recognised in turn.
- Any other X goes to the skew check (``qmatrix.check_skew_type``) and
  the dense Gram certificate, both in panels of 128 rows
  (``qmatrix._row_panels``); above one panel the certificate first
  screens X ybar = n1 for the column sums y in O(n^2), exactly: its
  partial sums are <= n^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmatrix
from .builder import base_form
from .qmatrix import MatrixError, QMatrix, check_skew_type, doubled_blocks, sign_gram_is_scalar


def check_real_hadamard(w: QMatrix) -> bool:
    """W W^T = nI; its diagonal counts each row's nonzero cells."""
    return sign_gram_is_scalar(w, w.n)


def _row_sums(re: np.ndarray, im: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the row sums, exact in the
    accumulator of ``qmatrix._sums``."""
    x = qmatrix._sums(re, 1)
    return x, np.zeros_like(x) if im is None else qmatrix._sums(im, 1)


def _recognise(re: np.ndarray, im: np.ndarray | None) -> tuple[bool, bool | None]:
    """(hadamard, skew) of X = re + i*im: X X* = nI, and X + X* = 2I, or
    None if no form decides it.  For the base form both come from the
    phase test of X and two facts of its field's context, kept with it
    for the process: ``ctx.certified`` (``field.certify_character``) and
    ``ctx.even`` (``field.character_is_even``)."""
    if form := base_form(re, im):
        ctx, skew = form
        return ctx.certified, skew
    if blocks := doubled_blocks(re, im):
        (ar, ai), (br, bi), adjoint = blocks
        hadamard, skew = _recognise(ar, ai)
        if adjoint:
            return hadamard, skew
        return hadamard and _recognise(br, bi)[0], False
    return qmatrix._gram_is_scalar(re, im, len(re)), None


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
        hadamard, skew = check_real_hadamard(m), None
    else:
        hadamard, skew = _recognise(m.re, m.im)
    skew = check_skew_type(m) if skew is None else skew
    x, y = _row_sums(m.re, m.im)
    sums, counts = np.unique(x + 1j * y, return_counts=True)
    # The distinct sums as int64 pairs, whose squares are exact.
    parts = np.stack([sums.real, sums.imag]).astype(np.int64)
    norms = (parts * parts).sum(axis=0)
    abs_reg = bool((norms == norms[0]).all())
    abs_sq = int(norms[0]) if abs_reg else None
    regular = complex(sums[0]) if len(sums) == 1 else None
    # A regular quaternary Hadamard matrix must have |row sum|^2 = order.
    if regular is not None and hadamard and abs_sq != m.n:
        raise MatrixError(f"regular Hadamard matrix of order {m.n} with |row sum|^2 = {abs_sq}")
    # Sums in {+-a +-bi, +-b +-ai}, a <= b: all share (a, b) = (min, max) of |x|, |y|.
    ab = np.sort(np.abs(parts), axis=0)
    a, b = ab[:, 0].tolist()
    semi = hadamard and a * a + b * b == m.n and bool((ab == ab[:, :1]).all())
    return PropertyReport(
        order=m.n,
        hadamard=hadamard,
        skew=skew,
        row_sum_multiset=dict(zip(sums.tolist(), counts.tolist())),
        regular=regular,
        abs_regular=abs_reg,
        abs_value_sq=abs_sq,
        semi_regular_witness=(a, b) if semi else None,
        excess=int(x.sum()) if m.im is None else None,
    )
