"""Certification predicates and machine-readable property reports."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .qmatrix import QMatrix, gram_is_scalar, sign_gram_is_scalar


def check_quaternary_hadamard(m: QMatrix) -> bool:
    """All entries nonzero phases and M M* = n I."""
    return bool((m.re | m.im).all()) and gram_is_scalar(m, m.n)


def check_real_hadamard(w: QMatrix) -> bool:
    return bool(w.re.all()) and sign_gram_is_scalar(w, w.n)


_SKEW_PANEL = 128


def check_skew_type(m: QMatrix) -> bool:
    """M = I + Q with Q* = -Q, i.e. M + M* = 2I: the real plane plus its
    transpose is 2I and the imaginary plane is symmetric.

    Both conditions are symmetric, so the rows r0:r1 are checked against
    the columns r0: only, one panel of rows at a time, and the check
    stops at the first panel that fails.
    """
    re, im = m.re, m.im
    for r0 in range(0, m.n, _SKEW_PANEL):
        r1 = r0 + _SKEW_PANEL
        s = re[r0:r1, r0:] + re[r0:, r0:r1].T
        # The panel's row i meets the diagonal at its column i.
        s.flat[:: s.shape[1] + 1] -= 2
        if s.any() or (im is not None
                       and not np.array_equal(im[r0:r1, r0:], im[r0:, r0:r1].T)):
            return False
    return True


def _row_sums(m: QMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The real and the imaginary parts of the row sums, as int64 vectors."""
    re = m.re.sum(axis=1, dtype=np.int64)
    im = np.zeros_like(re) if m.im is None else m.im.sum(axis=1, dtype=np.int64)
    return re, im


def _common_sum(re: np.ndarray, im: np.ndarray) -> complex | None:
    if (re == re[0]).all() and (im == im[0]).all():
        return complex(int(re[0]), int(im[0]))
    return None


def is_regular(m: QMatrix) -> complex | None:
    """The common row sum, or None when row sums differ."""
    return _common_sum(*_row_sums(m))


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
        hadamard = check_real_hadamard(m)
        total = int(m.re.sum())
    else:
        hadamard = check_quaternary_hadamard(m)
        total = None
    re, im = _row_sums(m)
    regular = _common_sum(re, im)
    norms = re * re + im * im
    abs_reg = bool((norms == norms[0]).all())
    abs_sq = int(norms[0]) if abs_reg else None
    if regular is not None:
        # A regular quaternary Hadamard matrix must have |row sum|^2 = order.
        if hadamard and abs_sq != m.n:
            raise AssertionError(
                f"regular Hadamard matrix of order {m.n} with |row sum|^2 = {abs_sq}"
            )
    return PropertyReport(
        order=m.n,
        hadamard=hadamard,
        skew=check_skew_type(m),
        row_sum_multiset=dict(Counter(map(complex, re.tolist(), im.tolist()))),
        regular=regular,
        abs_regular=abs_reg,
        abs_value_sq=abs_sq,
        semi_regular_witness=_semi_regular_witness(re, im, m.n) if hadamard else None,
        excess=total,
    )
