"""Certification predicates and machine-readable property reports."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .qmatrix import QMatrix, gram_is_scalar, row_sums, sign_gram_is_scalar


def check_quaternary_hadamard(m: QMatrix) -> bool:
    """All entries nonzero phases and M M* = n I."""
    return bool((m.re | m.im).all()) and gram_is_scalar(m, m.n)


def check_real_hadamard(w: QMatrix) -> bool:
    return bool(w.re.all()) and sign_gram_is_scalar(w, w.n)


def check_skew_type(m: QMatrix) -> bool:
    """M = I + Q with Q* = -Q, i.e. M + M* = 2I: the real plane plus its
    transpose is 2I and the imaginary plane is symmetric."""
    s = m.re + m.re.T
    s.flat[:: m.n + 1] -= 2
    return not s.any() and (m.im is None or np.array_equal(m.im, m.im.T))


def is_regular(m: QMatrix) -> complex | None:
    """The common row sum, or None when row sums differ."""
    sums = row_sums(m)
    return sums[0] if all(s == sums[0] for s in sums) else None


def is_absolutely_regular(m: QMatrix) -> tuple[bool, int | None]:
    """Whether all |row sum|^2 agree, and the common value if so."""
    norms = [int(round(s.real)) ** 2 + int(round(s.imag)) ** 2 for s in row_sums(m)]
    if all(v == norms[0] for v in norms):
        return True, norms[0]
    return False, None


def check_semi_regular(m: QMatrix, a: int, b: int) -> bool:
    """Row sums confined to {+-a +-bi, +-b +-ai}; requires a^2 + b^2 = n."""
    if a * a + b * b != m.n:
        raise ValueError(f"a^2 + b^2 = {a * a + b * b} != order {m.n}")
    allowed = {complex(ea * x, eb * y) for x, y in ((a, b), (b, a))
               for ea in (1, -1) for eb in (1, -1)}
    return all(s in allowed for s in row_sums(m))


def find_semi_regular_witness(m: QMatrix) -> tuple[int, int] | None:
    """Smallest (a, b) with a <= b, a^2 + b^2 = n, and row sums in the set."""
    for a in range(math.isqrt(m.n) + 1):
        b2 = m.n - a * a
        b = math.isqrt(b2)
        if b * b == b2 and b >= a and check_semi_regular(m, a, b):
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
    regular = is_regular(m)
    abs_reg, abs_sq = is_absolutely_regular(m)
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
        row_sum_multiset=dict(Counter(row_sums(m))),
        regular=regular,
        abs_regular=abs_reg,
        abs_value_sq=abs_sq,
        semi_regular_witness=find_semi_regular_witness(m) if hadamard else None,
        excess=total,
    )
