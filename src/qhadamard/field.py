"""Exact arithmetic in GF(p^2) and its quadratic character.

Elements are a + b*theta with theta^2 = n, n the smallest quadratic
nonresidue mod p.  The element index b*p + a fixes the row/column
ordering used by every matrix construction, and makes each additive
coset {a + k*theta : a in GF(p)} a contiguous block of p indices.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

DEFAULT_BUDGET_MB = 1700
_BUDGET_ENV = "MEM_BUDGET_MB"


class FieldError(ValueError):
    """Invalid field parameter (non-prime p, p=2, a malformed budget, or
    an order over budget, see BudgetError)."""


class BudgetError(FieldError):
    """A requested order does not fit the memory budget."""


@dataclass(frozen=True)
class GFElement:
    """Canonical element a + b*theta of GF(p^2), coefficients in [0, p)."""

    a: int
    b: int


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def smallest_nonresidue(p: int) -> int:
    squares = {x * x % p for x in range(1, p)}
    for n in range(2, p):
        if n not in squares:
            return n
    raise FieldError(f"no quadratic nonresidue mod {p}")


def memory_budget_mb() -> int:
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET_MB
    try:
        budget = int(raw)
    except ValueError:
        budget = None
    if budget is None or budget < 0:
        raise FieldError(f"{_BUDGET_ENV} must be a nonnegative integer, got {raw!r}")
    return budget


def order_within_budget(order: int, budget_mb: int | None = None) -> bool:
    """Dense order x order complex128 matrices must fit the budget."""
    if budget_mb is None:
        budget_mb = memory_budget_mb()
    return 16 * order * order <= budget_mb * 2**20


class FieldCtx:
    """GF(p^2) with a precomputed character table and coset indexing.

    Immutable after construction; all methods are pure reads.
    """

    def __init__(self, p: int, budget_mb: int | None = None):
        if not is_prime(p):
            raise FieldError(f"p must be prime, got {p}")
        if p == 2:
            raise FieldError("p must be odd")
        if not order_within_budget(1 + p * p, budget_mb):
            raise BudgetError(
                f"p={p} exceeds the memory budget; raise {_BUDGET_ENV} to allow it"
            )
        self.p = p
        self.q = p * p
        self.nonresidue = smallest_nonresidue(p)
        self.char_table = self._build_char_table()

    def _build_char_table(self) -> np.ndarray:
        # chi(x) = +1 iff x is the square of some nonzero element.
        table = np.full(self.q, -1, dtype=np.int8)
        table[0] = 0
        for i in range(1, self.q):
            x = self.from_index(i)
            table[self.index(self.mul(x, x))] = 1
        return table

    # -- element plumbing -------------------------------------------------

    def element(self, a: int, b: int = 0) -> GFElement:
        return GFElement(a % self.p, b % self.p)

    def index(self, x: GFElement) -> int:
        return x.b * self.p + x.a

    def from_index(self, i: int) -> GFElement:
        return GFElement(i % self.p, i // self.p)

    def elements(self):
        return (self.from_index(i) for i in range(self.q))

    # -- ring operations --------------------------------------------------

    def mul(self, x: GFElement, y: GFElement) -> GFElement:
        n = self.nonresidue
        return self.element(x.a * y.a + n * x.b * y.b, x.a * y.b + x.b * y.a)

    def pow(self, x: GFElement, e: int) -> GFElement:
        result = self.element(1)
        base = x
        while e > 0:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # -- character and cosets ---------------------------------------------

    def chi(self, x: GFElement) -> int:
        return int(self.char_table[self.index(x)])

    def coset_index(self, x: GFElement) -> int:
        return x.b

    def coset(self, k: int):
        """The additive coset {a + k*theta : a in GF(p)}."""
        return (GFElement(a, k % self.p) for a in range(self.p))

    def coset_char_sum(self, t: GFElement) -> int:
        """Sum of chi over the translate t + GF(p), computed directly."""
        return sum(self.chi(self.element(t.a + a, t.b)) for a in range(self.p))


def make_field(p: int, budget_mb: int | None = None) -> FieldCtx:
    """Build the GF(p^2) context for an odd prime p."""
    return FieldCtx(p, budget_mb=budget_mb)
