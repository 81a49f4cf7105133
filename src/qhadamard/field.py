"""The quadratic character of GF(p^2) as a table.

Elements are a + b*theta with theta^2 = n, n the smallest quadratic
nonresidue mod p.  The element index b*p + a fixes the row/column
ordering used by every matrix construction, and makes each additive
coset {a + k*theta : a in GF(p)} the contiguous block [k*p, (k+1)*p) of
indices.
"""

from __future__ import annotations

import os

import numpy as np

DEFAULT_BUDGET_MB = 1700
_BUDGET_ENV = "MEM_BUDGET_MB"


class FieldError(ValueError):
    """Invalid field parameter (non-prime p, p=2, a malformed budget, or
    an order over budget, see BudgetError)."""


class BudgetError(FieldError):
    """A requested order does not fit the memory budget."""


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
    """GF(p^2): element coordinates and the quadratic character table.

    Element i is a[i] + b[i]*theta and chi(element i) is char_table[i].
    Immutable after construction.
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
        idx = np.arange(self.q)
        self.a, self.b = idx % p, idx // p
        self.char_table = self._build_char_table()
        for arr in (self.a, self.b, self.char_table):
            arr.setflags(write=False)

    def _build_char_table(self) -> np.ndarray:
        # chi(x) = +1 iff x is the square of some nonzero element; for
        # x = a + b*theta, x^2 = (a^2 + n b^2) + 2ab*theta.
        a, b, p = self.a, self.b, self.p
        table = np.full(self.q, -1, dtype=np.int8)
        table[(2 * a * b % p) * p + (a * a + self.nonresidue * b * b) % p] = 1
        table[0] = 0
        return table


def make_field(p: int, budget_mb: int | None = None) -> FieldCtx:
    """Build the GF(p^2) context for an odd prime p."""
    return FieldCtx(p, budget_mb=budget_mb)
