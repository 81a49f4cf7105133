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

from .qmatrix import _exact_dtype

DEFAULT_BUDGET_MB = 1700
_BUDGET_ENV = "MEM_BUDGET_MB"


class FieldError(ValueError):
    """Invalid field parameter (non-prime p, p=2, a recursion level
    k < 0, a malformed budget, or an order over budget, see BudgetError)."""


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


def _check_odd_prime(p: int) -> None:
    if not is_prime(p):
        raise FieldError(f"p must be prime, got {p}")
    if p == 2:
        raise FieldError("p must be odd")


class FieldCtx:
    """GF(p^2): element coordinates and the quadratic character table.

    Element i is a[i] + b[i]*theta and chi(element i) is char_table[i].
    Immutable after construction.  The table takes O(p^2) memory and
    no budget is read here: ``make_field`` guards the matrices a command
    is about to build.
    """

    def __init__(self, p: int):
        _check_odd_prime(p)
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
    """Build the GF(p^2) context for an odd prime p whose matrices of
    order 1 + p^2 fit the memory budget."""
    _check_odd_prime(p)
    if not order_within_budget(1 + p * p, budget_mb):
        raise BudgetError(
            f"p={p} exceeds the memory budget; raise {_BUDGET_ENV} to allow it"
        )
    return FieldCtx(p)


def character_is_even(table: np.ndarray, p: int) -> bool:
    """chi(-x) = chi(x) for every x: the conference matrix is symmetric."""
    t, neg = table.reshape(p, p), -np.arange(p) % p
    return bool(np.array_equal(t[neg][:, neg], t))


def certify_character(table: np.ndarray, p: int) -> bool:
    """Whether the Paley-style conference matrix C of ``table``, a
    character table of GF(p^2) with entries in {-1, 0, 1} in the index
    layout b*p + a, is a symmetric conference matrix: zero diagonal, +-1
    off it, C = C^T and C C^T = qI, q = p^2.

    C has order q + 1, C[0, 0] = 0, a border of ones, and
    C[1+x, 1+y] = chi(x - y); its core is ``builder._core``.  So:
      - the diagonal is zero and the cells off it are +-1 exactly when
        chi(0) = 0 and chi(x) = +-1 for x != 0;
      - C = C^T exactly when chi(-d) = chi(d) for every d;
      - (C C^T)[0, 0] = q, (C C^T)[0, 1+y] = sum_x chi(y - x) = sum chi,
        and (C C^T)[1+x, 1+y] = 1 + sum_z chi(x - z) chi(y - z)
        = 1 + R(y - x) with R(d) = sum_t chi(t) chi(t + d).
    So C C^T = qI exactly when sum chi = 0, R(0) = q - 1 and R(d) = -1
    for d != 0; given the first item R(0) = q - 1 always holds.  The
    four checks are: chi(0) = 0 and +-1 elsewhere, chi symmetric,
    sum chi = 0 and R(d) = -1 for d != 0.

    With T = table viewed as [b, a], R(db, da) is
    sum_a M_db[a, a + da] for M_db = T^T T[b + db, :], one p x p product
    per shift db, O(q^2) in all.  Every partial sum is an integer of
    absolute value at most q, exact in ``_exact_dtype(q)``.
    """
    q = p * p
    if (table[0] != 0 or not (np.abs(table[1:]) == 1).all()
            or not character_is_even(table, p) or table.sum() != 0):
        return False
    ar = np.arange(p)
    t = table.reshape(p, p)
    shift = (ar[:, None] + ar) % p
    t = t.astype(_exact_dtype(q))
    m = t.T @ t[shift]
    r = m[:, ar[:, None], shift].sum(axis=1)
    r[0, 0] = -1  # R(0) = q - 1 is not a condition
    return bool((r == -1).all())
