"""The quadratic character of GF(p^2) as a table.

Elements are a + b*theta with theta^2 = n, n the smallest quadratic
nonresidue mod p.  The element index b*p + a fixes the row/column
ordering used by every matrix construction, and makes each additive
coset {a + k*theta : a in GF(p)} the contiguous block [k*p, (k+1)*p) of
indices.

Every construction at p rests on one table and the conference matrix it
defines, so a process builds the field of each prime once: ``context(p)``
keeps the ``FieldCtx`` of the last ``_FIELDS`` primes it was asked for,
and each context computes its core view (``_core``), its certificate
(``certify_character``) and its evenness (``character_is_even``) on
first use and keeps them.  ``make_field`` checks the memory budget on
every call and then returns the cached context; ``builder`` reads the
same one for the order of a matrix it recognises.  The three functions
stay pure functions of a table, which a context only caches.
"""

from __future__ import annotations

import math
import os
from functools import cached_property, lru_cache

import numpy as np

from .qmatrix import _exact_dtype

DEFAULT_BUDGET_MB = 1700
_BUDGET_ENV = "MEM_BUDGET_MB"
# The primes whose contexts a process keeps, least recently used out;
# a context holds 2p^3 + O(p^2) bytes, 2 MB at p = 101.
_FIELDS = 16


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


def max_order(budget_mb: int | None = None) -> int:
    """The largest order whose dense complex128 matrices fit the budget:
    16 n^2 <= budget_mb * 2^20 exactly when n <= isqrt(budget_mb * 2^16)."""
    if budget_mb is None:
        budget_mb = memory_budget_mb()
    return math.isqrt(budget_mb * 2**16)


def _check_odd_prime(p: int) -> None:
    if not is_prime(p):
        raise FieldError(f"p must be prime, got {p}")
    if p == 2:
        raise FieldError("p must be odd")


class FieldCtx:
    """GF(p^2): the quadratic character table.

    Element i = b*p + a is a + b*theta and chi(element i) is char_table[i].
    Immutable: assignment is refused and the table is read-only, so
    one context can serve every caller at p (``context``).  The table
    takes O(p^2) memory and no budget is read here: ``make_field``
    guards the matrices a command is about to build.  ``core``,
    ``certified`` and ``even`` are computed from this context's table on
    first use and kept with it.
    """

    def __init__(self, p: int):
        _check_odd_prime(p)
        q = p * p
        nonresidue = smallest_nonresidue(p)
        idx = np.arange(q)
        a, b = idx % p, idx // p
        # chi(x) = +1 iff x is the square of some nonzero element; for
        # x = a + b*theta, x^2 = (a^2 + n b^2) + 2ab*theta.
        table = np.full(q, -1, dtype=np.int8)
        table[(2 * a * b % p) * p + (a * a + nonresidue * b * b) % p] = 1
        table[0] = 0
        table.setflags(write=False)
        self.__dict__.update(p=p, q=q, nonresidue=nonresidue, char_table=table)

    def __setattr__(self, name, value):
        raise AttributeError("FieldCtx is immutable")

    @cached_property
    def core(self) -> np.ndarray:
        """The core view of the conference matrix, ``_core(self)``."""
        return _core(self)

    @cached_property
    def certified(self) -> bool:
        """``certify_character`` of the table: the conference matrix is a
        symmetric conference matrix."""
        return certify_character(self.char_table, self.p)

    @cached_property
    def even(self) -> bool:
        """``character_is_even`` of the table.  A certified table is even,
        and the certificate tests evenness first, so one evenness test
        serves both facts of a valid table."""
        return self.certified or character_is_even(self.char_table, self.p)


@lru_cache(maxsize=_FIELDS, typed=True)
def context(p: int) -> FieldCtx:
    """The process's GF(p^2) context for the odd prime p, built once while
    it is among the last ``_FIELDS`` primes asked for; no budget is read."""
    return FieldCtx(p)


def make_field(p: int, budget_mb: int | None = None) -> FieldCtx:
    """The GF(p^2) context (``context``) for an odd prime p whose matrices
    of order 1 + p^2 fit the memory budget, checked on every call."""
    _check_odd_prime(p)
    if 1 + p * p > max_order(budget_mb):
        raise BudgetError(
            f"p={p} exceeds the memory budget; raise {_BUDGET_ENV} to allow it"
        )
    return context(p)


def _core(ctx) -> np.ndarray:
    """The core K[(b1, a1), (b2, a2)] = chi(b1 - b2, a1 - a2) of the
    conference matrix of ``ctx.char_table``, as a read-only (p, p, q)
    view K[b1, a1, (b2, a2)] whose rows are contiguous runs of q cells.

    For x = b*p + a the table ``char_table.reshape(p, p)`` is indexed
    [b, a].  The view lies over the (p, 2p, p) table
    L[a1, j, a2] = chi(p - j, a1 - a2) (mod p) of 2p^3 bytes: row
    (b1, a1) of K is the run of q cells of L[a1] from L[a1, p - b1, 0],
    since L[a1, p - b1 + b2, a2] = chi(b1 - b2, a1 - a2) and p - b1 + b2
    stays in 1..2p - 1.  L is one strided copy of the 2p x (2p - 1) table
    W[j, m] = chi(p - j, p - 1 - m), as L[a1, j, a2] = W[j, p - 1 - a1 + a2].
    """
    p = ctx.p
    i = (p - np.arange(2 * p)) % p
    w = ctx.char_table.reshape(p, p)[i[:, None], i[1:]]
    # Strided views of a buffer, which numpy checks against its bounds.
    s_j, s_m = w.strides
    lt = np.ndarray((p, 2 * p, p), w.dtype, w, (p - 1) * s_m, (-s_m, s_j, s_m)).copy()
    s_a1, s_j, s_a2 = lt.strides
    core = np.ndarray((p, p, p * p), lt.dtype, lt, p * s_j, (-s_j, s_a1, s_a2))
    core.flags.writeable = False
    return core


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
    C[1+x, 1+y] = chi(x - y); its core is ``_core``.  So:
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
    per shift db, O(q^2) in all, taken one shift at a time so that no
    temporary exceeds p x p.  Every partial sum is an integer of
    absolute value at most q, exact in ``_exact_dtype(q)``.
    """
    q = p * p
    if (table[0] != 0 or not (np.abs(table[1:]) == 1).all()
            or not character_is_even(table, p) or table.sum() != 0):
        return False
    ar = np.arange(p)
    shift = (ar[:, None] + ar) % p
    t = table.reshape(p, p).astype(_exact_dtype(q))
    for db in range(p):
        r = (t.T @ t[shift[db]])[ar[:, None], shift].sum(axis=0)
        if db == 0:
            r[0] = -1  # R(0) = q - 1 is not a condition
        if (r != -1).any():
            return False
    return True
