"""Real Hadamard matrices of order 4N, N = 1 + p^2, with excess 8pN.

S = I + Q gives X_M = [[M, iM], [iM, M]] for M = S, Q, I and the real
weighing matrices W1, W2, W3 = realify(X_M) of order 4N; each W1 row
with a negative sum is negated in all three.  The report follows from
N and S's certified common row sum r = x + iy alone, with no matrix of
order 2N or 4N:

- Rows k and N + k of X_M sum to (1 + i)r_M, r_M the row sum of M, and
  ``realify`` writes a + bi as [[a - b, a + b], [a + b, b - a]], so rows
  2R, 2R + 1 of W_M sum to 2(x_M - y_M), 2(x_M + y_M) for every R.  Q has
  the row sum r - 1, and I has 1.  The row signs E are -1 where W1 sums
  below 0, else +1: alpha at every even row and beta at every odd one.
- Column k of X_Q holds a + bi = Q[l, k] at row l and -b + ai at row
  N + l, so column 2k of E W2 sums to
  sum_l alpha(a - b) + beta(a + b) - alpha(a + b) + beta(a - b)
  = 2(beta c_re - alpha c_im), and column 2k + 1 to
  2(alpha c_re + beta c_im), for c_re + i c_im the k-th column sum of Q;
  column N + k of X_Q repeats them at columns 2N + 2k, 2N + 2k + 1.  S is
  skew, S_re + S_re^T = 2I and S_im = S_im^T, so column k of S_re sums
  to 2 - x and column k of S_im to y, and c_re + i c_im = (1 - x) + iy.
- A unit a + bi has a - b and a + b nonzero, so a row of W_M has 4 cells
  for each nonzero cell of a row of M: 4N in W1 and 4N - 4 in W2, as S
  is Hadamard and Q has S's cells off the diagonal.
- E W1 has Gram 4N I iff X_S X_S* = 2N I iff S S* = N I (the lemmas of
  ``qmatrix._realified_planes`` and ``verify``), which leaves no zero
  cell in S or E W1, so the report on S (``verify.full_report``)
  certifies it.  Skewness makes Q quaternary, and regularity fixes the
  excess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import FieldCtx
from .qmatrix import MatrixError
from .builder import skew_regular_qhm
from .verify import full_report


def weight_bound(n: int, w: int) -> int | None:
    """n*k upper bound on the excess of a W(n, k^2); None if w is not a square."""
    k = math.isqrt(w)
    return n * k if k * k == w else None


@dataclass
class ExcessReport:
    order: int
    excess_before: int
    excess_after: int
    rows_negated: list[int]
    bound_nk: int | None


@dataclass
class PipelineReport:
    """Outcome of the full construction for one prime."""

    p: int
    order: int
    w1: ExcessReport
    w2_excess: int
    w2_bound: int
    w2_row_sums_constant: int | None
    w2_col_sums: list[int]
    w3_total: int


def run_pipeline(ctx: FieldCtx) -> PipelineReport:
    """Certify S and report on E W1, E W2 and E W3 from S's order and row
    sum; raises MatrixError if S is not a skew-regular quaternary
    Hadamard matrix."""
    s = skew_regular_qhm(ctx)
    report = full_report(s)
    if not (report.hadamard and report.skew and report.regular is not None):
        raise MatrixError("input is not a skew-regular quaternary Hadamard matrix")
    n, x, y = s.n, int(report.regular.real), int(report.regular.imag)
    order = 4 * n
    w1 = np.tile([2 * (x - y), 2 * (x + y)], 2 * n)
    e = np.where(w1 < 0, -1, 1)
    alpha, beta = e[:2].tolist()
    w2 = e * np.tile([2 * (x - 1 - y), 2 * (x - 1 + y)], 2 * n)
    col = [2 * (beta * (1 - x) - alpha * y), 2 * (alpha * (1 - x) + beta * y)]
    return PipelineReport(
        p=ctx.p,
        order=order,
        w1=ExcessReport(order, int(w1.sum()), int(np.abs(w1).sum()),
                        np.flatnonzero(w1 < 0).tolist(), weight_bound(order, order)),
        w2_excess=int(w2.sum()),
        w2_bound=weight_bound(order, order - 4),
        w2_row_sums_constant=int(w2[0]) if (w2 == w2[0]).all() else None,
        w2_col_sums=col * (2 * n),
        w3_total=int(2 * e.sum()),
    )
