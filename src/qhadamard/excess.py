"""Real Hadamard matrices of order 4N, N = 1 + p^2, with excess 8pN.

S = I + Q gives X_M = [[M, iM], [iM, M]] for M = S, Q, I and the real
weighing matrices W1, W2, W3 = realify(X_M) of order 4N; each W1 row
with a negative sum is negated in all three.  The report follows from
S's planes in O(N^2), with no matrix of order 2N or 4N:

- Rows r and N + r of X_M sum to (1 + i)(x_r + y_r i), x_r + y_r i the
  r-th row sum of M, and ``realify`` writes a + bi as
  [[a - b, a + b], [a + b, b - a]], so rows 2R, 2R + 1 of W_M sum to
  2(x_r - y_r), 2(x_r + y_r) for R = r and R = N + r.  Q has S's row
  sums less 1, and I has 1.  The row signs E are -1 where W1 sums below
  0, else +1, and so agree at rows 2r + j and 2(N + r) + j.
- Column k of X_Q holds a + bi = Q[r, k] at row r and -b + ai at row
  N + r.  With E = alpha_r, beta_r at rows 2r, 2r + 1, column 2k of E W2
  sums to sum_r alpha(a - b) + beta(a + b) - alpha(a + b) + beta(a - b)
  = 2(beta.Q_re - alpha.Q_im)[k], and column 2k + 1 likewise to
  2(alpha.Q_re + beta.Q_im)[k]; column N + k of X_Q repeats them at
  columns 2N + 2k, 2N + 2k + 1.  Q_re = S_re - I and Q_im = S_im, so
  these are four signed vector-plane products on S.  Every partial sum
  of one is an integer sum of at most N terms in {-1, 0, 1}, exact in
  ``_exact_dtype(N, 1)``.
- A unit a + bi has a - b and a + b nonzero, so row 0 of W_M has
  4 nnz(M row 0) nonzero cells; skewness puts 1 on S's diagonal.
- E W1 has Gram 4N I iff X_S X_S* = 2N I (``qmatrix._realified_gram``)
  iff S S* = N I (``qmatrix._doubled_gram``), which leaves no zero cell
  in S or E W1, so the report's recognition of S (``verify._recognise``)
  certifies it.  Skewness makes Q quaternary, and regularity fixes the
  excess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .field import FieldCtx
from .qmatrix import _PANEL_CAP, MatrixError, _exact_dtype
from .builder import skew_regular_qhm
from .verify import _common_sum, _recognise, check_skew_type


def weight_bound(n: int, w: int) -> int | None:
    """n*k upper bound on the excess of a W(n, k^2); None if w is not a square."""
    k = math.isqrt(w)
    return n * k if k * k == w else None


@dataclass
class ExcessReport:
    order: int
    excess_before: int
    excess_after: int
    rows_negated: list[int] = field(default_factory=list)
    bound_nk: int | None = None


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


def _signed_sums(signs: np.ndarray, plane: np.ndarray) -> np.ndarray:
    """signs @ plane, exactly, casting ``_PANEL_CAP`` rows of the plane at a time."""
    dtype = _exact_dtype(plane.shape[0], 1)
    out = np.zeros((signs.shape[0], plane.shape[1]), dtype)
    for r0 in range(0, plane.shape[0], _PANEL_CAP):
        rows = slice(r0, r0 + _PANEL_CAP)
        out += signs[:, rows].astype(dtype) @ plane[rows].astype(dtype)
    return out.astype(np.int64)


def _twice(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """(even[0], odd[0], even[1], odd[1], ...) written twice over."""
    return np.tile(np.stack([even, odd], axis=1).ravel(), 2)


def run_pipeline(ctx: FieldCtx) -> PipelineReport:
    """Certify S and report on E W1, E W2 and E W3 from S's planes; raises
    MatrixError if S is not a skew-regular quaternary Hadamard matrix."""
    s = skew_regular_qhm(ctx)
    hadamard, skew, x, y = _recognise(s.re, s.im)
    if not (hadamard and (check_skew_type(s) if skew is None else skew)
            and _common_sum(x, y) is not None):
        raise MatrixError("input is not a skew-regular quaternary Hadamard matrix")
    order = 4 * s.n
    w1 = _twice(2 * (x - y), 2 * (x + y))
    e = np.where(w1 < 0, -1, 1)
    w2 = e * _twice(2 * (x - 1 - y), 2 * (x - 1 + y))
    alpha, beta = signs = np.stack([e[0:2 * s.n:2], e[1:2 * s.n:2]])
    (a_re, b_re), (a_im, b_im) = _signed_sums(signs, s.re), _signed_sums(signs, s.im)
    weight = 4 * np.count_nonzero(s.re[0] | s.im[0])
    return PipelineReport(
        p=ctx.p,
        order=order,
        w1=ExcessReport(order, int(w1.sum()), int(np.abs(w1).sum()),
                        np.flatnonzero(w1 < 0).tolist(), weight_bound(order, weight)),
        w2_excess=int(w2.sum()),
        w2_bound=weight_bound(order, weight - 4) or 0,
        w2_row_sums_constant=int(w2[0]) if (w2 == w2[0]).all() else None,
        w2_col_sums=_twice(2 * (b_re - beta - a_im), 2 * (a_re - alpha + b_im)).tolist(),
        w3_total=int(2 * e.sum()),
    )
