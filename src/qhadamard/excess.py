"""Real Hadamard matrices of order 4 + 4p^2 with excess 8p(1 + p^2).

From the skew-regular matrix S = I + Q three block matrices are formed
([[S,iS],[iS,S]], its Q- and I-parts), converted to real weighing
matrices by the order-doubling substitution, and the full one is pushed
to its maximum excess by negating every row with a negative sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .field import FieldCtx
from .qmatrix import MatrixError, QMatrix, block2, realify
from .builder import skew_regular_qhm


def build_triple(s: QMatrix) -> tuple[QMatrix, QMatrix, QMatrix]:
    """([[S,iS],[iS,S]], [[Q,iQ],[iQ,Q]], [[I,iI],[iI,I]]) for S = I + Q."""
    from .verify import check_quaternary_hadamard, check_skew_type, is_regular

    if not (check_quaternary_hadamard(s) and check_skew_type(s)
            and is_regular(s) is not None):
        raise MatrixError("input is not a skew-regular quaternary Hadamard matrix")
    eye = np.eye(s.n, dtype=np.int8)
    q = QMatrix(s.re - eye, s.im)

    def doubled(m: QMatrix) -> QMatrix:
        return block2(m, m.scale(1j), m.scale(1j), m)

    return doubled(s), doubled(q), doubled(QMatrix(eye, np.zeros_like(eye)))


def excess(w: QMatrix) -> int:
    return int(w.re.sum())


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

def maximize_excess_rows(w: QMatrix) -> tuple[QMatrix, ExcessReport]:
    """Negate every row of a real matrix with a negative sum; zero-sum
    rows stay put."""
    sums = w.re.sum(axis=1)
    negate = sums < 0
    flipped = QMatrix(np.where(negate[:, None], -w.re, w.re))
    weight = np.count_nonzero(w.re[0])
    return flipped, ExcessReport(
        order=w.n,
        excess_before=int(sums.sum()),
        excess_after=int(np.abs(sums).sum()),
        rows_negated=np.flatnonzero(negate).tolist(),
        bound_nk=weight_bound(w.n, weight),
    )


def negate_rows(w: QMatrix, rows: list[int]) -> QMatrix:
    out = w.re.copy()
    out[rows] *= -1
    return QMatrix(out)


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

def run_pipeline(ctx: FieldCtx) -> tuple[PipelineReport, QMatrix]:
    """Build W1, W2, W3, negate the W1 rows with negative sums everywhere,
    and report the resulting excesses; returns the maximized Hadamard matrix."""
    s = skew_regular_qhm(ctx)
    q1, q2, q3 = build_triple(s)
    w1, w2, w3 = realify(q1), realify(q2), realify(q3)
    w1_max, report = maximize_excess_rows(w1)
    w2_neg = negate_rows(w2, report.rows_negated)
    w3_neg = negate_rows(w3, report.rows_negated)
    w2_sums = w2_neg.re.sum(axis=1)
    constant = int(w2_sums[0]) if np.all(w2_sums == w2_sums[0]) else None
    pipeline = PipelineReport(
        p=ctx.p,
        order=w1.n,
        w1=report,
        w2_excess=excess(w2_neg),
        w2_bound=weight_bound(w2.n, np.count_nonzero(w2.re[0])) or 0,
        w2_row_sums_constant=constant,
        w2_col_sums=w2_neg.re.sum(axis=0).tolist(),
        w3_total=excess(w3_neg),
    )
    return pipeline, w1_max
