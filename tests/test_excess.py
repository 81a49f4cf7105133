from collections import Counter

import numpy as np
import pytest

from qhadamard import (
    MatrixError,
    QMatrix,
    build_triple,
    gram_is_scalar,
    maximize_excess_rows,
    realify,
    run_pipeline,
)
from qhadamard.excess import excess, negate_rows
from qhadamard.qmatrix import sign_gram_is_scalar
from qhadamard.verify import check_real_hadamard
from conftest import field, skew_regular
from reference import equal, qmatrix


def test_build_triple_order_one():
    q1, q2, q3 = build_triple(qmatrix([[1 + 0j]]))
    assert equal(q3, qmatrix([[1, 1j], [1j, 1]]))
    assert equal(q1, q3)
    assert equal(q2, qmatrix(np.zeros((2, 2), dtype=complex)))


def test_build_triple_p3():
    s = skew_regular(3)
    q1, q2, q3 = build_triple(s)
    assert q1.n == 20
    assert gram_is_scalar(q1, 20)
    assert np.array_equal(q2.data @ q2.data.conj().T, 18 * np.eye(20))
    assert equal(qmatrix(q2.data + q3.data), q1)


def test_build_triple_rejects_non_skew_regular():
    with pytest.raises(MatrixError):
        build_triple(qmatrix(np.eye(4, dtype=complex)))


def test_excess_examples():
    assert excess(QMatrix(np.eye(4, dtype=int))) == 4
    assert excess(QMatrix(np.ones((2, 2), dtype=int))) == 4


def test_w1_row_sum_multiset_before_negation():
    for p in (3, 5, 7):
        q1, _, _ = build_triple(skew_regular(p))
        w1 = realify(q1)
        sums = Counter(int(s) for s in w1.re.sum(axis=1))
        assert sums == {2 + 2 * p: 2 + 2 * p * p, 2 - 2 * p: 2 + 2 * p * p}


def test_w1_excess_before_negation_p3():
    q1, _, _ = build_triple(skew_regular(3))
    assert excess(realify(q1)) == 20 * 8 + 20 * (-4)


def test_maximize_excess_identity_unchanged():
    eye = QMatrix(np.eye(4, dtype=int))
    flipped, report = maximize_excess_rows(eye)
    assert equal(flipped, eye)
    assert report.rows_negated == []
    assert report.excess_after == 4


def test_maximize_excess_zero_rows_unneagted():
    w = QMatrix([[1, -1], [-1, -1]])
    flipped, report = maximize_excess_rows(w)
    assert equal(flipped, QMatrix([[1, -1], [1, 1]]))
    assert report.rows_negated == [1]
    assert report.excess_before == -2 and report.excess_after == 2


@pytest.mark.parametrize("p", (3, 5, 7))
def test_pipeline_certifications(p):
    s = skew_regular(p)
    q1, q2, q3 = build_triple(s)
    w1, w2, w3 = realify(q1), realify(q2), realify(q3)
    n = 4 + 4 * p * p
    # W(n, weight): the Gram diagonal is the row weight.
    for w, weight in ((w1, n), (w2, 4 * p * p), (w3, 4)):
        assert w.n == n and sign_gram_is_scalar(w, weight)
    assert np.array_equal(w1.re, w2.re + w3.re)
    assert ((w2.re != 0) & (w3.re != 0)).sum() == 0

    w1_max, report = maximize_excess_rows(w1)
    assert report.excess_after == 8 * p * (1 + p * p)
    assert report.excess_after == int(np.abs(w1.re.sum(axis=1)).sum())
    assert check_real_hadamard(w1_max)

    w2_neg = negate_rows(w2, report.rows_negated)
    assert set(w2_neg.re.sum(axis=1)) == {2 * p}
    assert excess(w2_neg) == 2 * p * n
    assert excess(negate_rows(w3, report.rows_negated)) == 0


def test_pipeline_report_p3():
    report, w1 = run_pipeline(field(3))
    assert report.order == 40
    assert report.w1.excess_after == 240
    assert report.w2_excess == 240 == report.w2_bound
    assert report.w2_row_sums_constant == 6
    assert set(report.w2_col_sums) == {6}
    assert report.w3_total == 0
    assert check_real_hadamard(w1)


def test_pipeline_excess_values():
    assert run_pipeline(field(5))[0].w1.excess_after == 1040
    assert run_pipeline(field(7))[0].w1.excess_after == 2800
