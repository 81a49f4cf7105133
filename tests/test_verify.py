import json
from collections import Counter

import numpy as np
import pytest

from qhadamard import (
    QMatrix,
    SignMatrix,
    check_quaternary_hadamard,
    check_semi_regular,
    check_skew_type,
    diag_similarity,
    double,
    full_report,
    realify,
)
from qhadamard import matio
from qhadamard.excess import build_triple, maximize_excess_rows, negate_rows
from conftest import field, skew_regular, FIXTURES


def test_check_quaternary_hadamard_examples():
    assert check_quaternary_hadamard(QMatrix([[1, 1], [1, -1]]))
    assert not check_quaternary_hadamard(QMatrix(np.ones((2, 2))))
    bh = matio.parse((FIXTURES / "appendixB_H.qhm").read_text())
    assert check_quaternary_hadamard(bh)


def test_check_skew_type_examples():
    assert check_skew_type(QMatrix.identity(3))
    assert not check_skew_type(QMatrix(np.ones((2, 2))))
    assert check_skew_type(skew_regular(5))


def test_check_semi_regular_examples():
    assert check_semi_regular(double(skew_regular(3)), 4, 2)
    assert check_semi_regular(skew_regular(3), 1, 3)
    assert not check_semi_regular(QMatrix.identity(2), 1, 1)
    with pytest.raises(ValueError):
        check_semi_regular(QMatrix.identity(3), 1, 1)


def test_full_report_p7():
    report = full_report(skew_regular(7))
    assert report.regular == 1 - 7j
    assert report.skew and report.hadamard
    assert report.abs_value_sq == 50


def test_full_report_appendix_b_twisted():
    report = full_report(matio.parse((FIXTURES / "appendixB_DHD.qhm").read_text()))
    assert report.hadamard
    assert report.abs_regular and report.abs_value_sq == 50
    assert report.regular is None
    assert report.semi_regular_witness == (5, 5)


def test_full_report_w3_zero_total():
    q1, _, q3 = build_triple(skew_regular(3))
    _, rep = maximize_excess_rows(realify(q1))
    w3 = negate_rows(realify(q3), rep.rows_negated)
    report = full_report(w3)
    assert report.excess == 0


def test_full_report_is_pure():
    s = skew_regular(3)
    assert full_report(s).to_json() == full_report(s).to_json()


def test_report_json_schema():
    payload = full_report(skew_regular(3)).to_json()
    json.dumps(payload)
    assert payload["order"] == 10
    assert payload["regular"] == [1, -3]
    assert payload["row_sums"] == [[1, -3, 10]]
    assert payload["hadamard"] and payload["skew"]


def _corrupted(m):
    data = np.array(m.data)
    data[1, 2] = -data[1, 2]
    return type(m)(data)


@pytest.mark.parametrize("make, hadamard", [
    (lambda: skew_regular(3), True),
    (lambda: _corrupted(skew_regular(3)), False),
    (lambda: realify(skew_regular(3)), True),
    (lambda: _corrupted(realify(skew_regular(3))), False),
], ids=["qhm", "qhm-rejected", "rhm", "rhm-rejected"])
def test_report_json_serializes_with_bool_verdicts(make, hadamard):
    payload = full_report(make()).to_json()
    json.dumps(payload)
    for key in ("hadamard", "skew", "abs_regular"):
        assert type(payload[key]) is bool, key
    assert payload["hadamard"] is hadamard


def test_sign_matrix_report():
    w = SignMatrix([[1, 1], [1, -1]])
    report = full_report(w)
    assert report.hadamard
    assert report.excess == 2


def test_skew_verdict_preserved_by_similarity():
    s = skew_regular(3)
    rng = np.random.default_rng(7)
    phases = np.array([1, 1j, -1, -1j])
    for _ in range(20):
        v = phases[rng.integers(0, 4, size=10)]
        t = diag_similarity(s, v)
        assert check_skew_type(t)
        assert check_quaternary_hadamard(t)


def test_regular_hadamard_norm_consistency():
    # a regular verdict on a Hadamard matrix must satisfy |sum|^2 = order
    report = full_report(skew_regular(5))
    assert report.abs_value_sq == 26 == report.order
