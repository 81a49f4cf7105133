import json
from collections import Counter

import numpy as np
import pytest

from qhadamard import (
    QMatrix,
    check_quaternary_hadamard,
    check_skew_type,
    diag_similarity,
    double,
    full_report,
    realify,
)
from qhadamard import matio
from conftest import field, skew_regular, FIXTURES
from reference import (
    build_triple,
    check_semi_regular,
    is_absolutely_regular,
    maximize_excess_rows,
    negate_rows,
    qmatrix,
    row_sums,
    semi_regular_witness,
    skew_type,
)


def eye(n):
    return qmatrix(np.eye(n, dtype=complex))


def test_check_quaternary_hadamard_examples():
    assert check_quaternary_hadamard(qmatrix([[1 + 0j, 1], [1, -1]]))
    assert not check_quaternary_hadamard(qmatrix(np.ones((2, 2), dtype=complex)))
    bh = matio.parse((FIXTURES / "appendixB_H.qhm").read_text())
    assert check_quaternary_hadamard(bh)


def test_check_skew_type_examples():
    assert check_skew_type(eye(3)) and check_skew_type(QMatrix(np.eye(3)))
    assert not check_skew_type(qmatrix(np.ones((2, 2), dtype=complex)))
    assert check_skew_type(skew_regular(5))
    assert check_skew_type(qmatrix([[1, 1j], [1j, 1]]))
    assert not check_skew_type(qmatrix([[1, 1j], [-1j, 1]]))
    assert check_skew_type(QMatrix([[1, 1], [-1, 1]]))
    assert not check_skew_type(QMatrix([[1, 1], [1, 1]]))
    assert not check_skew_type(QMatrix([[1, 0], [0, -1]]))


def test_check_semi_regular_examples():
    assert check_semi_regular(double(skew_regular(3)), 4, 2)
    assert check_semi_regular(skew_regular(3), 1, 3)
    assert not check_semi_regular(eye(2), 1, 1)
    with pytest.raises(ValueError):
        check_semi_regular(eye(3), 1, 1)


@pytest.mark.parametrize("make", [
    lambda: skew_regular(3),
    lambda: skew_regular(5),
    lambda: double(skew_regular(3)),
    lambda: matio.parse((FIXTURES / "appendixB_DHD.qhm").read_text()),
    lambda: realify(skew_regular(3)),
    lambda: _corrupted(skew_regular(3)),
    lambda: negate_rows(realify(build_triple(skew_regular(3))[2]), [0, 3]),
    lambda: eye(2),
], ids=["S3", "S5", "D3", "DHD", "R3", "S3-corrupted", "W3", "I2"])
def test_report_row_sum_fields_match_reference(make):
    # The report derives these from one pair of int64 row-sum vectors.
    m = make()
    report = full_report(m)
    sums = row_sums(m)
    assert report.row_sum_multiset == dict(Counter(sums))
    assert report.regular == (sums[0] if len(set(sums)) == 1 else None)
    assert (report.abs_regular, report.abs_value_sq) == is_absolutely_regular(m)
    assert report.semi_regular_witness == (semi_regular_witness(m) if report.hadamard else None)


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
    re = m.re.copy()
    re[1, 2] = -re[1, 2]
    if m.im is None:
        return QMatrix(re)
    im = m.im.copy()
    im[1, 2] = -im[1, 2]
    return QMatrix(re, im)


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
    w = QMatrix([[1, 1], [1, -1]])
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


def _random_skew(n, rng, real):
    """A random M = I + Q with Q* = -Q: a unit diagonal and, above it,
    cells in the alphabet mirrored as -conj below."""
    values = np.array([0, 1, -1] if real else [0, 1, -1, 1j, -1j])
    upper = np.triu(values[rng.integers(0, len(values), (n, n))], 1)
    m = np.eye(n) + upper - upper.conj().T
    return QMatrix(m) if real else qmatrix(m)


def _with_cell(m, r, c, value):
    re, im = m.re.copy(), None if m.im is None else m.im.copy()
    re[r, c] = value.real
    if im is not None:
        im[r, c] = value.imag
    return QMatrix(re, im)


@pytest.mark.parametrize("n", (127, 128, 129, 257))
@pytest.mark.parametrize("real", (False, True))
def test_skew_type_panels_match_one_shot_formula(n, real):
    rng = np.random.default_rng(n)
    m = _random_skew(n, rng, real)
    assert check_skew_type(m) and skew_type(m)
    # Cells above, below and on the diagonal, at and beside the edges of
    # the 128-row panels, and at random.
    edges = sorted({0, 1, 126, 127, 128, 129, n - 2, n - 1} & set(range(n)))
    cells = [(r, c) for r in edges for c in edges]
    cells += [tuple(rng.integers(0, n, 2)) for _ in range(20)]
    values = (1, -1, 0) if real else (1, -1, 1j, -1j, 0)
    for r, c in cells:
        old = complex(m.re[r, c], 0 if m.im is None else m.im[r, c])
        for value in values:
            if value != old:
                bad = _with_cell(m, r, c, complex(value))
                assert (check_skew_type(bad), skew_type(bad)) == (False, False), (r, c, value)
