import numpy as np
import pytest

from qhadamard import (
    CODMatrix,
    certify_gram,
    check_quaternary_hadamard,
    check_skew_type,
    cod_base,
    cod_recurse,
    expected_row_sum,
    row_sums,
)
from qhadamard.cod import _parts_at, gram_at
from qhadamard.qmatrix import _gram_is_scalar
from conftest import field, skew_regular

# The three points of certify_gram and one with |entry|^2 = 9.
EVAL_POINTS = ((1, 0), (0, 1), (1, 1), (2, 3))


def test_cod_base_examples():
    d = cod_base(field(3))
    assert d.n == 10 and d.stype == (1, 9)
    assert d.evaluate_qmatrix(1, 1) == skew_regular(3)
    assert np.array_equal(d.evaluate(1, 0), np.eye(10))
    assert np.array_equal(gram_at(d, 2, 3), 85 * np.eye(10))


def test_cod_base_row_sum_schedule():
    # evaluated at (a, b) the constant row sum is a - p*b*i
    d = cod_base(field(3))
    for a, b in EVAL_POINTS:
        sums = set(d.evaluate(a, b).sum(axis=1))
        assert sums == {complex(a, -3 * b)}


def test_cod_recurse_k0_is_base():
    ctx = field(3)
    d0 = cod_recurse(ctx, 0)
    base = cod_base(ctx)
    assert np.array_equal(d0.acoef, base.acoef)
    assert np.array_equal(d0.bcoef, base.bcoef)


def test_cod_recurse_rejects_negative_k():
    with pytest.raises(ValueError):
        cod_recurse(field(3), -1)


@pytest.mark.parametrize(
    "p,k,order", [(3, 0, 10), (3, 1, 90), (3, 2, 810), (5, 0, 26), (5, 1, 650)]
)
def test_cod_recurse_type_and_gram(p, k, order):
    d = cod_recurse(field(p), k)
    assert d.n == order
    assert d.stype == (p ** (2 * k), p ** (2 * k + 2))
    assert certify_gram(d)


def test_cod_recurse_gram_example():
    d = cod_recurse(field(3), 1)
    assert np.array_equal(gram_at(d, 1, 2), 333 * np.eye(90))


@pytest.mark.parametrize("p,k", [(3, 0), (3, 1), (5, 0), (5, 1)])
def test_evaluated_designs_are_regular_hadamard(p, k):
    m = cod_recurse(field(p), k).evaluate_qmatrix(1, 1)
    assert check_quaternary_hadamard(m)
    assert set(row_sums(m)) == {expected_row_sum(p, k + 1)}


def test_recursed_matrices_not_asserted_skew():
    # order-90 matrix is not skew-type, and must not be required to be
    m = cod_recurse(field(3), 1).evaluate_qmatrix(1, 1)
    assert not check_skew_type(m)


def test_expected_row_sum_schedule():
    assert expected_row_sum(3, 1) == 1 - 3j
    assert expected_row_sum(3, 2) == 9 - 3j
    assert expected_row_sum(3, 3) == 9 - 27j
    assert expected_row_sum(3, 4) == 81 - 27j
    assert expected_row_sum(5, 2) == 25 - 5j
    with pytest.raises(ValueError):
        expected_row_sum(3, 0)


@pytest.mark.parametrize("p,level", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
def test_row_sum_norm_matches_order(p, level):
    s = expected_row_sum(p, level)
    order = p ** (2 * (level - 1)) * (1 + p * p)
    assert s.real**2 + s.imag**2 == order


def test_certify_gram_needs_the_cross_term_point():
    # X = aI + b(iQ): both squares are scalar, but the cross term
    # I(iQ)* + (iQ)I* = 2iQ is not zero, which only (1, 1) sees.
    d = cod_base(field(3))
    x = CODMatrix(d.acoef, 1j * d.bcoef)
    s1, s2 = x.stype
    verdicts = [_gram_is_scalar(*_parts_at(x, a, b), s1 * a * a + s2 * b * b)
                for a, b in ((1, 0), (0, 1), (1, 1))]
    assert verdicts == [True, True, False]
    assert not certify_gram(x)
