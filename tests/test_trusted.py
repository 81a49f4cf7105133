"""Internal results skip validation; check that each one would pass it.

Every matrix the package builds from validated operands is wrapped
without a check or a copy.  Each such result must hold the leaf's dtype,
be read-only, and equal its own revalidated copy.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhadamard import (
    CODMatrix,
    MatrixError,
    QMatrix,
    SignMatrix,
    block2,
    build_triple,
    cod_base,
    cod_recurse,
    conference_matrix,
    conj_transpose,
    diag_similarity,
    maximize_excess_rows,
    paley_qhm,
    parse,
    realify,
    serialize,
    skew_core,
)
from qhadamard.excess import negate_rows
from qhadamard.qmatrix import PHASES, QALPHABET
from conftest import field, skew_regular


def assert_revalidates(m):
    assert m.data.dtype == type(m)._dtype
    assert not m.data.flags.writeable
    assert type(m)(m.data) == m


def qmatrices(max_n=6):
    return st.integers(1, max_n).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from(QALPHABET), min_size=n, max_size=n),
        min_size=n, max_size=n).map(QMatrix))


@settings(max_examples=120)
@given(qmatrices(), st.sampled_from(PHASES), st.data())
def test_matrix_operations(m, phase, data):
    v = np.array(data.draw(st.lists(st.sampled_from(PHASES), min_size=m.n, max_size=m.n)))
    w = realify(m)
    for result in (
        conj_transpose(m),
        m.scale(phase),
        diag_similarity(m, v),
        block2(m, conj_transpose(m), m.scale(phase), QMatrix(np.zeros((m.n, m.n)))),
        QMatrix.identity(m.n),
        w,
        parse(serialize(m)),
        parse(serialize(w)),
    ):
        assert_revalidates(result)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((3, 5)), st.data())
def test_constructions(p, data):
    ctx = field(p)
    s = skew_regular(p)
    v = np.array(data.draw(st.lists(st.sampled_from(PHASES), min_size=s.n, max_size=s.n)))
    triple = build_triple(s)
    w, _ = maximize_excess_rows(realify(triple[0]))
    rows = data.draw(st.lists(st.integers(0, w.n - 1), max_size=8, unique=True))
    for result in (
        conference_matrix(ctx),
        paley_qhm(ctx),
        skew_core(diag_similarity(s, v)),
        *triple,
        w,
        negate_rows(w, rows),
    ):
        assert_revalidates(result)


@pytest.mark.parametrize("p, k", [(3, 0), (3, 1), (5, 0)])
def test_cod_designs(p, k):
    for d in (cod_base(field(p)), cod_recurse(field(p), k)):
        assert not (d.acoef.flags.writeable or d.bcoef.flags.writeable)
        CODMatrix(d.acoef, d.bcoef)


@pytest.mark.parametrize("p, k", [(3, 0), (3, 1)])
def test_evaluate_qmatrix_at_units(p, k):
    d = cod_recurse(field(p), k)
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            m = d.evaluate_qmatrix(a, b)
            assert m.data.dtype == np.complex128
            assert not m.data.flags.writeable
            assert m == QMatrix(a * d.acoef + b * d.bcoef)


def test_evaluate_qmatrix_still_validates():
    # Points off {-1, 0, 1}^2 leave the alphabet and are refused.
    d = cod_base(field(3))
    for a, b in ((2, 0), (0, 2), (1, -2), (2, 3)):
        with pytest.raises(MatrixError):
            d.evaluate_qmatrix(a, b)


def test_add_still_validates():
    # A sum of two matrices is formed on their data and goes back
    # through the validating constructor, which refuses it when the
    # supports overlap.
    m = QMatrix.identity(2)
    with pytest.raises(MatrixError):
        QMatrix(m.data + m.data)
    with pytest.raises(MatrixError):
        SignMatrix(SignMatrix([[1]]).data + SignMatrix([[1]]).data)
    other = QMatrix([[0, 1j], [-1, 0]])
    assert QMatrix(m.data + other.data) == QMatrix([[1, 1j], [-1, 1]])
