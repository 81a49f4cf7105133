"""Randomized algebraic-invariant suites (hypothesis, >= 100 cases each)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from qhadamard import (
    QMatrix,
    check_skew_type,
    diag_similarity,
    gram_is_scalar,
    realify,
)
from qhadamard.qmatrix import PHASES, sign_gram_is_scalar
from conftest import skew_regular
from reference import QALPHABET, check_quaternary_hadamard, conj_transpose, equal, qmatrix

entries = st.sampled_from(QALPHABET)
phases = st.sampled_from(PHASES)


def qmatrix_of(n):
    return st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(qmatrix)


def qmatrices(max_n=6):
    return st.integers(1, max_n).flatmap(qmatrix_of)


def qmatrix_pairs(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(qmatrix_of(n), qmatrix_of(n))
    )


def phase_vectors(n):
    return st.lists(phases, min_size=n, max_size=n).map(np.array)


@settings(max_examples=120)
@given(qmatrix_pairs())
def test_product_conj_transpose_antihomomorphism(pair):
    a, b = pair
    lhs = (a.data @ b.data).conj().T
    rhs = conj_transpose(b).data @ conj_transpose(a).data
    assert np.array_equal(lhs, rhs)


@settings(max_examples=120)
@given(qmatrices())
def test_conj_transpose_involution(m):
    assert equal(conj_transpose(conj_transpose(m)), m)


@settings(max_examples=120)
@given(qmatrices())
def test_split_recombine_identity(m):
    # M = A + iB with sign matrices A, B of disjoint support, the cells
    # that realify expands: the planes.
    a, b = QMatrix(m.re), QMatrix(m.im)
    assert ((a.re != 0) & (b.re != 0)).sum() == 0
    assert np.array_equal(a.data + 1j * b.data, m.data)
    assert equal(qmatrix(a.data + 1j * b.data), m)


@settings(max_examples=120)
@given(phase_vectors(10))
def test_diag_similarity_preserves_verdicts(v):
    s = skew_regular(3)
    t = diag_similarity(s, v)
    assert check_quaternary_hadamard(t)
    assert check_skew_type(t)
    # and a negative stays negative
    bad = qmatrix(np.ones((10, 10), dtype=complex))
    twisted_bad = diag_similarity(bad, v)
    assert not check_quaternary_hadamard(twisted_bad)


@settings(max_examples=120)
@given(phase_vectors(10))
def test_diag_similarity_preserves_gram(v):
    t = diag_similarity(skew_regular(3), v)
    assert gram_is_scalar(t, 10)


@settings(max_examples=120)
@given(phase_vectors(10))
def test_realify_gram_doubling(v):
    # M M* = 10 I is preserved by phase similarity; realify doubles it
    t = diag_similarity(skew_regular(3), v)
    w = realify(t)
    assert sign_gram_is_scalar(w, 20)


@settings(max_examples=120)
@given(qmatrices())
def test_realify_additive_on_disjoint_supports(m):
    diag = np.diag(np.diag(m.data))
    part_a = qmatrix(diag)
    part_b = qmatrix(m.data - diag)
    lhs = realify(part_a).re + realify(part_b).re
    assert np.array_equal(lhs, realify(m).data)


_REAL_CELL = np.array([[1, 1], [1, -1]], dtype=np.int64)
_IMAG_CELL = np.array([[-1, 1], [1, 1]], dtype=np.int64)


@settings(max_examples=120)
@given(qmatrices(8))
def test_realify_matches_kron_reference(m):
    a, b = m.re.astype(np.int64), m.im.astype(np.int64)
    ref = np.kron(a, _REAL_CELL) + np.kron(b, _IMAG_CELL)
    w = realify(m)
    assert w.im is None and w.re.dtype == np.int8
    assert np.array_equal(w.re, ref)
