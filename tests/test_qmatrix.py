import numpy as np
import pytest

from qhadamard import (
    MatrixError,
    QMatrix,
    SignMatrix,
    block2,
    conj_transpose,
    diag_similarity,
    gram_is_scalar,
    realify,
    row_sums,
)
from qhadamard.qmatrix import _gram_complex, sign_gram_is_scalar
from conftest import skew_regular


def test_alphabet_enforced():
    with pytest.raises(MatrixError):
        QMatrix([[2]])
    with pytest.raises(MatrixError):
        QMatrix([[1, 0]])
    with pytest.raises(MatrixError):
        SignMatrix([[2]])


def test_conj_transpose_examples():
    assert conj_transpose(QMatrix([[1]])) == QMatrix([[1]])
    assert conj_transpose(QMatrix([[1j]])) == QMatrix([[-1j]])
    hermitian = QMatrix([[1, 1j], [-1j, 1]])
    assert conj_transpose(hermitian) == hermitian


def test_conj_transpose_involution():
    m = QMatrix([[0, 1j, -1], [1, 0, -1j], [1j, 1, 0]])
    assert conj_transpose(conj_transpose(m)) == m


def test_construction_gram_p3():
    s = skew_regular(3)
    assert np.array_equal(_gram_complex(s.data.real, s.data.imag, 1), 10 * np.eye(10))
    assert np.array_equal(s.data @ conj_transpose(s).data, 10 * np.eye(10))


def test_gram_is_scalar():
    assert gram_is_scalar(QMatrix.identity(4), 1)
    assert not gram_is_scalar(QMatrix(np.ones((2, 2))), 2)


def test_row_sums():
    assert row_sums(QMatrix.identity(5)) == [1] * 5
    assert set(row_sums(skew_regular(3))) == {1 - 3j}
    assert set(row_sums(skew_regular(7))) == {1 - 7j}


def test_diag_similarity_examples():
    s = skew_regular(3)
    assert diag_similarity(s, np.ones(10)) == s
    assert diag_similarity(QMatrix([[1j]]), [1j]) == QMatrix([[1j]])
    with pytest.raises(MatrixError):
        diag_similarity(s, np.ones(9))
    with pytest.raises(MatrixError):
        diag_similarity(s, np.zeros(10))


def test_block2_examples():
    eye1 = QMatrix.identity(1)
    zero1 = QMatrix([[0]])
    assert block2(eye1, zero1, zero1, eye1) == QMatrix.identity(2)
    with pytest.raises(MatrixError):
        block2(eye1, zero1, zero1, QMatrix.identity(2))


def test_realify_kernels():
    assert realify(QMatrix([[1]])) == SignMatrix([[1, 1], [1, -1]])
    assert realify(QMatrix([[1j]])) == SignMatrix([[-1, 1], [1, 1]])


def test_realify_gram_doubling_p3():
    s = skew_regular(3)
    w = realify(s)
    assert sign_gram_is_scalar(w, 20)


def test_hash_agrees_with_eq():
    # conj() writes -0.0 where the literal has 0.0.
    c = conj_transpose(QMatrix([[1, 1j], [1j, 1]]))
    d = QMatrix([[1, -1j], [-1j, 1]])
    assert c == d and hash(c) == hash(d)
    assert len({c, d}) == 1


def test_leaf_types_compare_unequal():
    assert QMatrix([[1, 0], [0, -1]]) != SignMatrix([[1, 0], [0, -1]])
    assert SignMatrix([[1]]) != QMatrix([[1]])


def test_constructor_copies_and_freezes():
    arr = np.eye(2)
    m = QMatrix(arr)
    arr[0, 0] = 0
    assert m == QMatrix.identity(2) and not m.data.flags.writeable
    with pytest.raises(AttributeError):
        m.data = arr
