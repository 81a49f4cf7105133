import numpy as np
import pytest

from qhadamard import (
    MatrixError,
    QMatrix,
    diag_similarity,
    double,
    gram_is_scalar,
    realify,
)
from qhadamard import qmatrix as qmatrix_module
from qhadamard.qmatrix import sign_gram_is_scalar
from qhadamard.verify import _row_sums
from conftest import skew_regular
from reference import block2, conj_transpose, equal, gram_parts, qmatrix, row_sums, scale


def eye(n):
    return qmatrix(np.eye(n, dtype=complex))


def test_alphabet_enforced():
    with pytest.raises(MatrixError):
        QMatrix([[2]])
    with pytest.raises(MatrixError):
        QMatrix([[1, 0]])
    with pytest.raises(MatrixError):
        QMatrix([[1]], [[1]])


def test_conj_transpose_examples():
    assert equal(conj_transpose(qmatrix([[1 + 0j]])), qmatrix([[1 + 0j]]))
    assert equal(conj_transpose(qmatrix([[1j]])), qmatrix([[-1j]]))
    hermitian = qmatrix([[1, 1j], [-1j, 1]])
    assert equal(conj_transpose(hermitian), hermitian)
    real = QMatrix([[1, -1], [0, 1]])
    assert equal(conj_transpose(real), QMatrix([[1, 0], [-1, 1]]))


def test_conj_transpose_involution():
    m = qmatrix([[0, 1j, -1], [1, 0, -1j], [1j, 1, 0]])
    assert equal(conj_transpose(conj_transpose(m)), m)


def test_construction_gram_p3():
    s = skew_regular(3)
    g_re, g_im = gram_parts(s.re, s.im)
    assert np.array_equal(g_re, 10 * np.eye(10)) and not g_im.any()
    assert np.array_equal(s.data @ conj_transpose(s).data, 10 * np.eye(10))


def test_gram_is_scalar():
    assert gram_is_scalar(eye(4), 1)
    assert not gram_is_scalar(qmatrix(np.ones((2, 2), dtype=complex)), 2)


def test_row_sums():
    def sums(m):
        re, im = _row_sums(m.re, m.im)
        # The exact accumulator of qmatrix._sums below order 2^15.
        assert re.dtype == im.dtype == np.int16
        got = [complex(r, i) for r, i in zip(re.tolist(), im.tolist())]
        assert got == row_sums(m)
        return got

    assert sums(eye(5)) == [1] * 5
    assert sums(QMatrix([[1, -1], [1, 1]])) == [0, 2]
    assert set(sums(skew_regular(3))) == {1 - 3j}
    assert set(sums(skew_regular(7))) == {1 - 7j}
    assert set(sums(double(skew_regular(3)))) == {4 - 2j, -2 + 4j}


def test_diag_similarity_examples():
    s = skew_regular(3)
    assert equal(diag_similarity(s, np.ones(10)), s)
    assert equal(diag_similarity(qmatrix([[1j]]), [1j]), qmatrix([[1j]]))
    assert equal(diag_similarity(qmatrix([[0, 1], [1j, 0]]), [1j, -1]),
                 qmatrix([[0, -1j], [-1, 0]]))
    with pytest.raises(MatrixError):
        diag_similarity(s, np.ones(9))
    with pytest.raises(MatrixError):
        diag_similarity(s, np.zeros(10))
    with pytest.raises(MatrixError):
        diag_similarity(s, np.ones((10, 1)))


def test_diag_similarity_across_panel_edges(monkeypatch):
    # Panels of 3 rows over order 11 put edges after rows 2, 5 and 8 and
    # leave a short last panel; the cells take all five values.
    row_panels, walks = qmatrix_module._row_panels, []

    def three_rows(rows, cols, cells=None):
        walk = list(row_panels(rows, cols, 3 * cols))
        walks.append([(r.start, r.stop) for r in walk])
        return walk

    monkeypatch.setattr(qmatrix_module, "_row_panels", three_rows)
    rng = np.random.default_rng(11)
    x = np.array([0, 1, 1j, -1, -1j])[rng.integers(0, 5, (11, 11))]
    v = np.array([1, 1j, -1, -1j])[rng.integers(0, 4, 11)]
    assert (x == 0).any() and len(set(v.tolist())) == 4
    got = diag_similarity(qmatrix(x), v)
    assert np.array_equal(got.data, v[:, None] * x * v.conj())
    assert walks and all(w == [(0, 3), (3, 6), (6, 9), (9, 11)] for w in walks)


def test_scale_examples():
    m = qmatrix([[1, 1j], [0, -1]])
    assert equal(scale(m, 1j), qmatrix([[1j, -1], [0, -1j]]))
    assert equal(scale(m, -1), qmatrix([[-1, -1j], [0, 1]]))
    with pytest.raises(MatrixError):
        scale(m, 2)


def test_block2_examples():
    eye1 = eye(1)
    zero1 = qmatrix([[0j]])
    assert equal(block2(eye1, zero1, zero1, eye1), eye(2))
    with pytest.raises(MatrixError):
        block2(eye1, zero1, zero1, eye(2))


def test_realify_kernels():
    assert equal(realify(qmatrix([[1 + 0j]])), QMatrix([[1, 1], [1, -1]]))
    assert equal(realify(qmatrix([[1j]])), QMatrix([[-1, 1], [1, 1]]))


def test_realify_gram_doubling_p3():
    s = skew_regular(3)
    w = realify(s)
    assert sign_gram_is_scalar(w, 20)


def test_data_view():
    # ``data`` is one read-only array for callers outside the package:
    # the re plane of a real matrix, a complex128 copy otherwise.
    m = qmatrix([[1, 1j], [-1j, 0]])
    assert m.data.dtype == np.complex128 and not m.data.flags.writeable
    assert np.array_equal(m.data, [[1, 1j], [-1j, 0]])
    w = QMatrix([[1, -1], [0, 1]])
    assert w.data is w.re and w.data.dtype == np.int8


def test_leaf_types_compare_unequal():
    # One type, two kinds: a real matrix has no im plane and is never
    # equal to the quaternary matrix of the same values.
    real = QMatrix([[1, 0], [0, -1]])
    quaternary = qmatrix(np.array([[1, 0], [0, -1]], dtype=complex))
    assert real.im is None and quaternary.im is not None
    assert not equal(real, quaternary) and not equal(quaternary, real)
    assert np.array_equal(real.re, quaternary.re)


def test_constructor_copies_and_freezes():
    # Input of another dtype is cast to a new int8 plane; an int8 array
    # is frozen as it is, without a copy.
    arr = np.eye(2)
    m = QMatrix(arr)
    arr[0, 0] = 0
    assert equal(m, QMatrix(np.eye(2, dtype=np.int8))) and not m.re.flags.writeable
    plane = np.eye(2, dtype=np.int8)
    assert QMatrix(plane).re is plane and not plane.flags.writeable
    with pytest.raises(AttributeError):
        m.re = plane
    with pytest.raises(AttributeError):
        m.data = plane
