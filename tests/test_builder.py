from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import reference
from qhadamard import (
    MatrixError, QMatrix, builder, check_skew_type, diag_similarity, double, gram_is_scalar,
    serialize, skew_core,
)
from qhadamard.cli import main
from qhadamard.field import _core
from conftest import field, skew_regular
from reference import (
    check_quaternary_hadamard, conference_matrix, core_blocks, equal, paley_qhm, qmatrix,
    row_sums, twist_vector,
)

PRIMES = (3, 5, 7, 11, 13)
ODD_PRIMES_TO_31 = PRIMES + (17, 19, 23, 29, 31)
UNITS = np.array([1, 1j, -1, -1j])


@pytest.mark.parametrize("p", ODD_PRIMES_TO_31)
def test_skew_regular_qhm_is_the_twisted_paley_matrix(p):
    ctx = field(p)
    assert equal(skew_regular(p), diag_similarity(paley_qhm(ctx), twist_vector(ctx)))


@pytest.mark.parametrize("p", ODD_PRIMES_TO_31[:8])
def test_core_view_matches_the_block_layout(p):
    ctx = field(p)
    core = _core(ctx)
    assert ctx.core is ctx.core and np.array_equal(ctx.core, core)
    assert core.shape == (p, p, p * p) and core.strides[2] == 1
    assert not core.flags.writeable
    with pytest.raises(ValueError):
        core[0, 0, 0] = 1
    assert np.array_equal(core.reshape(p, p, p, p), core_blocks(ctx))
    # chi is even, which hides a sign error in a1 - a2 or b1 - b2; a random
    # table does not.
    table = np.random.default_rng(p).integers(-1, 2, p * p).astype(np.int8)
    odd = SimpleNamespace(p=p, q=p * p, char_table=table)
    assert np.array_equal(_core(odd).reshape(p, p, p, p), core_blocks(odd))


def test_conference_matrix_p3():
    c = conference_matrix(field(3))
    assert c.n == 10 and c.im is None
    x = c.re.astype(np.int64)
    assert np.array_equal(x @ x.T, 9 * np.eye(10))
    assert np.array_equal(x[0], [0] + [1] * 9)
    assert np.array_equal(x, x.T)


@pytest.mark.parametrize("p", PRIMES + (17, 19, 23, 29, 31))
def test_conference_matrix_properties(p):
    ctx = field(p)
    # float64 products of cells in {-1, 0, 1} are exact at these orders.
    x = conference_matrix(ctx).re.astype(np.float64)
    n = p * p + 1
    assert np.array_equal(np.diag(x), np.zeros(n))
    assert np.array_equal(x @ x.T, (n - 1) * np.eye(n))
    assert np.array_equal(x, x.T)
    # The core is chi(x - y) over the coordinates of element index b*p + a.
    a, b = np.arange(ctx.q) % p, np.arange(ctx.q) // p
    diff = (b[:, None] - b[None, :]) % p * p + (a[:, None] - a[None, :]) % p
    assert np.array_equal(x[1:, 1:], ctx.char_table[diff])


def test_paley_qhm():
    h = paley_qhm(field(3))
    assert gram_is_scalar(h, 10)
    assert np.array_equal(np.diag(h.data), np.ones(10))
    assert np.array_equal(h.data[0, 1:], np.full(9, -1j))
    h5 = paley_qhm(field(5))
    assert h5.n == 26
    off = h5.data[~np.eye(26, dtype=bool)]
    assert set(off) <= {1j, -1j}


def test_twist_vector_layout():
    v = twist_vector(field(3))
    assert np.array_equal(v, [1, 1, 1, 1, -1j, -1j, -1j, 1j, 1j, 1j])
    v5 = twist_vector(field(5))
    assert np.array_equal(v5[:6], np.ones(6))
    assert np.array_equal(v5[6:16], np.full(10, -1j))
    assert np.array_equal(v5[16:], np.full(10, 1j))


@pytest.mark.parametrize("p", PRIMES)
def test_twist_vector_balance(p):
    v = twist_vector(field(p))
    assert (v == -1j).sum() == p * (p - 1) // 2
    assert (v == 1j).sum() == p * (p - 1) // 2


@pytest.mark.parametrize("p", PRIMES)
def test_skew_regular_qhm(p):
    s = skew_regular(p)
    n = 1 + p * p
    assert gram_is_scalar(s, n)
    assert set(row_sums(s)) == {complex(1, -p)}
    assert np.array_equal(s.data + s.data.conj().T, 2 * np.eye(n))
    # skewness + regularity force the column sums to equal the row sums:
    # colsum = conj(2 - rowsum) = 1 - p*i
    assert set(complex(c) for c in s.data.sum(axis=0)) == {complex(1, -p)}
    # regularity norm condition
    assert 1 + p * p == n


@pytest.mark.parametrize("p", (3, 5, 7))
def test_row_sum_parts_closed_forms(p):
    """Partial row sums of S by column class.

    The first row splits into {infinity}, GF(p) and the two coset halves;
    a field row into {infinity}, its diagonal cell, GF(p), the rest of its
    own coset and the remainder.  Column 1 + b*p + a holds a + b*theta,
    so the coset sums are the blocks of p columns after the first.
    """
    s = skew_regular(p).data
    q, half = p * p, (p - 1) // 2
    by_coset = s[:, 1:].reshape(q + 1, p, p).sum(axis=2)
    first = [s[0, 0], by_coset[0, 0], by_coset[0, 1:half + 1].sum(),
             by_coset[0, half + 1:].sum()]
    assert first == [1, complex(0, -p), (q - p) // 2, -(q - p) // 2]
    rows = np.arange(1, q + 1)
    k = (rows - 1) // p
    infty, diag = s[rows, 0], s[rows, rows]
    fp, own = by_coset[rows, 0], by_coset[rows, k] - diag
    assert np.array_equal(diag, np.ones(q))
    in_fp, lo = k == 0, (k >= 1) & (k <= half)
    assert np.array_equal(infty, np.where(in_fp, -1j, np.where(lo, -1, 1)))
    assert np.array_equal(own, np.full(q, -(p - 1) * 1j))
    assert np.array_equal(fp[~in_fp], np.where(lo, 1, -1)[~in_fp])
    rest = s[1:].sum(axis=1) - infty - diag - own - np.where(in_fp, 0, fp)
    assert np.array_equal(rest, np.where(in_fp, 0, -1j))
    assert np.array_equal(s[1:].sum(axis=1), np.full(q, 1 - p * 1j))


def test_skew_core_smallest():
    h = qmatrix([[1 + 0j, 1], [-1, 1]])
    assert equal(skew_core(h), qmatrix([[1 + 0j]]))


def test_skew_core_p3():
    core = skew_core(skew_regular(3))
    assert core.n == 9
    q = core.data - np.eye(9)
    assert np.array_equal(q.conj().T, -q)
    assert np.array_equal(q.sum(axis=1), np.zeros(9))
    assert np.array_equal(q.sum(axis=0), np.zeros(9))
    # distinct rows of the core have inner product -1
    g = core.data @ core.data.conj().T
    assert np.array_equal(g, 10 * np.eye(9) - np.ones((9, 9)))


@pytest.mark.parametrize("p", (3, 5, 7, 13))
def test_skew_core_matches_the_similarity_path(p):
    rng = np.random.default_rng(p)
    s = skew_regular(p)
    for _ in range(3):
        t = diag_similarity(s, UNITS[rng.integers(0, 4, s.n)])
        assert builder.base_form(t.re, t.im)[1] is True
        assert equal(skew_core(t), reference.skew_core(t))
    # Skew and Hadamard, but not of the base form: S with its rows and
    # columns after the first permuted alike.
    perm = np.concatenate(([0], 1 + rng.permutation(s.n - 1)))
    m = QMatrix(s.re[perm][:, perm], s.im[perm][:, perm])
    assert builder.base_form(m.re, m.im) is None
    assert equal(skew_core(m), reference.skew_core(m))
    # Of the base form but not skew: both paths refuse it alike.
    u = UNITS[rng.integers(0, 4, s.n)]
    two_sided = qmatrix(u[:, None] * s.data)
    assert builder.base_form(two_sided.re, two_sided.im)[1] is False
    for core in (skew_core, reference.skew_core):
        with pytest.raises(MatrixError, match="not skew-type"):
            core(two_sided)


def test_skew_core_rejects_non_skew(capsys, tmp_path):
    with pytest.raises(MatrixError):
        skew_core(qmatrix(np.ones((2, 2), dtype=complex)))
    # I is skew (Q = 0), but its first row holds zeros.
    eye = qmatrix(np.eye(3, dtype=complex))
    for core in (skew_core, reference.skew_core):
        with pytest.raises(MatrixError, match="not normalizable"):
            core(eye)
    path = tmp_path / "eye3.qhm"
    path.write_bytes(serialize(eye))
    assert main(["core", str(path)]) == 1
    assert "not normalizable" in capsys.readouterr().err


def test_double_p3_multiset():
    k = double(skew_regular(3))
    assert k.n == 20
    assert check_quaternary_hadamard(k)
    assert check_skew_type(k)
    assert Counter(row_sums(k)) == {4 - 2j: 10, -2 + 4j: 10}


def test_double_order_one():
    k = double(qmatrix([[1 + 0j]]))
    assert row_sums(k) == [1 + 1j, 1 + 1j]


@pytest.mark.parametrize("p", (5, 7))
def test_double_value_set(p):
    k = double(skew_regular(p))
    a, b = 1, -p
    allowed = {complex(a - b, a + b), complex(a + b, a - b)}
    assert set(row_sums(k)) <= allowed
    assert check_quaternary_hadamard(k)
    assert check_skew_type(k)


def test_double_rejects_non_hadamard():
    with pytest.raises(MatrixError):
        double(qmatrix(np.ones((2, 2), dtype=complex)))
