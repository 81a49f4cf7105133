"""The float-BLAS Gram kernel against a Gaussian-integer oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhadamard import (
    MatrixError,
    SignMatrix,
    certify_gram,
    cod_base,
    double,
    gram,
    gram_is_scalar,
    realify,
)
from qhadamard.cod import EVAL_POINTS, gram_at
from qhadamard.qmatrix import (
    QALPHABET,
    _exact_dtype,
    _gram_is_scalar,
    _gram_parts,
    sign_gram,
    sign_gram_is_scalar,
)
from conftest import field, skew_regular
from reference import gauss_gram, gauss_is_scalar

COD_ENTRIES = (0, 2, -2, 3, -3, 2j, -2j, 3j, -3j)


# Hadamard matrices of small order.
KNOWN = {"S3": skew_regular(3), "D3": double(skew_regular(3)), "S5": skew_regular(5),
         "R3": realify(skew_regular(3))}


def matrices_of(values, n):
    return st.lists(st.lists(st.sampled_from(values), min_size=n, max_size=n),
                    min_size=n, max_size=n).map(lambda rows: np.array(rows, dtype=complex))


def random_matrices(values, max_n=7):
    return st.integers(1, max_n).flatmap(lambda n: matrices_of(values, n))


@st.composite
def hadamard_or_corrupted(draw):
    """A known Hadamard matrix, possibly with one cell changed."""
    m = KNOWN[draw(st.sampled_from(sorted(KNOWN)))]
    data = np.array(m.data, dtype=complex)
    if draw(st.booleans()):
        r, c = draw(st.integers(0, m.n - 1)), draw(st.integers(0, m.n - 1))
        pool = (1, -1, 0) if isinstance(m, SignMatrix) else QALPHABET
        data[r, c] = draw(st.sampled_from([v for v in pool if v != data[r, c]]))
    return data


def cod_evaluations():
    """Evaluations of the base design at the standard points, possibly
    with one cell changed to another COD-style entry."""
    d = cod_base(field(3))

    @st.composite
    def draw_one(draw):
        a, b = draw(st.sampled_from(EVAL_POINTS))
        x = np.array(d.evaluate(a, b))
        if draw(st.booleans()):
            r, c = draw(st.integers(0, d.n - 1)), draw(st.integers(0, d.n - 1))
            x[r, c] = draw(st.sampled_from([v for v in COD_ENTRIES if v != x[r, c]]))
        return x

    return draw_one()


def check_against_oracle(x, max_abs_sq, conjugate):
    g_re, g_im = _gram_parts(x.real, x.imag, max_abs_sq, conjugate)
    want_re, want_im = gauss_gram(x.real, x.imag, conjugate)
    assert g_re.tolist() == want_re and g_im.tolist() == want_im
    for c in (x.shape[0], want_re[0][0], want_re[0][0] + 1):
        got = _gram_is_scalar(x.real, x.imag, max_abs_sq, c, conjugate)
        assert type(got) is bool
        assert got == gauss_is_scalar(x.real, x.imag, c, conjugate)


@settings(max_examples=60, deadline=None)
@given(random_matrices(QALPHABET), st.booleans())
def test_kernel_matches_oracle_on_quaternary(x, conjugate):
    check_against_oracle(x, 1, conjugate)


@settings(max_examples=40, deadline=None)
@given(random_matrices((1, -1, 0)), st.booleans())
def test_kernel_matches_oracle_on_signs(x, conjugate):
    check_against_oracle(x, 1, conjugate)
    w = SignMatrix(x.real.astype(np.int64))
    assert sign_gram(w).tolist() == gauss_gram(x.real, x.imag)[0]
    for c in (w.n, 0):
        assert sign_gram_is_scalar(w, c) == gauss_is_scalar(x.real, x.imag, c)


@settings(max_examples=40, deadline=None)
@given(hadamard_or_corrupted(), st.booleans())
def test_kernel_matches_oracle_on_hadamard_and_corrupted(x, conjugate):
    check_against_oracle(x, 1, conjugate)


@settings(max_examples=40, deadline=None)
@given(random_matrices(COD_ENTRIES), st.booleans())
def test_kernel_matches_oracle_on_cod_entries(x, conjugate):
    check_against_oracle(x, 9, conjugate)


@settings(max_examples=30, deadline=None)
@given(cod_evaluations(), st.booleans())
def test_kernel_matches_oracle_on_cod_evaluations(x, conjugate):
    check_against_oracle(x, 9, conjugate)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_kernel_exact_up_to_the_float32_edge(data):
    # Entries as large as the float32 bound allows: every sum is exact.
    n = data.draw(st.integers(1, 5))
    limit = (2**24 - 1) // n
    k = int(np.sqrt(limit / 2))
    x = data.draw(matrices_of(range(-k, k + 1), n))
    x = x + 1j * data.draw(matrices_of(range(-k, k + 1), n))
    assert _exact_dtype(n, 2 * k * k) is np.float32
    check_against_oracle(x, 2 * k * k, data.draw(st.booleans()))


def test_public_grams_match_oracle():
    for m in (KNOWN["S3"], KNOWN["D3"]):
        want_re, want_im = gauss_gram(m.data.real, m.data.imag)
        g = gram(m)
        assert g.dtype == np.complex128
        assert g.real.tolist() == want_re and g.imag.tolist() == want_im
        assert gram_is_scalar(m, m.n) is True
    w = KNOWN["R3"]
    assert sign_gram(w).dtype == np.int64
    assert sign_gram_is_scalar(w, w.n) is True
    d = cod_base(field(3))
    for a, b in EVAL_POINTS:
        x = d.evaluate(a, b)
        want_re, want_im = gauss_gram(x.real, x.imag)
        g = gram_at(d, a, b)
        assert g.real.tolist() == want_re and g.imag.tolist() == want_im
    assert certify_gram(d) is True and certify_gram(d, conjugate=False) is False


def test_scalar_target_is_compared_exactly():
    # A float32 comparison would round 10 + 1e-9 to 10.
    s = skew_regular(3)
    assert gram_is_scalar(s, 10) and not gram_is_scalar(s, 10 + 1e-9)
    assert not gram_is_scalar(s, 10 + 1j)
    w = KNOWN["R3"]
    assert not sign_gram_is_scalar(w, 20 + 1e-9) and not sign_gram_is_scalar(w, 20j)


@pytest.mark.parametrize("n, max_abs_sq, dtype", [
    (2**24 - 1, 1, np.float32),
    (2**24, 1, np.float64),
    ((2**24 - 1) // 9, 9, np.float32),
    ((2**24 - 1) // 9 + 1, 9, np.float64),
    (2**53 - 1, 1, np.float64),
    (2**40, 2**13 - 1, np.float64),
])
def test_exact_dtype_edges(n, max_abs_sq, dtype):
    assert _exact_dtype(n, max_abs_sq) is dtype


@pytest.mark.parametrize("n, max_abs_sq", [(2**53, 1), (2**40, 2**13), (2**27, 2**26)])
def test_exact_dtype_refuses_beyond_float64(n, max_abs_sq):
    with pytest.raises(MatrixError):
        _exact_dtype(n, max_abs_sq)
