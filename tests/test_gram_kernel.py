"""The float-BLAS Gram kernel against a Gaussian-integer oracle.

The kernel decides X X* = cI for entries with |x|^2 <= 1.  Larger
entries and the plain transpose X X^T are checked on the int64 oracle
``reference.gram_parts``, which the COD tests use for them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhadamard import (
    MatrixError,
    QMatrix,
    certify_gram,
    diag_similarity,
    double,
    full_report,
    gram_is_scalar,
    realify,
)
from qhadamard import cod, qmatrix
from qhadamard.qmatrix import _exact_dtype, _gram_is_scalar, sign_gram_is_scalar
from conftest import field, skew_regular
from reference import QALPHABET, gauss_gram, gauss_is_scalar, gram_parts, is_real, parts_are_scalar

# The three points of certify_gram and one with |entry|^2 = 9.
EVAL_POINTS = ((1, 0), (0, 1), (1, 1), (2, 3))

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
        pool = (1, -1, 0) if m.im is None else QALPHABET
        data[r, c] = draw(st.sampled_from([v for v in pool if v != data[r, c]]))
    return data


def cod_evaluations():
    """Evaluations of the base design at the standard points, possibly
    with one cell changed to another COD-style entry."""
    d = cod._factors(field(3))[0]
    acoef, bcoef = d.evaluate_qmatrix(1, 0).data, d.evaluate_qmatrix(0, 1).data

    @st.composite
    def draw_one(draw):
        a, b = draw(st.sampled_from(EVAL_POINTS))
        x = a * acoef + b * bcoef
        if draw(st.booleans()):
            r, c = draw(st.integers(0, d.n - 1)), draw(st.integers(0, d.n - 1))
            x[r, c] = draw(st.sampled_from([v for v in COD_ENTRIES if v != x[r, c]]))
        return x

    return draw_one()


def check_against_oracle(x, conjugate):
    """The int64 oracle's Gram parts against the Gaussian-integer ones,
    and for X X* of a matrix with |x|^2 <= 1 the kernel's verdicts."""
    parts = gram_parts(x.real, x.imag, conjugate)
    want_re, want_im = gauss_gram(x.real, x.imag, conjugate)
    assert parts[0].tolist() == want_re and parts[1].tolist() == want_im
    for c in (x.shape[0], want_re[0][0], want_re[0][0] + 1):
        want = gauss_is_scalar(x.real, x.imag, c, conjugate)
        assert parts_are_scalar(parts, c) == want
        if conjugate and (np.abs(x) <= 1).all():
            got = _gram_is_scalar(x.real, x.imag, c)
            assert type(got) is bool
            assert got == want


@settings(max_examples=60, deadline=None)
@given(random_matrices(QALPHABET), st.booleans())
def test_kernel_matches_oracle_on_quaternary(x, conjugate):
    check_against_oracle(x, conjugate)


@settings(max_examples=40, deadline=None)
@given(random_matrices((1, -1, 0)), st.booleans())
def test_kernel_matches_oracle_on_signs(x, conjugate):
    check_against_oracle(x, conjugate)
    w = QMatrix(x.real)
    for c in (w.n, 0):
        assert sign_gram_is_scalar(w, c) == gauss_is_scalar(x.real, x.imag, c)


@settings(max_examples=40, deadline=None)
@given(hadamard_or_corrupted(), st.booleans())
def test_kernel_matches_oracle_on_hadamard_and_corrupted(x, conjugate):
    check_against_oracle(x, conjugate)


@settings(max_examples=40, deadline=None)
@given(random_matrices(COD_ENTRIES), st.booleans())
def test_kernel_matches_oracle_on_cod_entries(x, conjugate):
    check_against_oracle(x, conjugate)


@settings(max_examples=30, deadline=None)
@given(cod_evaluations(), st.booleans())
def test_kernel_matches_oracle_on_cod_evaluations(x, conjugate):
    check_against_oracle(x, conjugate)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_kernel_exact_up_to_the_float32_edge(data):
    # The bound of ``_exact_dtype`` is the order times max|x|^2, which the
    # kernel's alphabet fixes at 1.  With entries as large as the float32
    # bound allows, float32 products are exact.
    n = data.draw(st.integers(1, 5))
    limit = (2**24 - 1) // n
    k = int(np.sqrt(limit / 2))
    x = data.draw(matrices_of(range(-k, k + 1), n))
    x = x + 1j * data.draw(matrices_of(range(-k, k + 1), n))
    assert _exact_dtype(n * 2 * k * k) is np.float32
    conjugate = data.draw(st.booleans())
    check_against_oracle(x, conjugate)
    a, b = x.real.astype(np.float32), x.imag.astype(np.float32)
    sign = 1 if conjugate else -1
    g_re, g_im = gram_parts(x.real, x.imag, conjugate)
    assert np.array_equal(a @ a.T + sign * (b @ b.T), g_re)
    assert np.array_equal(b @ a.T - sign * (a @ b.T), g_im)


def test_public_grams_match_oracle():
    for m in (KNOWN["S3"], KNOWN["D3"]):
        want_re, want_im = gauss_gram(m.re, m.im)
        g_re, g_im = gram_parts(m.re, m.im)
        assert g_re.tolist() == want_re and g_im.tolist() == want_im
        assert gram_is_scalar(m, m.n) is True
        assert _gram_is_scalar(m.re, m.im, m.n) is True
    w = KNOWN["R3"]
    g, _ = gram_parts(w.re, None)
    assert g.tolist() == gauss_gram(w.re, np.zeros_like(w.re))[0]
    assert sign_gram_is_scalar(w, w.n) is True
    assert _gram_is_scalar(w.re, None, w.n) is True
    d = cod._factors(field(3))[0]
    acoef, bcoef = d.evaluate_qmatrix(1, 0).data, d.evaluate_qmatrix(0, 1).data
    for a, b in EVAL_POINTS:
        x = a * acoef + b * bcoef
        want_re, want_im = gauss_gram(x.real, x.imag)
        g_re, g_im = gram_parts(x.real, x.imag)
        assert g_re.tolist() == want_re and g_im.tolist() == want_im
    assert certify_gram(d) is True and is_real(d) is False


def test_scalar_target_is_compared_exactly():
    # A float32 comparison would round 10 + 1e-9 to 10.
    s = skew_regular(3)
    assert gram_is_scalar(s, 10) and not gram_is_scalar(s, 10 + 1e-9)
    assert not gram_is_scalar(s, 10 + 1j)
    w = KNOWN["R3"]
    assert not sign_gram_is_scalar(w, 20 + 1e-9) and not sign_gram_is_scalar(w, 20j)


# The general bound n * max|x|^2 of an order-n matrix with |x|^2 <= max_abs_sq
# is the order of a unit matrix that ``_exact_dtype`` takes.
@pytest.mark.parametrize("n, max_abs_sq, dtype", [
    (2**24 - 1, 1, np.float32),
    (2**24, 1, np.float64),
    ((2**24 - 1) // 9, 9, np.float32),
    ((2**24 - 1) // 9 + 1, 9, np.float64),
    (2**53 - 1, 1, np.float64),
    (2**40, 2**13 - 1, np.float64),
])
def test_exact_dtype_edges(n, max_abs_sq, dtype):
    assert _exact_dtype(n * max_abs_sq) is dtype


@pytest.mark.parametrize("n, max_abs_sq", [(2**53, 1), (2**40, 2**13), (2**27, 2**26)])
def test_exact_dtype_refuses_beyond_float64(n, max_abs_sq):
    with pytest.raises(MatrixError):
        _exact_dtype(n * max_abs_sq)


def refuse(*args):
    raise AssertionError("the dense Gram panel ran")


def spy(record, f):
    """``f``, appending each result it returns to ``record``."""
    def wrapped(*args):
        record.append(f(*args))
        return record[-1]
    return wrapped


def _one_cell_changes(m):
    """Copies of the values of ``m`` with one cell negated, zeroed or, in
    a quaternary matrix, rotated by i, at two corners, next to the first
    and in the lower-left quarter."""
    edits = {"negated": lambda x: -x, "zeroed": lambda x: 0}
    if m.im is not None:
        edits["rotated"] = lambda x: 1j * x
    n = m.n
    for r, c in ((0, 0), (1, 2), (n // 2, n // 3), (n - 1, n - 1)):
        for label, edit in edits.items():
            x = np.array(m.data, dtype=complex)
            x[r, c] = edit(x[r, c])
            yield f"{label} at {(r, c)}", x


def _p13_family(kind):
    s = skew_regular(13)
    v = np.array([1, 1j, -1, -1j])[np.arange(s.n) % 4]
    return {"S": s, "double": double(s), "twist": diag_similarity(s, v),
            "realify": realify(s)}[kind]


@pytest.mark.parametrize("kind", ["S", "double", "twist", "realify"])
def test_screen_alone_rejects_one_cell_changes(kind, monkeypatch):
    m = _p13_family(kind)
    assert m.n > qmatrix._PANEL_CAP
    monkeypatch.setattr(qmatrix, "_panel_is_scalar", refuse)
    for label, x in _one_cell_changes(m):
        q = QMatrix(x.real) if m.im is None else QMatrix(x.real, x.imag)
        want = parts_are_scalar(gram_parts(q.re, q.im), q.n)
        assert full_report(q).hadamard is want is False, label
    # The screen compares its target exactly, in float64.
    for c in (m.n + 1e-9, m.n + 0.5j):
        assert _gram_is_scalar(m.re, m.im, c) is False


def test_unrecognised_hadamard_passes_the_screen_to_the_dense_path(monkeypatch):
    rng = np.random.default_rng(13)
    screens, panels, sizes = [], [], []
    panel_is_scalar = spy(panels, qmatrix._panel_is_scalar)

    def sized(part, target):
        sizes.append(len(part))
        return panel_is_scalar(part, target)

    monkeypatch.setattr(qmatrix, "_ones_screen", spy(screens, qmatrix._ones_screen))
    monkeypatch.setattr(qmatrix, "_panel_is_scalar", sized)
    # S and its realification with rows and columns permuted: no form
    # recognises either.
    for m in (skew_regular(13), realify(skew_regular(13))):
        rows, cols = rng.permutation(m.n), rng.permutation(m.n)
        planes = [plane[rows][:, cols] for plane in (m.re, m.im) if plane is not None]
        x = QMatrix(*planes)
        assert parts_are_scalar(gram_parts(x.re, x.im), x.n)
        screens.clear()
        panels.clear()
        sizes.clear()
        assert full_report(x).hadamard is True
        assert screens == [True] and len(panels) > 1 and all(panels)
        # Panels of 128 rows but the last; a quaternary panel is checked
        # in its real and then its imaginary part.
        parts = 1 if x.im is None else 2
        full, last = divmod(x.n, 128)
        assert sizes == [128] * (parts * full) + [last] * parts


@pytest.mark.parametrize("n, dtype", [(4095, np.float32), (4096, np.float64)])
def test_screen_float_type_edge(n, dtype, monkeypatch):
    # A broadcast view of one cell stands for the order-n matrix of ones,
    # so that no plane of that order is allocated.  J J^T 1 = n^2 1 is not
    # n 1, so the screen rejects it at its first panel.
    ones = np.broadcast_to(np.int8(1), (n, n))
    seen = []
    monkeypatch.setattr(qmatrix, "_exact_dtype", spy(seen, qmatrix._exact_dtype))
    monkeypatch.setattr(qmatrix, "_panel_is_scalar", refuse)
    assert _gram_is_scalar(ones, None, n) is False
    assert seen == [dtype]
