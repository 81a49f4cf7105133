import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhadamard import (
    BudgetError,
    certify_gram,
    check_skew_type,
    cod_recurse,
    factored_summary,
)
from qhadamard import MatrixError, cli, cod, diag_similarity, serialize, skew_core, verify
from qhadamard.field import DEFAULT_BUDGET_MB, max_order
from qhadamard.qmatrix import PHASES, QMatrix, _gram_is_scalar, _row_panels
from conftest import field, skew_regular
from reference import (
    broken_identity, check_quaternary_hadamard, conj_transpose, design, equal, expected_row_sum,
    gram_parts, is_real, parts_are_scalar, qmatrix, row_sums,
)

# The three points of certify_gram and one with |entry|^2 = 9.
EVAL_POINTS = ((1, 0), (0, 1), (1, 1), (2, 3))


def cod_base(ctx):
    return cod._factors(ctx)[0]


def coefficients(d):
    """A and B, the evaluations at (1, 0) and (0, 1), as complex arrays."""
    return d.evaluate_qmatrix(1, 0).data, d.evaluate_qmatrix(0, 1).data


def parts_at(d, a, b):
    """Real and imaginary parts of a*A + b*B at any integer point."""
    acoef, bcoef = coefficients(d)
    x = a * acoef + b * bcoef
    return x.real, x.imag


def test_cod_base_examples():
    d = cod_base(field(3))
    assert d.n == 10 and d.stype == (1, 9)
    assert equal(d.evaluate_qmatrix(1, 1), skew_regular(3))
    assert np.array_equal(d.evaluate_qmatrix(1, 0).data, np.eye(10))
    g_re, g_im = gram_parts(*parts_at(d, 2, 3))
    assert np.array_equal(g_re, 85 * np.eye(10)) and not g_im.any()


def test_cod_base_row_sum_schedule():
    # evaluated at (a, b) the constant row sum is a - p*b*i
    acoef, bcoef = coefficients(cod_base(field(3)))
    for a, b in EVAL_POINTS:
        sums = set((a * acoef + b * bcoef).sum(axis=1))
        assert sums == {complex(a, -3 * b)}


def test_cod_recurse_k0_is_base():
    ctx = field(3)
    d0 = cod_recurse(ctx, 0)
    base = cod_base(ctx)
    for point in ((1, 0), (0, 1)):
        assert equal(d0.evaluate_qmatrix(*point), base.evaluate_qmatrix(*point))


def test_cod_recurse_rejects_negative_k():
    with pytest.raises(ValueError):
        cod_recurse(field(3), -1)


@pytest.mark.parametrize(
    "p,k,order", [(3, 0, 10), (3, 1, 90), (3, 2, 810), (5, 0, 26), (5, 1, 650)]
)
def test_cod_recurse_type_and_gram(p, k, order):
    d = cod_recurse(field(p), k)
    assert d.n == order
    assert d.table.shape == (9, p ** (2 * k), p ** (2 * k))
    assert d.stype == (p ** (2 * k), p ** (2 * k + 2))
    assert certify_gram(d)


def test_cod_recurse_gram_example():
    d = cod_recurse(field(3), 1)
    g_re, g_im = gram_parts(*parts_at(d, 1, 2))
    assert np.array_equal(g_re, 333 * np.eye(90)) and not g_im.any()


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
    acoef, bcoef = coefficients(cod_base(field(3)))
    x = design(acoef, 1j * bcoef)
    s1, s2 = x.stype
    verdicts = [_gram_is_scalar(*parts_at(x, a, b), s1 * a * a + s2 * b * b)
                for a, b in ((1, 0), (0, 1), (1, 1))]
    assert verdicts == [True, True, False]
    assert not certify_gram(x)


def kernel_verdict(d, conjugate):
    """certify_gram's three points, X X* through the kernel and X X^T
    through the int64 oracle."""
    s1, s2 = d.stype

    def holds(re, im, c):
        if conjugate:
            return _gram_is_scalar(re, im, c)
        return parts_are_scalar(gram_parts(re, im, conjugate=False), c)

    return all(holds(*parts_at(d, a, b), s1 * a * a + s2 * b * b)
               for a, b in ((1, 0), (0, 1), (1, 1)))


def dense_summary(ctx, k):
    d = cod_recurse(ctx, k)
    s1, s2 = d.stype
    conjugate = certify_gram(d)
    verdicts = (conjugate, conjugate and is_real(d))
    assert verdicts == (kernel_verdict(d, True), kernel_verdict(d, False))
    return {"order": d.n, "type": [s1, s2],
            "gram_conjugate": verdicts[0], "gram_transpose": verdicts[1]}


@pytest.mark.parametrize(
    "p,k", [(3, 0), (3, 1), (3, 2), (5, 0), (5, 1), (7, 0), (11, 0)]
)
def test_factored_summary_matches_dense(p, k):
    ctx = field(p)
    summary = factored_summary(ctx, k)
    assert summary == dense_summary(ctx, k)
    assert type(summary["order"]) is int


def test_factored_summary_checks_order_first():
    with pytest.raises(ValueError, match="k must be nonnegative"):
        factored_summary(field(3), -1)
    with pytest.raises(BudgetError):
        factored_summary(field(3), 6)


def edit_s(monkeypatch, edit):
    """Make cod build S with ``edit`` applied to both planes."""
    real_build = cod.skew_regular_qhm

    def edited(ctx):
        s = real_build(ctx)
        return QMatrix(edit(s.re), edit(s.im))

    monkeypatch.setattr(cod, "skew_regular_qhm", edited)


def negated(cells):
    sign = np.ones((10, 10), dtype=np.int8)
    sign[cells] = -1
    return lambda plane: plane * sign


def test_non_hadamard_s_names_the_base_gram(monkeypatch, capsys):
    # The mirrored pair (2, 5), (5, 2) negated keeps S + S* = 2I, not SS* = nI.
    edit_s(monkeypatch, negated(([2, 5], [5, 2])))
    with pytest.raises(MatrixError, match="base Gram"):
        factored_summary(field(3), 1)
    capsys.readouterr()
    assert cli.main(["cod", "--p", "3", "--k", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: base Gram") and err.count("\n") == 1


def test_non_skew_s_is_refused(monkeypatch):
    # A negated row keeps SS* = nI, not S + S* = 2I.
    edit_s(monkeypatch, negated(4))
    with pytest.raises(MatrixError, match="input is not skew-type"):
        factored_summary(field(3), 1)


def test_s_off_the_base_form_is_certified(monkeypatch):
    # Swapping rows and columns 1 and 2 keeps S skew and Hadamard but
    # leaves the base form: the dense kernel decides SS* and the skew
    # check S + S*.
    ctx = field(3)
    order = np.array([0, 2, 1, *range(3, 10)])
    edit_s(monkeypatch, lambda plane: plane[order][:, order])
    assert factored_summary(ctx, 1) == dense_summary(ctx, 1)


# The 12 points (p, k), p <= 23 and k <= 2, whose order the default budget admits.
ADMITTED = [(p, k) for p in (3, 5, 7, 11, 13, 17, 19, 23) for k in (0, 1, 2)
            if (1 + p * p) * p ** (2 * k) <= max_order(DEFAULT_BUDGET_MB)]


@pytest.mark.parametrize("p,k", ADMITTED)
def test_factored_summary_reaches_no_dense_kernel(monkeypatch, p, k):
    # S's one recognition is the summary's only certificate: no dense
    # kernel, skew core, design or design certificate, and S's form is
    # tested once.
    def reached(name):
        def fail(*args):
            raise AssertionError(f"{name} was reached")
        return fail

    monkeypatch.setattr("qhadamard.qmatrix._gram_is_scalar", reached("the dense Gram kernel"))
    for name in ("_gram_is_scalar", "skew_core", "cod_recurse", "certify_gram"):
        monkeypatch.setattr(cod, name, reached(name))
    forms = []
    real_form = verify.base_form

    def counted(re, im):
        forms.append(re.shape)
        return real_form(re, im)

    monkeypatch.setattr(verify, "base_form", counted)
    q = p * p
    assert factored_summary(field(p), k) == {
        "order": (1 + q) * q**k, "type": [q**k, q ** (k + 1)],
        "gram_conjugate": True, "gram_transpose": False}
    assert forms == [(1 + q, 1 + q)]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_summary_lemma_holds_on_permuted_twisted_cores(p):
    # The summary's lemma: the skew core of any skew Hadamard S meets
    # every identity of the certificate.  Simultaneous row and column
    # permutations and phase twists of S keep it skew and Hadamard and
    # take it off the base form, so skew_core normalizes each in full.
    s = skew_regular(p)
    rng = np.random.default_rng(p)
    for _ in range(20):
        order = rng.permutation(s.n)
        moved = QMatrix(s.re[order][:, order], s.im[order][:, order])
        twisted = diag_similarity(moved, rng.choice(PHASES, s.n))
        assert broken_identity((1, p * p), skew_core(twisted), p * p) is None


def test_broken_identity_names():
    ctx = field(3)
    base, core = cod._factors(ctx)
    assert broken_identity(base.stype, core, ctx.q) is None
    # Cores I + Q with a diagonal cell of Q at -2, at i - 1 and an
    # off-diagonal cell at 0.
    for cell, value in (((0, 0), -1), ((0, 0), 1j), ((0, 1), 0)):
        data = core.data.copy()
        data[cell] = value
        assert (broken_identity(base.stype, qmatrix(data), ctx.q)
                == "Q has zero diagonal and unit cells off it")
    # iQ keeps the zero diagonal and the unit cells but is Hermitian.
    eye = np.eye(ctx.q)
    hermitian = qmatrix(eye + 1j * (core.data - eye))
    assert broken_identity(base.stype, hermitian, ctx.q) == "Q* = -Q"
    # Negating the mirrored cells (0, 1) and (1, 0) keeps Q* = -Q but
    # moves the sums of rows 0 and 1.
    data = core.data.copy()
    data[[0, 1], [1, 0]] *= -1
    assert broken_identity(base.stype, qmatrix(data), ctx.q) == "QJ = 0"
    no_b = design(coefficients(base)[0], np.zeros((base.n, base.n)))
    assert broken_identity(no_b.stype, core, ctx.q) == "s2 = q s1"


def test_broken_identity_names_the_core_gram():
    # The real circulant of order 9 with first row (0, 1, 1, 1, 1, -1, -1,
    # -1, -1) has a zero diagonal, is skew and has QJ = 0, but QQ^T is not
    # 9I - J: a doubly regular tournament needs an order = 3 (mod 4).
    ctx = field(3)
    base = cod._factors(ctx)[0]
    first = np.array([0, 1, 1, 1, 1, -1, -1, -1, -1])
    q = np.array([np.roll(first, r) for r in range(9)])
    assert np.array_equal(q.T, -q) and not q.sum(axis=1).any()
    g_re, g_im = gram_parts(q, None)
    assert not np.array_equal(g_re, 9 * np.eye(9) - 1)
    core = QMatrix(q + np.eye(9, dtype=int), np.zeros_like(q))
    assert broken_identity(base.stype, core, ctx.q) == "QQ* = qI - J"


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 1)])
def test_cod_recurse_matches_kron_steps(p, k):
    ctx = field(p)
    base, core = cod._factors(ctx)
    eye, ones = np.eye(ctx.q), np.ones((ctx.q, ctx.q))
    a, b = coefficients(base)
    for _ in range(k):
        a, b = np.kron(b, eye), np.kron(a, ones) + np.kron(b, core.data - eye)
    d = cod_recurse(ctx, k)
    got_a, got_b = coefficients(d)
    assert np.array_equal(got_a, a) and np.array_equal(got_b, b)
    for m in (d.evaluate_qmatrix(1, 0), d.evaluate_qmatrix(0, 1)):
        assert m.re.dtype == m.im.dtype == np.int8


@pytest.mark.parametrize("p,k", [(3, 0), (5, 0), (3, 1), (5, 1), (3, 2), (7, 1)])
def test_text_is_the_serialized_evaluation(p, k):
    # k = 0 gathers through the one-cell table's lookup.
    d = cod_recurse(field(p), k)
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            assert d.text(a, b) == serialize(d.evaluate_qmatrix(a, b))


def test_text_across_panel_edges(monkeypatch):
    # Order 810: 10 code rows, each 81 rows of 810 cells.
    d = cod_recurse(field(3), 2)
    expected = serialize(d.evaluate_qmatrix(1, -1))
    row_cells = 81 * 810
    for per_panel, sizes in ((1, [1] * 10), (3, [3, 3, 3, 1])):
        walks = []

        def panels(rows, cols):
            walk = list(_row_panels(rows, cols, per_panel * row_cells))
            walks.append([r.stop - r.start for r in walk])
            return walk

        monkeypatch.setattr(cod, "_row_panels", panels)
        assert d.text(1, -1) == expected
        assert walks == [sizes]


def test_text_refuses_points_off_the_units():
    d = cod_base(field(3))
    for a, b in ((2, 0), (0, 2), (1, -2), (2, 3)):
        with pytest.raises(MatrixError) as evaluated:
            d.evaluate_qmatrix(a, b)
        with pytest.raises(MatrixError, match=re.escape(str(evaluated.value))):
            d.text(a, b)


def test_cod_recurse_builds_skew_regular_once(monkeypatch):
    calls = []
    real_build = cod.skew_regular_qhm

    def counted(ctx):
        calls.append(ctx.p)
        return real_build(ctx)

    monkeypatch.setattr(cod, "skew_regular_qhm", counted)
    for k in (1, 2):
        calls.clear()
        cod_recurse(field(3), k)
        assert calls == [3]
    calls.clear()
    factored_summary(field(3), 2)
    assert calls == [3]


# X = aI + bC: a real skew design of order 4 and type (1, 3).
SKEW4 = np.array([[0, 1, 1, 1], [-1, 0, 1, -1], [-1, -1, 0, 1], [-1, 1, -1, 0]])


def random_designs():
    """Designs with constant row type: random ones, which mostly fail, and
    phase or signed-permutation similarities of passing ones."""

    @st.composite
    def random_design(draw):
        n = draw(st.integers(1, 6))
        s1 = draw(st.integers(0, n))
        s2 = draw(st.integers(0, n - s1))
        alphabet = draw(st.sampled_from((PHASES, (1, -1))))
        acoef = np.zeros((n, n), dtype=np.complex128)
        bcoef = np.zeros((n, n), dtype=np.complex128)
        for i in range(n):
            cols = draw(st.permutations(range(n)))
            for j in cols[:s1]:
                acoef[i, j] = draw(st.sampled_from(alphabet))
            for j in cols[s1:s1 + s2]:
                bcoef[i, j] = draw(st.sampled_from(alphabet))
        return design(acoef, bcoef)

    @st.composite
    def similar_design(draw):
        acoef, bcoef = draw(st.sampled_from((
            (np.eye(4), SKEW4),
            coefficients(cod_base(field(3))),
        )))
        n = acoef.shape[0]
        phases = draw(st.sampled_from(((1, -1), PHASES)))
        v = np.array(draw(st.lists(st.sampled_from(phases), min_size=n, max_size=n)))
        perm = np.array(draw(st.permutations(range(n))))

        def similar(x):
            return (v[:, None] * x * v.conj()[None, :])[np.ix_(perm, perm)]

        return design(similar(acoef), similar(bcoef))

    return st.one_of(random_design(), similar_design())


@st.composite
def coefficient_pairs(draw):
    """A, B of order 1..6 with disjoint supports: each cell is zero, a
    phase of A or a phase of B."""
    n = draw(st.integers(1, 6))
    cells = draw(st.lists(st.sampled_from([(0, 0)] + [(v, ph) for v in (0, 1) for ph in PHASES]),
                          min_size=n * n, max_size=n * n))
    pairs = np.zeros((2, n * n), dtype=complex)
    for i, (v, ph) in enumerate(cells):
        pairs[v, i] = ph
    return pairs.reshape(2, n, n)


@settings(max_examples=150, deadline=None)
@given(coefficient_pairs())
def test_explicit_design_round_trip(pair):
    a_coef, b_coef = pair
    d = design(a_coef, b_coef)
    assert d.n == a_coef.shape[0] and d.table.shape == (9, 1, 1)
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            assert np.array_equal(d.evaluate_qmatrix(a, b).data, a * a_coef + b * b_coef)
    # cod's code plane of aI + b(M - I) for M = I + B off the diagonal,
    # also from transposed planes, which are not C-contiguous.
    m = b_coef.copy()
    np.fill_diagonal(m, 1)
    eye = np.eye(len(m))
    for x in (qmatrix(m), conj_transpose(qmatrix(m))):
        assert np.array_equal(cod._design(x), design(eye, x.data - eye).code)


@settings(max_examples=200, deadline=None)
@given(random_designs())
def test_transpose_verdict_is_realness_and_conjugate(d):
    assert (certify_gram(d) and is_real(d)) == kernel_verdict(d, False)
    assert certify_gram(d) == kernel_verdict(d, True)
    acoef, bcoef = coefficients(d)
    assert is_real(d) == (not (acoef.imag.any() or bcoef.imag.any()))


def test_real_skew_design_passes_both_modes():
    d = design(np.eye(4), SKEW4)
    assert d.stype == (1, 3)
    assert certify_gram(d) and is_real(d)
    assert kernel_verdict(d, True) and kernel_verdict(d, False)
