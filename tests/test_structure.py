"""The form recogniser against the dense kernel.

``gram_is_scalar`` and ``sign_gram_is_scalar`` take their verdict from
``verify._recognise``, which decides the base form (``builder.base_form``)
and the doubled blocks (``qmatrix.doubled_blocks``) without a Gram
product; a realified matrix up to row signs (``qmatrix._realified_planes``)
is recognised by the matrix it realifies.  Each lemma is an equivalence,
so on every input the verdict must equal the dense kernel
``_gram_is_scalar``'s, and at small orders the Gaussian-integer oracle's.
"""

import contextlib
import io
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhadamard import (
    QMatrix,
    diag_similarity,
    double,
    full_report,
    gram_is_scalar,
    realify,
    serialize,
)
from qhadamard import builder, cli, qmatrix, verify
from qhadamard.field import FieldCtx, certify_character, character_is_even, make_field
from qhadamard.qmatrix import _gram_is_scalar, _row_panels, sign_gram_is_scalar
import reference
from conftest import skew_regular
from reference import (
    QALPHABET, build_triple, conference_matrix, gauss_is_scalar, gram_parts, maximize_excess_rows,
    parts_are_scalar, qmatrix as make, skew_type,
)

PRIMES = (3, 5, 7, 11, 13)
UNITS = np.array([1, 1j, -1, -1j])
ODD_PRIMES_TO_101 = [p for p in range(3, 102, 2) if all(p % d for d in range(3, p, 2))]


def twist(m, rng):
    return diag_similarity(m, UNITS[rng.integers(0, 4, m.n)])


def two_sided(m, rng):
    """diag(u) M diag(w) for random unit vectors u and w."""
    u, w = (UNITS[rng.integers(0, 4, m.n)] for _ in range(2))
    return make(u[:, None] * m.data * w)


def negate_row_pairs(w, rng):
    """``w`` with each row negated with probability 1/2."""
    signs = rng.choice(np.array([1, -1], dtype=np.int8), w.n)
    return QMatrix(w.re * signs[:, None])


def family(name, p, rng):
    """A Hadamard matrix of one of the families the lemmas cover."""
    s = skew_regular(p)
    if name == "S":
        return s
    if name == "twist":
        return twist(s, rng)
    if name == "two-sided":
        return two_sided(s, rng)
    if name == "double":
        return double(s)
    if name == "double-twist":
        return double(twist(s, rng))
    if name == "realify":
        return realify(s)
    if name == "realify-negated":
        return negate_row_pairs(realify(twist(s, rng)), rng)
    if name == "excess-w1":
        return maximize_excess_rows(realify(build_triple(s)[0]))[0]
    raise ValueError(name)


FAMILIES = ("S", "twist", "two-sided", "double", "double-twist", "realify",
            "realify-negated", "excess-w1")


def corrupt(m, rng):
    """``m`` with one cell changed to another value of its alphabet."""
    r, c = rng.integers(0, m.n, 2)
    data = np.array(m.data, dtype=complex)
    pool = [1, -1, 0] if m.im is None else list(QALPHABET)
    data[r, c] = rng.choice([v for v in pool if v != data[r, c]])
    return QMatrix(data.real) if m.im is None else make(data)


def verdicts(m, c):
    """(certifier, dense kernel) verdicts of M M* = cI."""
    if m.im is None:
        return sign_gram_is_scalar(m, c), _gram_is_scalar(m.re, None, c)
    return gram_is_scalar(m, c), _gram_is_scalar(m.re, m.im, c)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FAMILIES), st.sampled_from(PRIMES), st.booleans(),
       st.integers(-2, 2), st.integers(0, 2**32 - 1))
def test_certifier_matches_dense_kernel(name, p, corrupted, dc, seed):
    rng = np.random.default_rng(seed)
    m = family(name, p, rng)
    if corrupted:
        m = corrupt(m, rng)
    got, dense = verdicts(m, m.n + dc)
    assert type(got) is bool
    assert got == dense
    assert got == (not corrupted and dc == 0)
    if m.n <= 52:
        im = np.zeros_like(m.re) if m.im is None else m.im
        assert got == gauss_is_scalar(m.re, im, m.n + dc)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_doubled_block_b_is_certified_on_its_own(p):
    # [[A, iA], [iB, B]] with B neither A nor A*: B is certified too.
    rng = np.random.default_rng(p)
    a = skew_regular(p)
    b = twist(a, rng)
    cells = np.array(b.data, dtype=complex)
    bad = cells.copy()
    bad[1, 2] = -bad[1, 2]
    for b_cells, want in ((cells, True), (bad, False)):
        x = np.block([[a.data, 1j * a.data], [1j * b_cells, b_cells]])
        m = make(x)
        assert not np.array_equal(b_cells, a.data)
        assert not np.array_equal(b_cells, a.data.conj().T)
        _, (b_re, b_im), adjoint = qmatrix.doubled_blocks(m.re, m.im)
        assert not adjoint
        assert verify._recognise(b_re, b_im)[0] is want
        assert verify._recognise(m.re, m.im)[:2] == (want, False)
        assert gram_is_scalar(m, m.n) is want
        assert _gram_is_scalar(m.re, m.im, m.n) is want


def test_lemmas_recognise_their_forms():
    rng = np.random.default_rng(1)
    s = skew_regular(5)
    for m in (s, twist(s, rng), two_sided(s, rng)):
        assert builder.base_form(m.re, m.im) is not None
        assert verify._recognise(m.re, m.im)[0] is True
        assert gram_is_scalar(m, m.n + 1) is False
    for m in (double(s), make(np.block([[s.data, 1j * s.data], [1j * s.data, s.data]]))):
        assert builder.base_form(m.re, m.im) is None
        assert qmatrix.doubled_blocks(m.re, m.im) is not None
        assert verify._recognise(m.re, m.im)[0] is True
    w = realify(s)
    for v in (w, negate_row_pairs(w, rng)):
        planes = qmatrix._realified_planes(v.re)
        assert planes is not None
        assert builder.base_form(*planes) is not None
        assert verify._recognise(*planes)[0] is True
    # Not of the forms: a changed cell, zero cells, odd order.
    bad = corrupt(s, rng)
    assert builder.base_form(bad.re, bad.im) is None or not verify._recognise(bad.re, bad.im)[0]
    w2 = realify(build_triple(s)[1])
    assert qmatrix._realified_planes(w2.re) is None
    assert qmatrix.doubled_blocks(np.eye(3, dtype=np.int8), np.zeros((3, 3), np.int8)) is None


def _reference_verdict(re, im):
    """None, or whether X + X* = 2I, by the full-plane base-form test."""
    form = reference.base_form(re, im)
    if form is None:
        return None
    ctx, (ur, ui), (wr, wi) = form
    return (np.array_equal(wr, ur) and np.array_equal(wi, -ui)
            and character_is_even(ctx.char_table, ctx.p))


def test_panelled_base_form_matches_the_full_plane_test(monkeypatch):
    # Two cosets a panel, so that p = 13 has seven panels.  The first
    # corruptions sit on the last row of a panel and the first of the next.
    p = 13
    n = p * p + 1
    monkeypatch.setattr(builder, "_FORM_PANEL", 2 * p * n)
    rows = [1 + 2 * k * p + d for k in range(1, 7) for d in (-1, 0)]
    rng = np.random.default_rng(13)
    s = skew_regular(p)
    edits = {"negated": lambda r, i: (-r, -i), "rotated": lambda r, i: (-i, r),
             "zeroed": lambda r, i: (0, 0)}
    for clean in (s, twist(s, rng), two_sided(s, rng)):
        assert builder.base_form(clean.re, clean.im)[1] is _reference_verdict(clean.re, clean.im)
    for trial in range(200):
        m = s if trial % 2 else twist(s, rng)
        re, im = m.re.copy(), m.im.copy()
        r = rows[trial] if trial < len(rows) else rng.integers(0, n)
        c = rng.integers(0, n)
        re[r, c], im[r, c] = edits[("negated", "rotated", "zeroed")[trial % 3]](re[r, c], im[r, c])
        got = builder.base_form(re, im)
        assert (None if got is None else got[1]) == _reference_verdict(re, im)


@pytest.mark.parametrize("p", ODD_PRIMES_TO_101)
def test_character_certificate_passes(p):
    assert certify_character(FieldCtx(p).char_table, p) is True


def _conference_oracle(table, p):
    """C symmetric with zero diagonal, +-1 off it and C C^T = qI, from
    the matrix ``conference_matrix`` builds out of ``table``."""
    q = p * p
    c = conference_matrix(SimpleNamespace(p=p, q=q, char_table=table)).re.astype(np.int64)
    off = ~np.eye(q + 1, dtype=bool)
    return bool(np.array_equal(c, c.T) and not c.diagonal().any()
                and (np.abs(c[off]) == 1).all()
                and np.array_equal(c @ c.T, q * np.eye(q + 1)))


def neg_index(x, p):
    """The index of -x for the element at index x = b*p + a."""
    return (-(x // p) % p) * p + (-(x % p) % p)


@pytest.mark.parametrize("p", (3, 5, 7, 13))
def test_character_certificate_fails_on_broken_tables(p):
    table = FieldCtx(p).char_table
    assert _conference_oracle(table, p)
    # One pair chi(x), chi(-x) flipped: still symmetric, the sum off by 4.
    x = p + 1
    flipped = table.copy()
    flipped[[x, neg_index(x, p)]] *= -1
    assert flipped.sum() != 0
    # A +1 and a -1 swapped: the sum still 0, no longer symmetric.
    plus, minus = np.flatnonzero(table == 1)[0], np.flatnonzero(table == -1)[0]
    swapped = table.copy()
    swapped[[plus, minus]] = swapped[[minus, plus]]
    assert swapped.sum() == 0
    assert not np.array_equal(swapped, swapped[neg_index(np.arange(p * p), p)])
    # A pair of +1s traded for a pair of -1s: symmetric with sum 0, so
    # only the autocorrelation R tells it apart.
    traded = table.copy()
    traded[[plus, neg_index(plus, p), minus, neg_index(minus, p)]] *= -1
    assert traded.sum() == 0
    for broken in (flipped, swapped, traded):
        assert certify_character(broken, p) is _conference_oracle(broken, p)
    assert certify_character(flipped, p) is certify_character(swapped, p) is False
    # At p = 3 the trade happens to give another valid table.
    assert certify_character(traded, p) is (p == 3)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((3, 5)), st.integers(0, 2**32 - 1))
def test_character_certificate_matches_conference_oracle(p, seed):
    # Random edits of the table, half of them keeping it symmetric.
    rng = np.random.default_rng(seed)
    table = FieldCtx(p).char_table.copy()
    for x in rng.integers(0, p * p, rng.integers(1, 3)):
        value = rng.choice([-1, 0, 1])
        table[x] = value
        if rng.random() < 0.5:
            table[neg_index(x, p)] = value
    assert certify_character(table, p) == _conference_oracle(table, p)
    c = conference_matrix(SimpleNamespace(p=p, q=p * p, char_table=table)).re
    assert character_is_even(table, p) is bool(np.array_equal(c, c.T))


@pytest.mark.parametrize("edit", ("swapped", "zeroed"))
def test_report_does_not_trust_the_character_table(edit, monkeypatch):
    # X = I - iC for the conference matrix of a broken table, with a real
    # 1 where C is zero off the diagonal.  Swapping a +1 and a -1 makes C
    # non-symmetric; zeroing chi(x) and chi(-x) leaves C symmetric with
    # zero cells.  Neither X is Hadamard or skew.  The process's context
    # of p is cached and certified first: a verdict is kept with the
    # table it certifies, never by p.
    p = 5
    cached = make_field(p)
    assert cached.certified and cached.even
    table = cached.char_table.copy()
    plus, minus = np.flatnonzero(table == 1)[0], np.flatnonzero(table == -1)[0]
    if edit == "swapped":
        table[[plus, minus]] = table[[minus, plus]]
    else:
        table[[plus, neg_index(plus, p)]] = 0
    # A context of its own over the broken table, as the recogniser's.
    ctx = FieldCtx(p)
    object.__setattr__(ctx, "char_table", table)
    c = conference_matrix(ctx).re
    eye = np.eye(p * p + 1)
    m = make(eye - 1j * c + ((c == 0) & (eye == 0)))
    monkeypatch.setattr(builder, "context", lambda p: ctx)
    assert (builder.base_form(m.re, m.im) is None) is (edit == "zeroed")
    report = full_report(m)
    assert report.hadamard is gauss_is_scalar(m.re, m.im, m.n) is False
    assert report.skew is skew_type(m) is False
    assert ctx.certified is certify_character(table, p) is False
    assert make_field(p) is cached and cached.certified


def test_panels_cover_the_rows():
    # The dense Gram and skew walks (128 rows), the default 2^16 cells
    # (``matio``, the screen, ``diag_similarity``), the constructor's
    # 2^18, ``base_form``'s cosets and panels narrower than one row.
    cases = [(n, n, 128 * n) for n in (1, 10, 128, 129, 300, 962)]
    cases += [(n, n, 1 << 16) for n in (1, 255, 256, 257, 10202)]
    cases += [(1060, 1060, 1 << 18), (13, 13 * 170, 1 << 18), (101, 101 * 10202, 1 << 18),
              (5, 10, 3), (7, 3, 7)]
    for rows, cols, cells in cases:
        most = max(1, cells // cols)
        ranges = list(_row_panels(rows, cols, cells))
        assert ranges[0].start == 0 and ranges[-1].stop == rows
        assert all(a.stop == b.start for a, b in zip(ranges, ranges[1:]))
        assert all(r.step is None and 1 <= r.stop - r.start <= most for r in ranges)
        assert all(r.stop - r.start == most for r in ranges[:-1])


LARGE = {"S13": lambda: skew_regular(13), "D11": lambda: double(skew_regular(11)),
         "R11": lambda: realify(skew_regular(11))}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(("S13", "D11", "R11", 129, 200)), st.integers(0, 2**32 - 1))
def test_panelled_kernel_matches_int64_gram(source, seed):
    # Orders above one panel: Hadamard matrices with up to two cells
    # negated, and random matrices of units.
    rng = np.random.default_rng(seed)
    if source in LARGE:
        m = LARGE[source]()
        x = np.array(m.data, dtype=complex)
        real = m.im is None
    else:
        real = rng.random() < 0.5
        x = rng.choice([-1, 1] if real else UNITS, (source, source)).astype(complex)
    n = x.shape[0]
    for _ in range(rng.integers(0, 3)):
        r, c = rng.integers(0, n, 2)
        x[r, c] = -x[r, c]
    parts = gram_parts(x.real, x.imag)
    planes = (x.real.astype(np.int8), None if real else x.imag.astype(np.int8))
    for c in (n, int(parts[0][0, 0]), int(parts[0][0, 0]) + 1, complex(n, 1)):
        assert _gram_is_scalar(*planes, c) is parts_are_scalar(parts, c)


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def test_certified_commands_skip_the_dense_kernel(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense Gram kernel called")

    monkeypatch.delenv("MEM_BUDGET_MB", raising=False)
    monkeypatch.setattr(qmatrix, "_gram_is_scalar", refuse)
    s = skew_regular(13)
    t = twist(s, np.random.default_rng(13))
    files = {"s": s, "t": t, "d": double(s), "dt": double(t), "r": realify(s)}
    for name, m in files.items():
        (tmp_path / f"{name}.qhm").write_bytes(serialize(m))
    argvs = [["construct", "--p", "13", "--out", str(tmp_path / "c.qhm")],
             ["excess", "--p", "5", "--json"]]
    for name in files:
        argvs.append(["verify", str(tmp_path / f"{name}.qhm"), "--json"])
    for name in ("s", "t", "d"):
        argvs.append(["double", str(tmp_path / f"{name}.qhm"), "--out", str(tmp_path / "o.qhm")])
    for argv in argvs:
        assert _run(argv) == 0, argv


def test_corrupted_files_reach_the_dense_kernel(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape[0])
        return dense(*args, **kwargs)

    dense = qmatrix._gram_is_scalar
    monkeypatch.setattr(qmatrix, "_gram_is_scalar", counted)
    rng = np.random.default_rng(5)
    s = skew_regular(5)
    t = twist(s, rng)
    for m in (s, t, double(s), double(t), realify(s)):
        for r, c in ((0, 0), (0, 7), (7, 0), (3, 11)):
            re = m.re.copy()
            im = None if m.im is None else m.im.copy()
            re[r, c] *= -1
            if im is not None:
                im[r, c] *= -1
            path = tmp_path / "bad.qhm"
            path.write_bytes(serialize(QMatrix(re, im)))
            calls.clear()
            assert _run(["verify", str(path), "--json"]) == 0
            assert calls


def test_dense_fallback_peak_memory():
    # A corrupted order-962 matrix fails in the first panel; the kernel
    # holds its two float planes and one small panel.
    s = skew_regular(31)
    re, im = s.re.copy(), s.im.copy()
    re[400, 17], im[400, 17] = im[400, 17], re[400, 17]
    m = QMatrix(re, im)
    n = m.n
    tracemalloc.start()
    try:
        assert gram_is_scalar(m, n) is False
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * n * 4
