"""Plane invariants of every matrix the package returns.

There is one matrix type and one public constructor, which always
validates.  Each result must hold read-only int8 planes with entries in
{-1, 0, 1} and disjoint supports, and have ``im`` None exactly when it
is real (RHM).  The constructor refuses anything else.  A matrix is
validated once, where it enters: ``parse`` checks a file's every cell,
and the producers whose planes are valid by construction (the builders,
``diag_similarity`` and ``realify``) wrap them with ``QMatrix._frozen``,
which checks nothing again; the property tests below check their planes
independently.  A design holds a read-only code plane and level table,
made only by ``cod`` from S and its skew core.  Every matrix read from
it is its file, read by ``parse``; the nine values that file's
characters are formed from go through the constructor.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhadamard import (
    MatrixError,
    QMatrix,
    cod_recurse,
    diag_similarity,
    double,
    parse,
    realify,
    serialize,
    skew_core,
)
from qhadamard import cli, cod, matio
from qhadamard.qmatrix import PHASES
from conftest import field, skew_regular
from reference import (
    QALPHABET, block2, build_triple, conference_matrix, conj_transpose, equal,
    maximize_excess_rows, negate_rows, paley_qhm, qmatrix, scale,
)


def assert_planes(m, real):
    for plane in (m.re,) if real else (m.re, m.im):
        assert plane.dtype == np.int8 and not plane.flags.writeable
        assert plane.shape == (m.n, m.n)
        assert plane.size == 0 or -1 <= plane.min() <= plane.max() <= 1
    assert (m.im is None) == real
    if not real:
        assert not (m.re & m.im).any()


def qmatrices(max_n=6):
    return st.integers(1, max_n).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from(QALPHABET), min_size=n, max_size=n),
        min_size=n, max_size=n).map(qmatrix))


@settings(max_examples=120)
@given(qmatrices(), st.sampled_from(PHASES), st.data())
def test_matrix_operations(m, phase, data):
    v = np.array(data.draw(st.lists(st.sampled_from(PHASES), min_size=m.n, max_size=m.n)))
    w = realify(m)
    zero = qmatrix(np.zeros((m.n, m.n), dtype=complex))
    for result in (
        conj_transpose(m),
        scale(m, phase),
        diag_similarity(m, v),
        block2(m, conj_transpose(m), scale(m, phase), zero),
        parse(serialize(m)),
    ):
        assert_planes(result, real=False)
    for result in (w, conj_transpose(w), parse(serialize(w))):
        assert_planes(result, real=True)
    assert equal(parse(serialize(m)), m) and equal(parse(serialize(w)), w)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((3, 5)), st.data())
def test_constructions(p, data):
    ctx = field(p)
    s = skew_regular(p)
    v = np.array(data.draw(st.lists(st.sampled_from(PHASES), min_size=s.n, max_size=s.n)))
    triple = build_triple(s)
    w, _ = maximize_excess_rows(realify(triple[0]))
    rows = data.draw(st.lists(st.integers(0, w.n - 1), max_size=8, unique=True))
    for result in (paley_qhm(ctx), s, double(s), skew_core(diag_similarity(s, v)),
                   *triple):
        assert_planes(result, real=False)
    # The conference matrix is real, like every RHM result.
    for result in (conference_matrix(ctx), w, negate_rows(w, rows)):
        assert_planes(result, real=True)


@pytest.mark.parametrize("p, k", [(3, 0), (3, 1), (5, 0)])
def test_cod_designs(p, k):
    for d in (cod._factors(field(p))[0], cod_recurse(field(p), k)):
        assert_planes(d.evaluate_qmatrix(1, 0), real=False)
        assert_planes(d.evaluate_qmatrix(0, 1), real=False)
        assert not (d.code.flags.writeable or d.table.flags.writeable)
        with pytest.raises(AttributeError):
            d.table = d.table


@pytest.mark.parametrize("p, k", [(3, 0), (3, 1), (3, 2), (5, 1)])
def test_evaluate_qmatrix_at_units(p, k):
    d = cod_recurse(field(p), k)
    acoef, bcoef = d.evaluate_qmatrix(1, 0).data, d.evaluate_qmatrix(0, 1).data
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            m = d.evaluate_qmatrix(a, b)
            assert_planes(m, real=False)
            assert np.array_equal(m.data, a * acoef + b * bcoef)


def test_evaluate_qmatrix_still_validates():
    # Points off {-1, 0, 1}^2 leave the alphabet and are refused.
    d = cod._factors(field(3))[0]
    for a, b in ((2, 0), (0, 2), (1, -2), (2, 3)):
        with pytest.raises(MatrixError):
            d.evaluate_qmatrix(a, b)


@pytest.mark.parametrize("re, im", [(2, 0), (1, 1)])
def test_text_checks_the_nine_values(monkeypatch, tmp_path, re, im):
    # Code 1 (a) at (1, 1) made 2, then 1 + i: the file is refused
    # before its buffer is made.
    values = dict(cod._VALUES)
    values[1, 1] = values[1, 1].copy()
    values[1, 1][:, 1] = re, im
    monkeypatch.setattr(cod, "_VALUES", values)
    frames, frame = [], matio._frame
    monkeypatch.setattr(matio, "_frame", lambda *args: frames.append(args) or frame(*args))
    with pytest.raises(MatrixError):
        cod._factors(field(3))[0].text(1, 1)
    out = tmp_path / "e.qhm"
    assert cli.main(["cod", "--p", "3", "--k", "1", "--eval", "1,1", "--out", str(out)]) == 1
    assert frames == [] and not out.exists()


def test_add_still_validates():
    # The public constructor, the boundary for the library's callers,
    # refuses entries outside {-1, 0, 1}, overlapping supports, planes
    # that are not square or differ in shape, and complex planes.
    one = np.ones((2, 2), dtype=np.int8)
    eye = np.eye(2, dtype=np.int8)
    for re, im in (
        (one + eye, None),              # 2 on the diagonal
        (-one - eye, None),             # -2
        (np.full((2, 2), -128, dtype=np.int8), None),
        (np.full((2, 2), 0.5), None),
        (eye, eye),                     # 1 + i: overlapping supports
        (eye, one - eye + 2 * eye),     # an im entry of 2
        (np.ones((2, 3)), None),
        (np.ones(4), None),
        (eye, np.zeros((3, 3))),
        (np.eye(2, dtype=complex), None),
        (eye, np.eye(2, dtype=complex)),
    ):
        with pytest.raises(MatrixError):
            QMatrix(re, im)
    other = qmatrix([[0, 1j], [-1, 0]])
    assert equal(QMatrix(eye + other.re, other.im), qmatrix([[1, 1j], [-1, 1]]))


def test_commands_validate_each_matrix_once(monkeypatch, tmp_path, capsys):
    # Files are checked by parse and made matrices by their producers,
    # so no command runs the validating constructor again; cod --eval
    # runs it once, on the nine values.
    calls = []
    init = QMatrix.__init__

    def counted(self, *args):
        calls.append(np.shape(args[0]))
        init(self, *args)

    monkeypatch.setattr(QMatrix, "__init__", counted)
    (tmp_path / "v.txt").write_text("1 i - j " * 6 + "1 i\n")
    monkeypatch.chdir(tmp_path)
    for argv in (
        "construct --p 5 --out s.qhm",
        "verify s.qhm --json",
        "double s.qhm --out d.qhm",
        "verify d.qhm --json",
        "core s.qhm --out c.qhm",
        "twist s.qhm --v v.txt --out t.qhm",
        "verify t.qhm --json",
        "realify s.qhm --out r.rhm",
        "verify r.rhm --json",
        "excess --p 5 --json",
        "cod --p 3 --k 1",
    ):
        assert cli.main(argv.split()) == 0, argv
    assert calls == []
    assert cli.main("cod --p 3 --k 1 --eval 1,1 --out e.qhm".split()) == 0
    assert len(calls) == 1
    capsys.readouterr()
