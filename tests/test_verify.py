import json
from collections import Counter

import numpy as np
import pytest

from qhadamard import (
    QMatrix,
    check_skew_type,
    diag_similarity,
    double,
    full_report,
    realify,
)
from qhadamard import matio, qmatrix as qmatrix_module, verify
from conftest import field, skew_regular, FIXTURES
from reference import (
    block2,
    build_triple,
    check_quaternary_hadamard,
    check_semi_regular,
    conj_transpose,
    gauss_is_scalar,
    is_absolutely_regular,
    maximize_excess_rows,
    negate_rows,
    qmatrix,
    row_sums,
    scale,
    semi_regular_witness,
    skew_type,
)


def eye(n):
    return qmatrix(np.eye(n, dtype=complex))


def test_check_quaternary_hadamard_examples():
    assert check_quaternary_hadamard(qmatrix([[1 + 0j, 1], [1, -1]]))
    assert not check_quaternary_hadamard(qmatrix(np.ones((2, 2), dtype=complex)))
    bh = matio.parse((FIXTURES / "appendixB_H.qhm").read_bytes())
    assert check_quaternary_hadamard(bh)


def test_check_skew_type_examples():
    assert check_skew_type(eye(3)) and check_skew_type(QMatrix(np.eye(3)))
    assert not check_skew_type(qmatrix(np.ones((2, 2), dtype=complex)))
    assert check_skew_type(skew_regular(5))
    assert check_skew_type(qmatrix([[1, 1j], [1j, 1]]))
    assert not check_skew_type(qmatrix([[1, 1j], [-1j, 1]]))
    assert check_skew_type(QMatrix([[1, 1], [-1, 1]]))
    assert not check_skew_type(QMatrix([[1, 1], [1, 1]]))
    assert not check_skew_type(QMatrix([[1, 0], [0, -1]]))


def test_check_semi_regular_examples():
    assert check_semi_regular(double(skew_regular(3)), 4, 2)
    assert check_semi_regular(skew_regular(3), 1, 3)
    assert not check_semi_regular(eye(2), 1, 1)
    with pytest.raises(ValueError):
        check_semi_regular(eye(3), 1, 1)


@pytest.mark.parametrize("make", [
    lambda: skew_regular(3),
    lambda: skew_regular(5),
    lambda: double(skew_regular(3)),
    lambda: matio.parse((FIXTURES / "appendixB_DHD.qhm").read_bytes()),
    lambda: realify(skew_regular(3)),
    lambda: _corrupted(skew_regular(3)),
    lambda: negate_rows(realify(build_triple(skew_regular(3))[2]), [0, 3]),
    lambda: eye(2),
    lambda: qmatrix(np.full((130, 130), 1j)),
    lambda: QMatrix(np.ones((130, 130))),
    lambda: _twisted(skew_regular(5)),
    # A = -S3 puts the sum -4 + 2i of the top rows, (2, 4) with 2^2 + 4^2 = 20,
    # first among the distinct sums; the sums of the twisted bottom rows differ.
    lambda: _doubled(scale(skew_regular(3), -1), _twisted(scale(skew_regular(3), -1))),
    lambda: _doubled(skew_regular(3), skew_regular(3)),
], ids=["S3", "S5", "D3", "DHD", "R3", "S3-corrupted", "W3", "I2", "iJ130", "J130",
        "T5", "D3-twisted-B", "XS3"])
def test_report_row_sum_fields_match_reference(make):
    # The report derives these from the distinct sums of one row-sum multiset.
    m = make()
    report = full_report(m)
    sums = row_sums(m)
    assert report.row_sum_multiset == dict(Counter(sums))
    assert report.regular == (sums[0] if len(set(sums)) == 1 else None)
    assert (report.abs_regular, report.abs_value_sq) == is_absolutely_regular(m)
    assert report.semi_regular_witness == (semi_regular_witness(m) if report.hadamard else None)


@pytest.mark.parametrize("n", (2**15 - 1, 2**15))
def test_row_sums_hold_a_full_row(n):
    # int16 holds a sum of 2^15 - 1 units and not one of 2^15, where the
    # accumulator widens to int32.  Two rows of n cells each suffice.
    re = np.ones((2, n), dtype=np.int8)
    re[1] = -1
    x, y = verify._row_sums(re, -re)
    assert x.tolist() == [n, -n] and y.tolist() == [-n, n]


def test_full_report_p7():
    report = full_report(skew_regular(7))
    assert report.regular == 1 - 7j
    assert report.skew and report.hadamard
    assert report.abs_value_sq == 50


def test_full_report_appendix_b_twisted():
    report = full_report(matio.parse((FIXTURES / "appendixB_DHD.qhm").read_bytes()))
    assert report.hadamard
    assert report.abs_regular and report.abs_value_sq == 50
    assert report.regular is None
    assert report.semi_regular_witness == (5, 5)


def test_full_report_w3_zero_total():
    q1, _, q3 = build_triple(skew_regular(3))
    _, rep = maximize_excess_rows(realify(q1))
    w3 = negate_rows(realify(q3), rep.rows_negated)
    report = full_report(w3)
    assert report.excess == 0


def test_full_report_is_pure():
    s = skew_regular(3)
    assert full_report(s).to_json() == full_report(s).to_json()


def test_report_json_schema():
    payload = full_report(skew_regular(3)).to_json()
    json.dumps(payload)
    assert payload["order"] == 10
    assert payload["regular"] == [1, -3]
    assert payload["row_sums"] == [[1, -3, 10]]
    assert payload["hadamard"] and payload["skew"]


def _twisted(m):
    """D M D* for the phase vector 1, i, -1, -i, 1, ... of M's order."""
    return diag_similarity(m, np.resize([1, 1j, -1, -1j], m.n))


def _doubled(a, b):
    """[[A, iA], [iB, B]]: not A's double unless B = A*."""
    return block2(a, scale(a, 1j), scale(b, 1j), b)


def _corrupted(m):
    re = m.re.copy()
    re[1, 2] = -re[1, 2]
    if m.im is None:
        return QMatrix(re)
    im = m.im.copy()
    im[1, 2] = -im[1, 2]
    return QMatrix(re, im)


@pytest.mark.parametrize("make, hadamard", [
    (lambda: skew_regular(3), True),
    (lambda: _corrupted(skew_regular(3)), False),
    (lambda: realify(skew_regular(3)), True),
    (lambda: _corrupted(realify(skew_regular(3))), False),
    # A zero cell in a row of u or of v, the row pairs (u, v) of realify.
    (lambda: _with_cell(realify(skew_regular(5)), 4, 7, 0j), False),
    (lambda: _with_cell(realify(skew_regular(5)), 9, 0, 0j), False),
], ids=["qhm", "qhm-rejected", "rhm", "rhm-rejected", "rhm-zero-even-row",
        "rhm-zero-odd-row"])
def test_report_json_serializes_with_bool_verdicts(make, hadamard):
    m = make()
    payload = full_report(m).to_json()
    json.dumps(payload)
    for key in ("hadamard", "skew", "abs_regular"):
        assert type(payload[key]) is bool, key
    assert payload["hadamard"] is hadamard
    if m.im is None:
        assert verify.check_real_hadamard(m) is hadamard


def test_sign_matrix_report():
    w = QMatrix([[1, 1], [1, -1]])
    report = full_report(w)
    assert report.hadamard
    assert report.excess == 2


def test_skew_verdict_preserved_by_similarity():
    s = skew_regular(3)
    rng = np.random.default_rng(7)
    phases = np.array([1, 1j, -1, -1j])
    for _ in range(20):
        v = phases[rng.integers(0, 4, size=10)]
        t = diag_similarity(s, v)
        assert check_skew_type(t)
        assert check_quaternary_hadamard(t)


def test_regular_hadamard_norm_consistency():
    # a regular verdict on a Hadamard matrix must satisfy |sum|^2 = order
    report = full_report(skew_regular(5))
    assert report.abs_value_sq == 26 == report.order


def _random_skew(n, rng, real):
    """A random M = I + Q with Q* = -Q: a unit diagonal and, above it,
    cells in the alphabet mirrored as -conj below."""
    values = np.array([0, 1, -1] if real else [0, 1, -1, 1j, -1j])
    upper = np.triu(values[rng.integers(0, len(values), (n, n))], 1)
    m = np.eye(n) + upper - upper.conj().T
    return QMatrix(m) if real else qmatrix(m)


def _with_cell(m, r, c, value):
    re, im = m.re.copy(), None if m.im is None else m.im.copy()
    re[r, c] = value.real
    if im is not None:
        im[r, c] = value.imag
    return QMatrix(re, im)


@pytest.mark.parametrize("n", (127, 128, 129, 257))
@pytest.mark.parametrize("real", (False, True))
def test_skew_type_panels_match_one_shot_formula(n, real):
    rng = np.random.default_rng(n)
    m = _random_skew(n, rng, real)
    assert check_skew_type(m) and skew_type(m)
    # Cells above, below and on the diagonal, at and beside the edges of
    # the 128-row panels, and at random.
    edges = sorted({0, 1, 126, 127, 128, 129, n - 2, n - 1} & set(range(n)))
    cells = [(r, c) for r in edges for c in edges]
    cells += [tuple(rng.integers(0, n, 2)) for _ in range(20)]
    values = (1, -1, 0) if real else (1, -1, 1j, -1j, 0)
    for r, c in cells:
        old = complex(m.re[r, c], 0 if m.im is None else m.im[r, c])
        for value in values:
            if value != old:
                bad = _with_cell(m, r, c, complex(value))
                assert (check_skew_type(bad), skew_type(bad)) == (False, False), (r, c, value)


UNITS = np.array([1, 1j, -1, -1j])


def _doubled(a, b):
    """[[A, iA], [iB, B]], built from the values."""
    return block2(a, scale(a, 1j), scale(b, 1j), b)


def _report_family(name, p):
    """A matrix of one of the forms ``full_report`` recognises, or of a
    near miss, seeded by its name and p."""
    rng = np.random.default_rng([p, len(name), sum(map(ord, name))])
    s = skew_regular(p)
    u, w = (UNITS[rng.integers(0, 4, s.n)] for _ in range(2))
    signs = rng.choice([1, -1], s.n)
    base = {
        "S": s,
        "twist": diag_similarity(s, u),
        "two-sided": qmatrix(u[:, None] * s.data * w),
        "rows-negated": qmatrix(signs[:, None] * s.data),
    }
    if name in base:
        return base[name]
    if name == "B-not-A*":
        return _doubled(s, base["two-sided"])
    if name == "B=A^T":
        return _doubled(s, qmatrix(np.asarray(s.data).T))
    # A or B itself with one cell negated, in both blocks it fills.
    bad = np.array(s.data)
    bad[1, 2] *= -1
    if name == "B-not-Hadamard":
        return _doubled(s, qmatrix(bad))
    if name == "A-not-Hadamard":
        return _doubled(qmatrix(bad), conj_transpose(qmatrix(bad)))
    a = base[name.removeprefix("double-")]
    return _doubled(a, conj_transpose(a))


REPORT_FAMILIES = ("S", "twist", "two-sided", "rows-negated", "double-S", "double-twist",
                   "double-two-sided", "double-rows-negated", "B-not-A*", "B=A^T",
                   "B-not-Hadamard", "A-not-Hadamard")
CELL_EDITS = {
    "negated": lambda x: -x,
    "rotated": lambda x: 1j * x,
    "planes-swapped": lambda x: complex(x.imag, x.real),
}


def _oracle_report(m):
    """``to_json`` of the report, from the Gaussian-integer Gram (order at
    most 20, else the exact complex128 product of the cell values), the
    one-shot skew test and the row sums as Python complex numbers."""
    x = np.asarray(m.data, dtype=complex)
    if m.n <= 20:
        hadamard = gauss_is_scalar(m.re, m.im, m.n)
    else:
        hadamard = bool(np.array_equal(x @ x.conj().T, m.n * np.eye(m.n)))
    sums = row_sums(m)
    regular = sums[0] if len(set(sums)) == 1 else None
    abs_regular = is_absolutely_regular(m)[0]
    witness = semi_regular_witness(m) if hadamard else None
    return {
        "order": m.n, "hadamard": hadamard, "skew": skew_type(m),
        "row_sums": sorted([int(s.real), int(s.imag), c] for s, c in Counter(sums).items()),
        "regular": None if regular is None else [int(regular.real), int(regular.imag)],
        "abs_regular": abs_regular,
        "semi_regular_witness": None if witness is None else list(witness),
        "excess": None,
    }


@pytest.mark.parametrize("p", (3, 5, 7, 13))
@pytest.mark.parametrize("name", REPORT_FAMILIES)
def test_structural_report_matches_general_path(name, p):
    m = _report_family(name, p)
    rng = np.random.default_rng(p)
    # Corners of the matrix and of its blocks, and seeded cells.
    h = m.n // 2
    cells = [(0, 0), (h, h), (0, m.n - 1), (h - 1, h)] + [tuple(rng.integers(0, m.n, 2))
                                                         for _ in range(2)]
    cases = [("clean", m)]
    for edit, change in CELL_EDITS.items():
        for r, c in cells:
            x = np.array(m.data, dtype=complex)
            x[r, c] = change(x[r, c])
            cases.append((f"{edit} at {(r, c)}", qmatrix(x)))
    for label, x in cases:
        got = full_report(x).to_json()
        assert got == _oracle_report(x), label
        assert got["hadamard"] is (label == "clean" and "not-Hadamard" not in name)


def test_verify_reads_the_families_from_their_forms(tmp_path, capsys, monkeypatch):
    import test_golden_cli as golden

    def refuse(*args, **kwargs):
        raise AssertionError("a recognised form reached the general path")

    def check(name):
        run = tmp_path / name
        run.mkdir()
        assert golden.run_digests(golden.GRID[name], run, capsys) == golden.GOLDEN[name], name

    # Every family the recogniser covers: S, its twist, its double and the
    # double of that, construct and excess, and the realification of S.
    # ``verify`` of a real file takes its skew verdict from the skew check,
    # which is refused only for the quaternary inputs.
    monkeypatch.setattr(qmatrix_module, "_gram_is_scalar", refuse)
    with monkeypatch.context() as skew:
        skew.setattr(verify, "check_skew_type", refuse)
        for name in ("verify-json-s13", "verify-json-t13", "verify-json-d13", "double-s13",
                     "double-d13", "excess-5-json", "construct-7"):
            check(name)
    check("verify-json-r13")
