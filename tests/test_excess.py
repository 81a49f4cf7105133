import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter

import numpy as np
import pytest

import qhadamard.excess as excess_module
import qhadamard.qmatrix as qmatrix_module
from qhadamard import MatrixError, QMatrix, gram_is_scalar, realify, run_pipeline
from qhadamard.cli import main
from qhadamard.qmatrix import sign_gram_is_scalar
from qhadamard.verify import check_real_hadamard, check_skew_type
from conftest import FIXTURES, field, skew_regular
from reference import (
    build_triple,
    check_quaternary_hadamard,
    dense_pipeline,
    equal,
    excess,
    is_regular,
    maximize_excess_rows,
    negate_rows,
    qmatrix,
)

ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
# sha256 prefixes of ``excess --p P --json`` as the dense pipeline printed it.
JSON_DIGESTS = {3: "0e87ab0a7da50872", 5: "815a4d649be10924", 7: "f4e8867a119d1af5",
                11: "449a6287afeb82de", 13: "f93ebb1afa60f0d2"}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_triple_order_one():
    q1, q2, q3 = build_triple(qmatrix([[1 + 0j]]))
    assert equal(q3, qmatrix([[1, 1j], [1j, 1]]))
    assert equal(q1, q3)
    assert equal(q2, qmatrix(np.zeros((2, 2), dtype=complex)))


def test_build_triple_p3():
    s = skew_regular(3)
    q1, q2, q3 = build_triple(s)
    assert q1.n == 20
    assert gram_is_scalar(q1, 20)
    assert np.array_equal(q2.data @ q2.data.conj().T, 18 * np.eye(20))
    assert equal(qmatrix(q2.data + q3.data), q1)


def test_build_triple_rejects_non_skew_regular():
    with pytest.raises(MatrixError):
        build_triple(qmatrix(np.eye(4, dtype=complex)))


def test_excess_examples():
    assert excess(QMatrix(np.eye(4, dtype=int))) == 4
    assert excess(QMatrix(np.ones((2, 2), dtype=int))) == 4


def test_w1_row_sum_multiset_before_negation():
    for p in (3, 5, 7):
        q1, _, _ = build_triple(skew_regular(p))
        w1 = realify(q1)
        sums = Counter(int(s) for s in w1.re.sum(axis=1))
        assert sums == {2 + 2 * p: 2 + 2 * p * p, 2 - 2 * p: 2 + 2 * p * p}


def test_w1_excess_before_negation_p3():
    q1, _, _ = build_triple(skew_regular(3))
    assert excess(realify(q1)) == 20 * 8 + 20 * (-4)


def test_maximize_excess_identity_unchanged():
    eye = QMatrix(np.eye(4, dtype=int))
    flipped, report = maximize_excess_rows(eye)
    assert equal(flipped, eye)
    assert report.rows_negated == []
    assert report.excess_after == 4


def test_maximize_excess_zero_rows_unneagted():
    w = QMatrix([[1, -1], [-1, -1]])
    flipped, report = maximize_excess_rows(w)
    assert equal(flipped, QMatrix([[1, -1], [1, 1]]))
    assert report.rows_negated == [1]
    assert report.excess_before == -2 and report.excess_after == 2


@pytest.mark.parametrize("p", (3, 5, 7))
def test_pipeline_certifications(p):
    s = skew_regular(p)
    q1, q2, q3 = build_triple(s)
    w1, w2, w3 = realify(q1), realify(q2), realify(q3)
    n = 4 + 4 * p * p
    # W(n, weight): the Gram diagonal is the row weight.
    for w, weight in ((w1, n), (w2, 4 * p * p), (w3, 4)):
        assert w.n == n and sign_gram_is_scalar(w, weight)
    assert np.array_equal(w1.re, w2.re + w3.re)
    assert ((w2.re != 0) & (w3.re != 0)).sum() == 0

    w1_max, report = maximize_excess_rows(w1)
    assert report.excess_after == 8 * p * (1 + p * p)
    assert report.excess_after == int(np.abs(w1.re.sum(axis=1)).sum())
    assert check_real_hadamard(w1_max)

    w2_neg = negate_rows(w2, report.rows_negated)
    assert set(w2_neg.re.sum(axis=1)) == {2 * p}
    assert excess(w2_neg) == 2 * p * n
    assert excess(negate_rows(w3, report.rows_negated)) == 0


def test_pipeline_report_p3():
    report = run_pipeline(field(3))
    assert report.order == 40
    assert report.w1.excess_after == 240
    assert report.w2_excess == 240 == report.w2_bound
    assert report.w2_row_sums_constant == 6
    assert set(report.w2_col_sums) == {6}
    assert report.w3_total == 0
    assert check_real_hadamard(dense_pipeline(skew_regular(3))[1])


def test_pipeline_excess_values():
    assert run_pipeline(field(5)).w1.excess_after == 1040
    assert run_pipeline(field(7)).w1.excess_after == 2800


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_factored_matches_dense_oracle(p, capsys):
    report = run_pipeline(field(p))
    oracle, w1_max = dense_pipeline(skew_regular(p))
    for f in dataclasses.fields(report):
        assert getattr(report, f.name) == getattr(oracle, f.name), f.name
    assert check_real_hadamard(w1_max)
    code, out, err = run_cli(capsys, ["excess", "--p", str(p), "--json"])
    assert (code, err) == (0, "")
    assert out == json.dumps(dataclasses.asdict(oracle)) + "\n"


def _swapped_cell(s):
    """The planes of one cell exchanged: a + bi becomes b + ai."""
    re, im = s.re.copy(), s.im.copy()
    re[1, 2], im[1, 2] = s.im[1, 2], s.re[1, 2]
    return QMatrix(re, im)


def _conjugated_cell(s):
    """One off-diagonal cell with an imaginary part conjugated."""
    r, c = np.argwhere(s.im != 0)[0]
    im = s.im.copy()
    im[r, c] = -im[r, c]
    return QMatrix(s.re, im)


def _negated_row_and_column(s):
    """D S D for D = diag(1, -1, 1, ..., 1): still Hadamard and skew, with
    row sums that are no longer all equal."""
    d = np.ones(s.n, dtype=np.int8)
    d[1] = -1
    sign = d[:, None] * d
    return QMatrix(s.re * sign, s.im * sign)


# (Hadamard, skew, regular) of each corrupted S.  A changed cell breaks
# the Hadamard property as well, so only the last is refused for its
# row sums alone.
@pytest.mark.parametrize("corrupt, verdicts", [
    (_swapped_cell, (False, False, False)),
    (_conjugated_cell, (False, False, False)),
    (_negated_row_and_column, (True, True, False)),
], ids=["swapped-planes", "conjugated", "row-sum"])
def test_failed_certificate_exits_one(corrupt, verdicts, capsys, monkeypatch):
    bad = corrupt(skew_regular(5))
    assert (check_quaternary_hadamard(bad), check_skew_type(bad),
            is_regular(bad) is not None) == verdicts
    monkeypatch.setattr(excess_module, "skew_regular_qhm", lambda ctx: bad)
    with pytest.raises(MatrixError):
        run_pipeline(field(5))
    for flag in ([], ["--json"]):
        code, out, err = run_cli(capsys, ["excess", "--p", "5", *flag])
        assert code == 1
        assert out == ""
        assert err == "error: excess pipeline self-check failed\n"


def test_excess_forms_no_gram_product(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense Gram kernel called")

    monkeypatch.setattr(qmatrix_module, "_gram_is_scalar", refuse)
    for p, digest in JSON_DIGESTS.items():
        code, out, err = run_cli(capsys, ["excess", "--p", str(p), "--json"])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_excess_p61_memory():
    """The child's peak RSS, read from its own rusage: the dense pipeline
    held matrices of order 14888 and peaked at about 1.8 GB."""
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-m", "qhadamard.cli", "excess", "--p", "61",
                                 "--json"], stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        payload = json.loads(out.read())
    assert proc.returncode == 0
    assert payload["w1"]["excess_after"] == 8 * 61 * (1 + 61 * 61)
    # ru_maxrss is in KiB on Linux.
    assert usage.ru_maxrss * 1024 < 300e6
