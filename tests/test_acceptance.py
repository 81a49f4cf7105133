"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Each test prints a PASS line on success so the gate can be read off the
pytest -s output directly.
"""

import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from qhadamard import (
    GFElement,
    certify_gram,
    check_quaternary_hadamard,
    check_semi_regular,
    check_skew_type,
    cod_recurse,
    diag_similarity,
    double,
    expected_row_sum,
    full_report,
    gram_is_scalar,
    realify,
    row_sums,
    serialize,
)
from qhadamard import matio
from qhadamard.builder import row_sum_parts
from qhadamard.excess import (
    build_triple,
    certify_weighing,
    excess,
    maximize_excess_rows,
    negate_rows,
)
from qhadamard.verify import check_real_hadamard, is_absolutely_regular
from conftest import field, skew_regular, FIXTURES

PRIMES = (3, 5, 7, 11, 13)


def report(name):
    print(f"PASS {name}")


def test_criterion_1_character_laws():
    for p in PRIMES:
        ctx = field(p)
        assert int(ctx.char_table.sum()) == 0
        coset_sums = {
            sum(ctx.chi(x) for x in ctx.coset(k)) for k in range(1, p)
        }
        assert len(coset_sums) == 1
        for t in ctx.elements():
            assert ctx.coset_char_sum(t) == (p - 1 if t.b == 0 else -1)
    report("criterion 1: character laws for p in {3,5,7,11,13}")


def test_criterion_2_skew_regular_construction():
    for p in PRIMES:
        s = skew_regular(p)
        n = 1 + p * p
        assert gram_is_scalar(s, n)
        assert set(row_sums(s)) == {complex(1, -p)}
        assert np.array_equal(s.data + s.data.conj().T, 2 * np.eye(n))
    for p in (3, 5, 7):
        ctx = field(p)
        q = ctx.q
        half = (q - p) // 2
        assert row_sum_parts(ctx, 0) == [1, complex(0, -p), half, -half]
        for row in range(1, q + 1):
            parts = row_sum_parts(ctx, row)
            k = (row - 1) // p
            if k == 0:
                assert parts == [-1j, 1, complex(0, -(p - 1)), 0]
            elif k <= (p - 1) // 2:
                assert parts == [-1, 1, 1, complex(0, -(p - 1)), -1j]
            else:
                assert parts == [1, 1, -1, complex(0, -(p - 1)), -1j]
            assert sum(parts) == complex(1, -p)
    report("criterion 2: main construction and per-case partial sums")


def test_criterion_3_appendix_fixtures():
    a_s = matio.parse((FIXTURES / "appendixA_S.qhm").read_text())
    assert check_quaternary_hadamard(a_s) and check_skew_type(a_s)
    assert set(row_sums(a_s)) == {1 - 5j}

    b_h = matio.parse((FIXTURES / "appendixB_H.qhm").read_text())
    assert check_quaternary_hadamard(b_h) and check_skew_type(b_h)
    assert set(row_sums(b_h)) == {1 - 7j}

    b_d = matio.parse((FIXTURES / "appendixB_DHD.qhm").read_text())
    assert check_quaternary_hadamard(b_d)
    abs_reg, abs_sq = is_absolutely_regular(b_d)
    assert abs_reg and abs_sq == 50
    allowed = {complex(a, b) for a in (5, -5) for b in (5, -5)}
    assert set(row_sums(b_d)) <= allowed
    report("criterion 3: appendix fixtures certify")


def test_criterion_4_cod_recursion():
    cases = [(3, 0, 10), (3, 1, 90), (3, 2, 810), (5, 0, 26), (5, 1, 650)]
    for p, k, order in cases:
        d = cod_recurse(field(p), k)
        assert d.n == order
        assert certify_gram(d)
        m = d.evaluate_qmatrix(1, 1)
        assert check_quaternary_hadamard(m)
        assert set(row_sums(m)) == {expected_row_sum(p, k + 1)}
    report("criterion 4: COD recursion, orders 10/90/810/26/650")


def test_criterion_5_doubling():
    k3 = double(skew_regular(3))
    assert check_quaternary_hadamard(k3) and check_skew_type(k3)
    assert Counter(row_sums(k3)) == {4 - 2j: 10, -2 + 4j: 10}
    assert check_semi_regular(k3, 4, 2)
    for p in (5, 7):
        kp = double(skew_regular(p))
        a, b = 1, -p
        assert set(row_sums(kp)) <= {complex(a - b, a + b), complex(a + b, a - b)}
    report("criterion 5: doubling row-sum sets")


def test_criterion_6_excess():
    expected_excess = {3: 240, 5: 1040, 7: 2800}
    for p in (3, 5, 7):
        n = 4 + 4 * p * p
        q1, q2, q3 = build_triple(skew_regular(p))
        w1, w2, w3 = realify(q1), realify(q2), realify(q3)
        assert certify_weighing(w1, n, n)
        assert certify_weighing(w2, n, 4 * p * p)
        assert certify_weighing(w3, n, 4)
        assert w1 == w2 + w3
        w1_max, rep = maximize_excess_rows(w1)
        assert check_real_hadamard(w1_max)
        assert rep.excess_after == 8 * p * (1 + p * p) == expected_excess[p]
        w2_neg = negate_rows(w2, rep.rows_negated)
        assert set(w2_neg.data.sum(axis=1)) == {2 * p}
        assert excess(w2_neg) == 2 * p * n
        assert excess(negate_rows(w3, rep.rows_negated)) == 0
    report("criterion 6: excess 240/1040/2800 and weighing certifications")


def test_criterion_7_roundtrip_and_cli(tmp_path):
    for name in ("appendixA_H", "appendixA_S", "appendixB_H", "appendixB_DHD"):
        text = (FIXTURES / f"{name}.qhm").read_text()
        assert matio.serialize(matio.parse(text)) == text
    for p in (3, 5, 7):
        s = skew_regular(p)
        assert matio.parse(serialize(s)) == s

    # The child imports the package from this checkout, installed or not.
    src = str(FIXTURES.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def cli(args, stdin=None):
        return subprocess.run(
            [sys.executable, "-m", "qhadamard.cli", *args],
            input=stdin, capture_output=True, text=True, env=env,
        )

    constructed = cli(["construct", "--p", "3"])
    assert constructed.returncode == 0
    verified = cli(
        ["verify", "-", "--expect-regular", "1,-3", "--expect-skew"],
        stdin=constructed.stdout,
    )
    assert verified.returncode == 0

    result = cli(["excess", "--p", "3", "--json"])
    assert result.returncode == 0
    assert json.loads(result.stdout)["w1"]["excess_after"] == 240

    result = cli(["verify", str(FIXTURES / "appendixB_H.qhm"),
                  "--expect-regular", "1,-7"])
    assert result.returncode == 0
    report("criterion 7: serialization round-trips and CLI invocations")


def test_criterion_8_property_suites():
    # >=100 randomized cases per law, seeded for reproducibility
    rng = np.random.default_rng(2024)
    phases = np.array([1, 1j, -1, -1j])
    alphabet = np.array([0, 1, 1j, -1, -1j])
    s3 = skew_regular(3)
    from qhadamard import QMatrix, conj_transpose, multiply, split_real_imag
    from qhadamard.qmatrix import sign_gram

    for _ in range(100):
        v = phases[rng.integers(0, 4, size=10)]
        t = diag_similarity(s3, v)
        assert check_quaternary_hadamard(t) and check_skew_type(t)
        w = realify(t)
        assert np.array_equal(sign_gram(w), 20 * np.eye(20, dtype=np.int64))

    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = QMatrix(alphabet[rng.integers(0, 5, size=(n, n))])
        a, b = split_real_imag(m)
        assert QMatrix(a.data + 1j * b.data) == m
        other = QMatrix(alphabet[rng.integers(0, 5, size=(n, n))])
        lhs = multiply(m, other).conj().T
        rhs = conj_transpose(other).data @ conj_transpose(m).data
        assert np.array_equal(lhs, rhs)
    report("criterion 8: randomized property suites")
