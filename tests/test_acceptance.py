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

from qhadamard import (
    certify_gram,
    check_skew_type,
    cod_recurse,
    diag_similarity,
    double,
    gram_is_scalar,
    realify,
    serialize,
)
from qhadamard import matio
from qhadamard.qmatrix import sign_gram_is_scalar
from qhadamard.verify import check_real_hadamard
from conftest import field, skew_regular, FIXTURES
from reference import (
    check_quaternary_hadamard,
    build_triple,
    check_semi_regular,
    equal,
    excess,
    expected_row_sum,
    is_absolutely_regular,
    maximize_excess_rows,
    negate_rows,
    qmatrix,
    row_sums,
)

PRIMES = (3, 5, 7, 11, 13)


def report(name):
    print(f"PASS {name}")


def test_criterion_1_character_laws():
    for p in PRIMES:
        table = field(p).char_table
        assert int(table.sum()) == 0
        # Coset k is the index block [k*p, (k+1)*p); a translate t + GF(p)
        # permutes the cells of t's coset, so its sum is the coset's.
        coset_sums = table.reshape(p, p).sum(axis=1)
        assert coset_sums[0] == p - 1 and set(coset_sums[1:].tolist()) == {-1}
    report("criterion 1: character laws for p in {3,5,7,11,13}")


def test_criterion_2_skew_regular_construction():
    for p in PRIMES:
        s = skew_regular(p)
        n = 1 + p * p
        assert gram_is_scalar(s, n)
        assert set(row_sums(s)) == {complex(1, -p)}
        assert np.array_equal(s.data + s.data.conj().T, 2 * np.eye(n))
    for p in (3, 5, 7):
        # Partial row sums by column class: {infinity}, the diagonal cell,
        # GF(p) (coset 0), the row's own coset and the rest; the first
        # row splits the cosets 1..p-1 into the -i and +i halves.
        s = skew_regular(p).data
        q, half = p * p, (p - 1) // 2
        by_coset = s[:, 1:].reshape(q + 1, p, p).sum(axis=2)
        assert [s[0, 0], by_coset[0, 0], by_coset[0, 1:half + 1].sum(),
                by_coset[0, half + 1:].sum()] == [1, -p * 1j, (q - p) // 2, -(q - p) // 2]
        for row in range(1, q + 1):
            k = (row - 1) // p
            own = by_coset[row, k] - s[row, row]
            if k == 0:
                parts = [s[row, 0], s[row, row], own]
                expected = [-1j, 1, complex(0, -(p - 1)), 0]
            else:
                parts = [s[row, 0], s[row, row], by_coset[row, 0], own]
                expected = [-1 if k <= half else 1, 1, 1 if k <= half else -1,
                            complex(0, -(p - 1)), -1j]
            parts.append(s[row].sum() - sum(parts))
            assert parts == expected
            assert sum(parts) == complex(1, -p)
    report("criterion 2: main construction and per-case partial sums")


def test_criterion_3_appendix_fixtures():
    a_s = matio.parse((FIXTURES / "appendixA_S.qhm").read_bytes())
    assert check_quaternary_hadamard(a_s) and check_skew_type(a_s)
    assert set(row_sums(a_s)) == {1 - 5j}

    b_h = matio.parse((FIXTURES / "appendixB_H.qhm").read_bytes())
    assert check_quaternary_hadamard(b_h) and check_skew_type(b_h)
    assert set(row_sums(b_h)) == {1 - 7j}

    b_d = matio.parse((FIXTURES / "appendixB_DHD.qhm").read_bytes())
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
        # W(n, weight): the Gram diagonal is the row weight.
        for w, weight in ((w1, n), (w2, 4 * p * p), (w3, 4)):
            assert w.n == n and sign_gram_is_scalar(w, weight)
        assert np.array_equal(w1.re, w2.re + w3.re)
        w1_max, rep = maximize_excess_rows(w1)
        assert check_real_hadamard(w1_max)
        assert rep.excess_after == 8 * p * (1 + p * p) == expected_excess[p]
        w2_neg = negate_rows(w2, rep.rows_negated)
        assert set(w2_neg.re.sum(axis=1)) == {2 * p}
        assert excess(w2_neg) == 2 * p * n
        assert excess(negate_rows(w3, rep.rows_negated)) == 0
    report("criterion 6: excess 240/1040/2800 and weighing certifications")


def test_criterion_7_roundtrip_and_cli(tmp_path):
    for name in ("appendixA_H", "appendixA_S", "appendixB_H", "appendixB_DHD"):
        text = (FIXTURES / f"{name}.qhm").read_bytes()
        assert matio.serialize(matio.parse(text)) == text
    for p in (3, 5, 7):
        s = skew_regular(p)
        assert equal(matio.parse(serialize(s)), s)

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
    from reference import conj_transpose

    for _ in range(100):
        v = phases[rng.integers(0, 4, size=10)]
        t = diag_similarity(s3, v)
        assert check_quaternary_hadamard(t) and check_skew_type(t)
        w = realify(t)
        assert sign_gram_is_scalar(w, 20)

    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = qmatrix(alphabet[rng.integers(0, 5, size=(n, n))])
        other = qmatrix(alphabet[rng.integers(0, 5, size=(n, n))])
        lhs = (m.data @ other.data).conj().T
        rhs = conj_transpose(other).data @ conj_transpose(m).data
        assert np.array_equal(lhs, rhs)
    report("criterion 8: randomized property suites")
