import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from qhadamard import double, realify
from qhadamard.matio import ParseError, parse, parse_phase_vector, serialize
from qhadamard.cli import main
from conftest import skew_regular, FIXTURES
from reference import equal, qmatrix, serialize_phase_vector


def test_parse_examples():
    assert equal(parse(b"QHM 1\n1\n"), qmatrix([[1 + 0j]]))
    assert equal(parse(b"QHM 2\n1j\ni1\n"), qmatrix([[1, -1j], [1j, 1]]))
    # A QHM file whose cells are all real stays quaternary.
    assert equal(parse(b"QHM 2\n11\n1-\n"), qmatrix(np.array([[1, 1], [1, -1]], dtype=complex)))
    assert equal(parse(b"RHM 2\n11\n1-\n"), qmatrix([[1, 1], [1, -1]]))


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse(b"QHM 2\n1x\ni1\n")
    assert err.value.line == 2 and err.value.col == 2


def test_parse_errors():
    with pytest.raises(ParseError):
        parse(b"XHM 2\n11\n11\n")
    with pytest.raises(ParseError):
        parse(b"QHM 2\n11\n")
    with pytest.raises(ParseError):
        parse(b"QHM 2\n111\n11\n")
    with pytest.raises(ParseError):
        parse(b"RHM 1\ni\n")


def test_crlf_normalized():
    assert equal(parse(b"QHM 1\r\n1\r\n"), qmatrix([[1 + 0j]]))


@pytest.mark.parametrize(
    "name", ["appendixA_H", "appendixA_S", "appendixB_H", "appendixB_DHD"]
)
def test_fixture_roundtrip(name):
    data = (FIXTURES / f"{name}.qhm").read_bytes()
    assert serialize(parse(data)) == data


@pytest.mark.parametrize("p", (3, 5, 7))
def test_constructed_roundtrip(p):
    for m in (skew_regular(p), double(skew_regular(p)), realify(skew_regular(p))):
        assert equal(parse(serialize(m)), m)


def test_phase_vector_roundtrip():
    for name in ("appendixA_v.phv", "appendixB_v.phv"):
        data = (FIXTURES / name).read_bytes()
        assert serialize_phase_vector(parse_phase_vector(data)).encode() == data


def test_phase_vector_rejects_zero():
    with pytest.raises(ParseError):
        parse_phase_vector(b"1\n0\n")


# -- CLI ------------------------------------------------------------------


def run_cli(capsys, monkeypatch, argv, stdin=None):
    if stdin is not None:
        import io
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin.encode())))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_construct_verify_roundtrip(capsys, monkeypatch, tmp_path):
    out = tmp_path / "s3.qhm"
    code, _, _ = run_cli(capsys, monkeypatch, ["construct", "--p", "3", "--out", str(out)])
    assert code == 0
    code, _, _ = run_cli(
        capsys, monkeypatch,
        ["verify", str(out), "--expect-regular", "1,-3", "--expect-skew"],
    )
    assert code == 0


def test_cli_construct_verify_stdin(capsys, monkeypatch, tmp_path):
    code, out, _ = run_cli(capsys, monkeypatch, ["construct", "--p", "3"])
    assert code == 0
    code, _, _ = run_cli(
        capsys, monkeypatch,
        ["verify", "-", "--expect-regular", "1,-3", "--expect-skew"],
        stdin=out,
    )
    assert code == 0
    # Stdout and --out carry the same bytes.
    s5, w5 = tmp_path / "s5.qhm", tmp_path / "w5.rhm"
    for argv, path in ((["construct", "--p", "5"], s5), (["realify", str(s5)], w5)):
        code, out, _ = run_cli(capsys, monkeypatch, argv)
        assert code == 0 and run_cli(capsys, monkeypatch, [*argv, "--out", str(path)])[0] == 0
        assert out.encode() == path.read_bytes()


def test_cli_verify_expect_fail(capsys, monkeypatch, tmp_path):
    out = tmp_path / "s3.qhm"
    run_cli(capsys, monkeypatch, ["construct", "--p", "3", "--out", str(out)])
    code, _, err = run_cli(
        capsys, monkeypatch, ["verify", str(out), "--expect-regular", "1,3"]
    )
    assert code == 1


def test_cli_verify_fixture(capsys, monkeypatch):
    code, _, _ = run_cli(
        capsys, monkeypatch,
        ["verify", str(FIXTURES / "appendixB_H.qhm"), "--expect-regular", "1,-7"],
    )
    assert code == 0


def test_cli_verify_json(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch,
        ["verify", str(FIXTURES / "appendixA_S.qhm"), "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["regular"] == [1, -5]
    assert payload["skew"] and payload["hadamard"]


@pytest.mark.parametrize("value", ["x", "1", "1,2,3", "1,i"])
def test_cli_verify_expect_regular_checked_before_report(capsys, monkeypatch, value):
    def refuse(m):
        raise AssertionError("the report was formed before --expect-regular was checked")

    monkeypatch.setattr("qhadamard.verify.full_report", refuse)
    argv = ["verify", str(FIXTURES / "appendixA_S.qhm"), "--expect-regular", value]
    assert run_cli(capsys, monkeypatch, argv) == (2, "", "error: --expect-regular wants RE,IM\n")
    # A file error still comes first.
    code, out, err = run_cli(capsys, monkeypatch, ["verify", "/nonexistent.qhm",
                                                   "--expect-regular", value])
    assert code == 2 and out == "" and "--expect-regular" not in err


def test_cli_parse_error_exit_code(capsys, monkeypatch, tmp_path):
    bad = tmp_path / "bad.qhm"
    bad.write_text("QHM 1\nx\n")
    code, _, err = run_cli(capsys, monkeypatch, ["verify", str(bad)])
    assert code == 2


def test_cli_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("MEM_BUDGET_MB", "1700")
    code, _, err = run_cli(capsys, monkeypatch, ["construct", "--p", "103"])
    assert code == 3


def test_cli_cod_budget_exit_code(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["cod", "--p", "3", "--k", "6"])
    assert code == 3 and err.startswith("error:")


@pytest.mark.parametrize("eval_point", [[], ["--eval", "1,1"]], ids=["summary", "eval"])
@pytest.mark.parametrize("k", [4505, 4506, 10**9])
def test_cli_cod_huge_k_is_one_budget_line(capsys, monkeypatch, k, eval_point):
    # 10 * 9^4505 has 4300 digits, as many as Python prints by default;
    # a larger order is named by its factors and never formed.
    monkeypatch.delenv("MEM_BUDGET_MB", raising=False)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, monkeypatch, ["cod", "--p", "3", "--k", str(k), *eval_point])
    assert time.perf_counter() - start < 1
    order = str(10 * 9**k) if k == 4505 else f"(1 + 9) * 9^{k}"
    assert (code, out, err) == (3, "", f"error: order {order} exceeds the memory budget\n")


def _s3(capsys, monkeypatch, tmp_path):
    path = tmp_path / "s3.qhm"
    run_cli(capsys, monkeypatch, ["construct", "--p", "3", "--out", str(path)])
    return path


# Files whose non-ASCII byte comes after another error.
NON_ASCII_FILES = {
    "bad-header.qhm": b"QHX 2\n1j\ni\xe9\n",
    "few-rows.qhm": b"QHM 3\n1ij\n-\xe9j\n",
    "short-row.qhm": b"QHM 2\n1\ni\xe9\n",
    "crlf.qhm": b"QHM 2\r\n1x\r\ni\xe9\r\n",
    "late.phv": b"1\r\n0\nx\n\xe9\n",
}


@pytest.mark.parametrize("argv, where", [
    (["verify", "{bad}"], "(line 3 col 4)"),
    (["twist", "{s3}", "--v", "{badv}"], "(line 2 col 1)"),
    (["verify", "{tmp}/bad-header.qhm"], "(line 3 col 2)"),
    (["double", "{tmp}/few-rows.qhm"], "(line 3 col 2)"),
    (["verify", "{tmp}/short-row.qhm"], "(line 3 col 2)"),
    (["realify", "{tmp}/crlf.qhm"], "(line 3 col 2)"),
    (["twist", "{s3}", "--v", "{tmp}/late.phv"], "(line 4 col 1)"),
], ids=["verify", "twist-vector", "bad-header", "few-rows", "short-row", "crlf",
        "twist-vector-late"])
def test_cli_non_ascii_byte_is_a_parse_error(capsys, monkeypatch, tmp_path, argv, where):
    s3 = _s3(capsys, monkeypatch, tmp_path)
    lines = s3.read_bytes().split(b"\n")
    lines[2] = lines[2][:3] + b"\xe9" + lines[2][4:]
    bad = tmp_path / "bad.qhm"
    bad.write_bytes(b"\n".join(lines))
    badv = tmp_path / "bad.phv"
    badv.write_bytes(b"1\n\xff\n" + b"1\n" * 8)
    for name, data in NON_ASCII_FILES.items():
        (tmp_path / name).write_bytes(data)
    argv = [a.format(bad=bad, s3=s3, badv=badv, tmp=tmp_path) for a in argv]
    code, out, err = run_cli(capsys, monkeypatch, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: parse error: non-ASCII byte") and where in err


@pytest.mark.parametrize("argv", [["verify", "{tmp}"], ["twist", "{s3}", "--v", "{tmp}"]],
                         ids=["verify", "twist-vector"])
def test_cli_directory_is_one_error_line(capsys, monkeypatch, tmp_path, argv):
    s3 = _s3(capsys, monkeypatch, tmp_path)
    code, out, err = run_cli(capsys, monkeypatch, [a.format(tmp=tmp_path, s3=s3) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_cli_report_inconsistency_is_exit_1(capsys, monkeypatch, tmp_path):
    # A regular Hadamard verdict with |row sum|^2 != order contradicts itself.
    f = tmp_path / "j2.qhm"
    f.write_text("QHM 2\n11\n11\n")
    monkeypatch.setattr("qhadamard.verify._recognise", lambda re, im: (True, False))
    assert run_cli(capsys, monkeypatch, ["verify", str(f)]) == (
        1, "", "error: regular Hadamard matrix of order 2 with |row sum|^2 = 4\n")


def test_cli_cod_fault_propagates(monkeypatch):
    # Only the library's typed failures map to exit codes; a bare
    # ValueError is a fault, not a usage error.
    def fault(ctx, k):
        raise ValueError("a fault")

    monkeypatch.setattr("qhadamard.cod.factored_summary", fault)
    with pytest.raises(ValueError, match="a fault"):
        main(["cod", "--p", "3", "--k", "1"])


def test_cli_out_in_missing_directory(capsys, monkeypatch, tmp_path):
    out = tmp_path / "missing" / "s3.qhm"
    code, _, err = run_cli(capsys, monkeypatch, ["construct", "--p", "3", "--out", str(out)])
    assert code == 2 and err.startswith("error:")


def test_cli_cod_negative_k(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["cod", "--p", "3", "--k", "-1"])
    assert code == 2 and err.startswith("error:") and "k must be nonnegative" in err


@pytest.mark.parametrize("raw", ["abc", "-5"])
def test_cli_malformed_budget(capsys, monkeypatch, raw):
    monkeypatch.setenv("MEM_BUDGET_MB", raw)
    code, _, err = run_cli(capsys, monkeypatch, ["construct", "--p", "3"])
    assert code == 2 and err.startswith("error:") and "MEM_BUDGET_MB" in err


def test_cli_excess_json(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["excess", "--p", "3", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["w1"]["excess_after"] == 240


def test_cli_double_core_twist_realify(capsys, monkeypatch, tmp_path):
    s3 = tmp_path / "s3.qhm"
    run_cli(capsys, monkeypatch, ["construct", "--p", "3", "--out", str(s3)])

    doubled = tmp_path / "d.qhm"
    assert run_cli(capsys, monkeypatch, ["double", str(s3), "--out", str(doubled)])[0] == 0
    assert parse(doubled.read_bytes()).n == 20

    core = tmp_path / "core.qhm"
    assert run_cli(capsys, monkeypatch, ["core", str(s3), "--out", str(core)])[0] == 0
    assert parse(core.read_bytes()).n == 9

    real = tmp_path / "w.rhm"
    assert run_cli(capsys, monkeypatch, ["realify", str(s3), "--out", str(real)])[0] == 0
    assert parse(real.read_bytes()).im is None

    vfile = tmp_path / "v.phv"
    vfile.write_text("1\n" * 10)
    twisted = tmp_path / "t.qhm"
    assert run_cli(
        capsys, monkeypatch, ["twist", str(s3), "--v", str(vfile), "--out", str(twisted)]
    )[0] == 0
    assert equal(parse(twisted.read_bytes()), skew_regular(3))


def test_cli_cod_summary_and_eval(capsys, monkeypatch, tmp_path):
    code, out, _ = run_cli(capsys, monkeypatch, ["cod", "--p", "3", "--k", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 90 and payload["type"] == [9, 81]
    assert payload["gram_conjugate"]

    evaluated = tmp_path / "m.qhm"
    code, _, _ = run_cli(
        capsys, monkeypatch,
        ["cod", "--p", "3", "--k", "1", "--eval", "1,1", "--out", str(evaluated)],
    )
    assert code == 0
    m = parse(evaluated.read_bytes())
    assert m.n == 90


def test_cli_cod_summary_never_materialises(capsys, monkeypatch):
    def refuse(ctx, k):
        raise AssertionError("the summary formed the dense design")

    monkeypatch.setattr("qhadamard.cod.cod_recurse", refuse)
    code, out, _ = run_cli(capsys, monkeypatch, ["cod", "--p", "3", "--k", "2"])
    assert code == 0
    assert json.loads(out) == {"order": 810, "type": [81, 729],
                               "gram_conjugate": True, "gram_transpose": False}


@pytest.mark.parametrize("argv, code, err", [
    (["--eval", "x"], 2, "error: --eval wants A,B\n"),
    (["--eval", "1,1,1"], 2, "error: --eval wants A,B\n"),
    (["--eval", "2,0"], 2, "error: only --eval values in {0,1} are serializable\n"),
    (["--k", "-1", "--eval", "x"], 2, "error: k must be nonnegative\n"),
    (["--k", "6", "--eval", "x"], 3, "error: order 5314410 exceeds the memory budget\n"),
], ids=["syntax", "arity", "range", "k-first", "budget-first"])
def test_cli_cod_eval_checked_before_build(capsys, monkeypatch, argv, code, err):
    def refuse(ctx, k):
        raise AssertionError("the design was built before --eval was checked")

    monkeypatch.setattr("qhadamard.cod.cod_recurse", refuse)
    monkeypatch.delenv("MEM_BUDGET_MB", raising=False)
    argv = ["cod", "--p", "3", "--k", "3", *argv]
    assert run_cli(capsys, monkeypatch, argv) == (code, "", err)


def test_cli_appendix_twist_matches_printed(capsys, monkeypatch, tmp_path):
    # Appendix B: twisting H by the printed v reproduces the printed matrix
    out = tmp_path / "t.qhm"
    code, _, _ = run_cli(
        capsys, monkeypatch,
        ["twist", str(FIXTURES / "appendixB_H.qhm"),
         "--v", str(FIXTURES / "appendixB_v.phv"), "--out", str(out)],
    )
    assert code == 0
    assert out.read_text() == (FIXTURES / "appendixB_DHD.qhm").read_text()


@pytest.mark.parametrize("argv", [
    ["double", "{w}"], ["core", "{w}"], ["realify", "{w}"], ["twist", "{w}", "--v", "{v}"],
])
def test_cli_quaternary_commands_reject_real_files(capsys, monkeypatch, tmp_path, argv):
    w = tmp_path / "w.rhm"
    w.write_bytes(serialize(realify(skew_regular(3))))
    v = tmp_path / "v.phv"
    v.write_text("1\n" * 20)
    code, out, err = run_cli(capsys, monkeypatch, [a.format(w=w, v=v) for a in argv])
    assert code == 2 and out == ""
    assert err == "error: expected a QHM file\n"


@pytest.mark.parametrize("command, usage", [
    ("construct", "--p P [--out OUT]"),
    ("verify", "[--expect-regular RE,IM] [--expect-skew] [--json] file"),
    ("double", "[--out OUT] file"),
    ("core", "[--out OUT] file"),
    ("cod", "--p P --k K [--eval A,B] [--out OUT]"),
    ("excess", "--p P [--json]"),
    ("realify", "[--out OUT] file"),
    ("twist", "--v V [--out OUT] file"),
])
def test_cli_usage(capsys, monkeypatch, command, usage):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: qhadamard {command} [-h] {usage}\n")


@pytest.mark.parametrize("argv", [["construct", "--p", "13"],
                                  ["cod", "--p", "3", "--k", "1", "--eval", "1,1"]],
                         ids=["construct", "cod-eval"])
def test_cli_stdout_bytes_equal_the_out_file(tmp_path, argv):
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}

    def cli(args):
        return subprocess.run([sys.executable, "-m", "qhadamard.cli", *args],
                              capture_output=True, env=env, cwd=tmp_path)

    out = tmp_path / "out.qhm"
    to_stdout, to_file = cli(argv), cli([*argv, "--out", str(out)])
    assert to_stdout.returncode == to_file.returncode == 0
    assert to_stdout.stderr == to_file.stderr == to_file.stdout == b""
    assert to_stdout.stdout == out.read_bytes()
