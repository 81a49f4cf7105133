import json

import numpy as np
import pytest

from qhadamard import QMatrix, SignMatrix, double, realify, skew_regular_qhm
from qhadamard.matio import (
    ParseError,
    parse,
    parse_phase_vector,
    serialize,
    serialize_phase_vector,
)
from qhadamard.cli import main
from conftest import field, skew_regular, FIXTURES


def test_parse_examples():
    assert parse("QHM 1\n1\n") == QMatrix([[1]])
    assert parse("QHM 2\n1j\ni1\n") == QMatrix([[1, -1j], [1j, 1]])


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse("QHM 2\n1x\ni1\n")
    assert err.value.line == 2 and err.value.col == 2


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("XHM 2\n11\n11\n")
    with pytest.raises(ParseError):
        parse("QHM 2\n11\n")
    with pytest.raises(ParseError):
        parse("QHM 2\n111\n11\n")
    with pytest.raises(ParseError):
        parse("RHM 1\ni\n")


def test_crlf_normalized():
    assert parse("QHM 1\r\n1\r\n") == QMatrix([[1]])


@pytest.mark.parametrize(
    "name", ["appendixA_H", "appendixA_S", "appendixB_H", "appendixB_DHD"]
)
def test_fixture_roundtrip(name):
    text = (FIXTURES / f"{name}.qhm").read_text()
    assert serialize(parse(text)) == text


@pytest.mark.parametrize("p", (3, 5, 7))
def test_constructed_roundtrip(p):
    for m in (skew_regular(p), double(skew_regular(p)), realify(skew_regular(p))):
        assert parse(serialize(m)) == m


def test_phase_vector_roundtrip():
    for name in ("appendixA_v.phv", "appendixB_v.phv"):
        text = (FIXTURES / name).read_text()
        assert serialize_phase_vector(parse_phase_vector(text)) == text


def test_phase_vector_rejects_zero():
    with pytest.raises(ParseError):
        parse_phase_vector("1\n0\n")


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


def test_cli_construct_verify_stdin(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["construct", "--p", "3"])
    assert code == 0
    code, _, _ = run_cli(
        capsys, monkeypatch,
        ["verify", "-", "--expect-regular", "1,-3", "--expect-skew"],
        stdin=out,
    )
    assert code == 0


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


def _s3(capsys, monkeypatch, tmp_path):
    path = tmp_path / "s3.qhm"
    run_cli(capsys, monkeypatch, ["construct", "--p", "3", "--out", str(path)])
    return path


@pytest.mark.parametrize("argv, where", [
    (["verify", "{bad}"], "(line 3 col 4)"),
    (["twist", "{s3}", "--v", "{badv}"], "(line 2 col 1)"),
], ids=["verify", "twist-vector"])
def test_cli_non_ascii_byte_is_a_parse_error(capsys, monkeypatch, tmp_path, argv, where):
    s3 = _s3(capsys, monkeypatch, tmp_path)
    lines = s3.read_bytes().split(b"\n")
    lines[2] = lines[2][:3] + b"\xe9" + lines[2][4:]
    bad = tmp_path / "bad.qhm"
    bad.write_bytes(b"\n".join(lines))
    badv = tmp_path / "bad.phv"
    badv.write_bytes(b"1\n\xff\n" + b"1\n" * 8)
    argv = [a.format(bad=bad, s3=s3, badv=badv) for a in argv]
    code, out, err = run_cli(capsys, monkeypatch, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: parse error: non-ASCII byte") and where in err


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
    assert parse(doubled.read_text()).n == 20

    core = tmp_path / "core.qhm"
    assert run_cli(capsys, monkeypatch, ["core", str(s3), "--out", str(core)])[0] == 0
    assert parse(core.read_text()).n == 9

    real = tmp_path / "w.rhm"
    assert run_cli(capsys, monkeypatch, ["realify", str(s3), "--out", str(real)])[0] == 0
    assert isinstance(parse(real.read_text()), SignMatrix)

    vfile = tmp_path / "v.phv"
    vfile.write_text("1\n" * 10)
    twisted = tmp_path / "t.qhm"
    assert run_cli(
        capsys, monkeypatch, ["twist", str(s3), "--v", str(vfile), "--out", str(twisted)]
    )[0] == 0
    assert parse(twisted.read_text()) == skew_regular(3)


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
    m = parse(evaluated.read_text())
    assert m.n == 90


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
