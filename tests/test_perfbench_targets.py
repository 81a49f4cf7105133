"""Every layer the benchmark traces still resolves to a program function,
and a traced run of the commands completes.

``perfbench/spans.py`` wraps the functions named in its ``TARGETS`` and
reports a name it cannot resolve as missing.  A rename in the program
would silently drop that layer from the trace, so check it here.  The
tracer also reads the ``data`` view of Gram operands and layer results,
which only a traced run exercises.
"""

import importlib
import importlib.util
import pathlib

import pytest

from conftest import FIXTURES

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS_MODULE = load_spans()
TARGETS = SPANS_MODULE.TARGETS


@pytest.mark.parametrize("name, module_name, attr", TARGETS, ids=[t[0] for t in TARGETS])
def test_target_resolves(name, module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_traced_commands_complete(tmp_path, capsys, monkeypatch):
    from qhadamard import cli

    monkeypatch.delenv("MEM_BUDGET_MB", raising=False)
    s, d, r = (str(tmp_path / name) for name in ("s.qhm", "d.qhm", "r.rhm"))
    commands = (
        ["construct", "--p", "3", "--out", s],
        ["double", s, "--out", d],
        ["realify", s, "--out", r],
        ["verify", r, "--json"],
        ["verify", str(FIXTURES / "appendixA_S.qhm")],
        ["cod", "--p", "3", "--k", "1", "--eval", "1,1", "--out", str(tmp_path / "c.qhm")],
    )
    tracer = SPANS_MODULE.Tracer()
    tracer.install()
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(commands)
    assert tracer.missing == []
    metrics = tracer.metrics()
    assert metrics["qmatrix.gram_flops"] > 0
    assert metrics["qmatrix.bytes_per_cell"] > 0
    assert all(metrics[f"{name}_n"] > 0 for name in (
        "cli.main", "matio.serialize", "matio.parse", "qmatrix.gram", "qmatrix.sign_gram",
        "qmatrix.realify", "builder.double", "cod.cod_recurse"))
