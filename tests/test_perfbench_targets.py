"""Every layer the benchmark traces still resolves to a program function.

``perfbench/spans.py`` wraps the functions named in its ``TARGETS`` and
reports a name it cannot resolve as missing.  A rename in the program
would silently drop that layer from the trace, so check it here.
"""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize("name, module_name, attr", TARGETS, ids=[t[0] for t in TARGETS])
def test_target_resolves(name, module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
