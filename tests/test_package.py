"""The package namespace: its exports resolve and its submodules stay reachable."""

import importlib

import qhadamard


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from qhadamard import *", namespace)
    assert len(set(qhadamard.__all__)) == len(qhadamard.__all__)
    for name in qhadamard.__all__:
        assert name in namespace
        assert namespace[name] is getattr(qhadamard, name)


def test_submodules_are_not_shadowed():
    import qhadamard.excess as m

    assert m is importlib.import_module("qhadamard.excess")
    assert callable(m.run_pipeline) and callable(m.weight_bound)
    for name in ("builder", "cli", "cod", "excess", "field", "matio", "qmatrix", "verify"):
        assert getattr(qhadamard, name) is importlib.import_module(f"qhadamard.{name}")
