"""Pinned output bytes of a grid of CLI runs.

Each run records its exit code and the first 16 hex digits of the
sha256 of stdout, of stderr and of the ``--out`` file (None when the run
writes none).  The digests were recorded from the program as it stood
before its test-only library surface was removed; a change that alters
any byte the CLI writes fails here.  To re-record after an intended
change, print ``run_digests`` for every entry of ``GRID``.
"""

import hashlib

import pytest

from qhadamard.cli import main
from conftest import FIXTURES

QHM = ("appendixA_H", "appendixA_S", "appendixB_H", "appendixB_DHD")

GRID = {
    **{f"construct-{p}": ["construct", "--p", str(p), "--out", "{out}"]
       for p in (3, 5, 7, 11)},
    **{f"excess-{p}{'-json' * j}": ["excess", "--p", str(p)] + ["--json"] * j
       for p in (3, 5) for j in (0, 1)},
    **{f"cod-{p}-{k}": ["cod", "--p", str(p), "--k", str(k)]
       for p, k in ((3, 0), (3, 1), (3, 2), (5, 1))},
    **{f"cod-{p}-1-eval-{e}": ["cod", "--p", str(p), "--k", "1", "--eval", e,
                               "--out", "{out}"]
       for p in (3, 5) for e in ("1,1", "0,1")},
    **{f"{cmd}-{name}": [cmd, f"{{fixtures}}/{name}.qhm", "--out", "{out}"]
       for cmd in ("double", "core", "realify") for name in QHM},
    **{f"verify-json-{name}": ["verify", f"{{fixtures}}/{name}.qhm", "--json"]
       for name in QHM},
    **{f"twist-appendix{x}": ["twist", f"{{fixtures}}/appendix{x}_H.qhm",
                              "--v", f"{{fixtures}}/appendix{x}_v.phv", "--out", "{out}"]
       for x in "AB"},
    # Usage and budget errors, each exiting before any output file.
    "construct-4": ["construct", "--p", "4"],
    "construct-9": ["construct", "--p", "9"],
    "cod-3-neg": ["cod", "--p", "3", "--k", "-1"],
    "cod-3-6": ["cod", "--p", "3", "--k", "6"],
    "cod-3-1-eval-x": ["cod", "--p", "3", "--k", "1", "--eval", "x"],
    "cod-3-1-eval-2,0": ["cod", "--p", "3", "--k", "1", "--eval", "2,0"],
}


EMPTY = hashlib.sha256(b"").hexdigest()[:16]


def _sha(data):
    return None if data is None else hashlib.sha256(data).hexdigest()[:16]


def run_digests(argv, tmp_path, capsys):
    """(exit code, sha256 of stdout, of stderr, of the --out file)."""
    out = tmp_path / "out"
    code = main([a.format(out=out, fixtures=FIXTURES) for a in argv])
    captured = capsys.readouterr()
    written = out.read_bytes() if out.exists() else None
    return (code, _sha(captured.out.encode()), _sha(captured.err.encode()),
            _sha(written))


GOLDEN = {
    "cod-3-0": (0, "cb3dd2bffca005fa", EMPTY, None),
    "cod-3-1": (0, "e99f1034008f0205", EMPTY, None),
    "cod-3-1-eval-0,1": (0, EMPTY, EMPTY, "98c97046c947aab6"),
    "cod-3-1-eval-1,1": (0, EMPTY, EMPTY, "29a591f009df3522"),
    "cod-3-1-eval-2,0": (2, EMPTY, "d8337b5313f1bd6e", None),
    "cod-3-1-eval-x": (2, EMPTY, "37ea974220fd5de8", None),
    "cod-3-2": (0, "e3ba2c14abf7fcb8", EMPTY, None),
    "cod-3-6": (3, EMPTY, "e9ac4a6289026277", None),
    "cod-3-neg": (2, EMPTY, "2d9fb10cd612fc05", None),
    "cod-5-1": (0, "e5363b4013a4eca3", EMPTY, None),
    "cod-5-1-eval-0,1": (0, EMPTY, EMPTY, "67b6357fd4833ac9"),
    "cod-5-1-eval-1,1": (0, EMPTY, EMPTY, "a90e20f0aa71f5d4"),
    "construct-11": (0, EMPTY, EMPTY, "f5856833023dc85a"),
    "construct-3": (0, EMPTY, EMPTY, "1d5e57e29a4968c3"),
    "construct-4": (2, EMPTY, "45a8edcf5a9a9305", None),
    "construct-5": (0, EMPTY, EMPTY, "6fc8957391d8012a"),
    "construct-7": (0, EMPTY, EMPTY, "44b14a97447a85da"),
    "construct-9": (2, EMPTY, "da658ee1e8f01c35", None),
    "core-appendixA_H": (0, EMPTY, EMPTY, "48417a73abd2998a"),
    "core-appendixA_S": (0, EMPTY, EMPTY, "48417a73abd2998a"),
    "core-appendixB_DHD": (0, EMPTY, EMPTY, "0d0cc9438c28d686"),
    "core-appendixB_H": (0, EMPTY, EMPTY, "0d0cc9438c28d686"),
    "double-appendixA_H": (0, EMPTY, EMPTY, "6f920b9eddd80e1b"),
    "double-appendixA_S": (0, EMPTY, EMPTY, "bb55f347a0efb2b4"),
    "double-appendixB_DHD": (0, EMPTY, EMPTY, "784d49186c6760d2"),
    "double-appendixB_H": (0, EMPTY, EMPTY, "f97c5445893c4a0e"),
    "excess-3": (0, "6450d099471cace8", EMPTY, None),
    "excess-3-json": (0, "0e87ab0a7da50872", EMPTY, None),
    "excess-5": (0, "7bee41ce4b09999a", EMPTY, None),
    "excess-5-json": (0, "815a4d649be10924", EMPTY, None),
    "realify-appendixA_H": (0, EMPTY, EMPTY, "7ef4521eec5068f7"),
    "realify-appendixA_S": (0, EMPTY, EMPTY, "ccf4bbf7bc678c61"),
    "realify-appendixB_DHD": (0, EMPTY, EMPTY, "72cda8177fb25425"),
    "realify-appendixB_H": (0, EMPTY, EMPTY, "51bf27c9e15b7f62"),
    "twist-appendixA": (0, EMPTY, EMPTY, "8c7fd1695d158e29"),
    "twist-appendixB": (0, EMPTY, EMPTY, "6906a4cd78ac5d84"),
    "verify-json-appendixA_H": (0, "aeaf922479afab41", EMPTY, None),
    "verify-json-appendixA_S": (0, "b50cdde7e99867e1", EMPTY, None),
    "verify-json-appendixB_DHD": (0, "081478c495de3096", EMPTY, None),
    "verify-json-appendixB_H": (0, "79fc4fdaa3706f77", EMPTY, None),
}


@pytest.mark.parametrize("name", sorted(GRID))
def test_cli_bytes_are_pinned(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MEM_BUDGET_MB", raising=False)
    assert run_digests(GRID[name], tmp_path, capsys) == GOLDEN[name]
