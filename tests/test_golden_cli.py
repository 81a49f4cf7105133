"""Pinned output bytes of a grid of CLI runs.

Each run records its exit code and the first 16 hex digits of the
sha256 of stdout, of stderr and of the ``--out`` file (None when the run
writes none).  The digests were recorded from the program as it stood
before its test-only library surface was removed, and before its two
matrix classes became one on int8 planes (the runs on edited inputs,
stdin and ``MEM_BUDGET_MB``); a change that alters any byte the CLI
writes fails here.  To re-record after an intended change, print
``run_digests`` for every entry of ``GRID``.
"""

import hashlib
import io

import numpy as np
import pytest

from qhadamard import (
    builder, diag_similarity, double, make_field, qmatrix, realify, serialize, skew_regular_qhm,
)
from qhadamard.cli import main
from conftest import FIXTURES

QHM = ("appendixA_H", "appendixA_S", "appendixB_H", "appendixB_DHD")

GRID = {
    **{f"construct-{p}": ["construct", "--p", str(p), "--out", "{out}"]
       for p in (3, 5, 7, 11, 13)},
    **{f"excess-{p}{'-json' * j}": ["excess", "--p", str(p)] + ["--json"] * j
       for p in (3, 5) for j in (0, 1)},
    **{f"cod-{p}-{k}": ["cod", "--p", str(p), "--k", str(k)]
       for p, k in ((3, 0), (3, 1), (3, 2), (5, 1))},
    **{f"cod-{p}-{k}-eval-{e}": ["cod", "--p", str(p), "--k", str(k), "--eval", e,
                                 "--out", "{out}"]
       for p, k, e in [(p, k, e) for p, k in ((3, 1), (5, 1), (3, 2)) for e in ("1,1", "0,1")]
       + [(5, 1, "1,0")]},
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
    # Edited and edge inputs, written to ``{tmp}`` from ``INPUTS``.
    **{f"{cmd}-{name}": [cmd, f"{{tmp}}/{name}.qhm", "--out", "{out}"]
       for cmd in ("double", "core", "realify")
       for name in ("flipped", "bad-cell", "zero-cell", "all-real")},
    **{f"verify{'-json' * j}-{name}": ["verify", f"{{tmp}}/{name}.qhm"] + ["--json"] * j
       for j in (0, 1)
       for name in ("flipped", "bad-cell", "zero-cell", "all-real",
                    "rhm", "rhm-flipped", "rhm-i-cell")},
    "twist-all-real": ["twist", "{tmp}/all-real.qhm", "--v", "{tmp}/v2.phv",
                       "--out", "{out}"],
    "twist-short-vector": ["twist", "{fixtures}/appendixA_H.qhm",
                           "--v", "{tmp}/v2.phv", "--out", "{out}"],
    "twist-bad-phase": ["twist", "{fixtures}/appendixA_H.qhm",
                        "--v", "{tmp}/bad-phase.phv", "--out", "{out}"],
    "verify-stdin": ["verify", "-", "--expect-regular", "1,-5", "--expect-skew"],
    "verify-expect-regular-x-bad-cell": ["verify", "{tmp}/bad-cell.qhm",
                                         "--expect-regular", "x"],
    "verify-expect-regular-x": ["verify", "{fixtures}/appendixA_S.qhm",
                                "--expect-regular", "x"],
    "verify-expect-skew-regular-x-rhm": ["verify", "{tmp}/rhm.qhm", "--expect-skew",
                                         "--expect-regular", "x"],
    "budget-1-construct-11": ["construct", "--p", "11", "--out", "{out}"],
    "budget-1-construct-17": ["construct", "--p", "17", "--out", "{out}"],
    "budget-1-cod-3-2": ["cod", "--p", "3", "--k", "2"],
    "budget-x-construct-3": ["construct", "--p", "3", "--out", "{out}"],
    # The p = 13 families, clean and with one negated cell, and file
    # commands under a budget, which they do not read.
    **{f"verify-json-{name}{bad}": ["verify", f"{{tmp}}/{name}{bad}.qhm", "--json"]
       for name in ("s13", "d13", "t13", "r13") for bad in ("", "-bad")},
    **{f"double-{name}": ["double", f"{{tmp}}/{name}.qhm", "--out", "{out}"]
       for name in ("s13", "d13", "t13", "s13-bad")},
    "excess-7-json": ["excess", "--p", "7", "--json"],
    # The p = 13 S file with CRLF line ends, with no final newline, and
    # with one newline moved a cell to the left.
    **{f"verify-json-s13-{edge}": ["verify", f"{{tmp}}/s13-{edge}.qhm", "--json"]
       for edge in ("crlf", "no-final-newline", "displaced-newline")},
    **{f"budget-{b}-{cmd}-s13": [cmd, "{tmp}/s13.qhm"] + (["--json"] if cmd == "verify"
                                                        else ["--out", "{out}"])
       for b in ("1", "x") for cmd in ("verify", "double", "realify")},
}


def _edit(text, row, col, cell):
    """``text`` with the cell at body row ``row``, column ``col`` (0-based)
    replaced by ``cell(old)``."""
    lines = text.split("\n")
    line = lines[row + 1]
    lines[row + 1] = line[:col] + cell(line[col]) + line[col + 1:]
    return "\n".join(lines)


_A_S = (FIXTURES / "appendixA_S.qhm").read_text()
_SYLVESTER = "RHM 4\n1111\n1-1-\n11--\n1--1\n"
INPUTS = {
    "flipped.qhm": _edit(_A_S, 3, 7, lambda c: c.translate(str.maketrans("1-ij", "-1ji"))),
    "bad-cell.qhm": _edit(_A_S, 5, 2, lambda c: "x"),
    "zero-cell.qhm": _edit(_A_S, 2, 9, lambda c: "0"),
    "all-real.qhm": "QHM 2\n11\n1-\n",
    "rhm.qhm": _SYLVESTER,
    "rhm-flipped.qhm": _edit(_SYLVESTER, 2, 1, lambda c: "-"),
    "rhm-i-cell.qhm": _edit(_SYLVESTER, 1, 3, lambda c: "i"),
    "v2.phv": "1\ni\n",
    "bad-phase.phv": "1\n" * 5 + "0\n" + "1\n" * 20,
}


def _p13_inputs():
    """S at p = 13, its double, a seeded twist and its realification,
    each also with the cell at (5, 7) negated."""
    s = skew_regular_qhm(make_field(13))
    v = np.array([1, 1j, -1, -1j])[np.random.default_rng(13).integers(0, 4, s.n)]
    negate = str.maketrans("1-ij", "-1ji")
    texts = {}
    for name, m in (("s13", s), ("d13", double(s)), ("t13", diag_similarity(s, v)),
                    ("r13", realify(s))):
        texts[f"{name}.qhm"] = text = serialize(m).decode()
        texts[f"{name}-bad.qhm"] = _edit(text, 5, 7, lambda c: c.translate(negate))
    return texts


INPUTS.update(_p13_inputs())


def _displace_newline(text, row):
    """``text`` with the newline ending body row ``row`` (0-based) moved
    one cell to the left."""
    end = -1
    for _ in range(row + 2):
        end = text.index("\n", end + 1)
    return text[:end - 1] + "\n" + text[end - 1] + text[end + 1:]


INPUTS.update({
    "s13-crlf.qhm": INPUTS["s13.qhm"].replace("\n", "\r\n"),
    "s13-no-final-newline.qhm": INPUTS["s13.qhm"][:-1],
    "s13-displaced-newline.qhm": _displace_newline(INPUTS["s13.qhm"], 5),
})
STDIN = {"verify-stdin": _A_S}
ENV = {"budget-1-construct-11": "1", "budget-1-construct-17": "1",
       "budget-1-cod-3-2": "1", "budget-x-construct-3": "x",
       **{f"budget-{b}-{cmd}-s13": b for b in ("1", "x")
          for cmd in ("verify", "double", "realify")}}


EMPTY = hashlib.sha256(b"").hexdigest()[:16]


def _sha(data):
    return None if data is None else hashlib.sha256(data).hexdigest()[:16]


def run_digests(argv, tmp_path, capsys):
    """(exit code, sha256 of stdout, of stderr, of the --out file)."""
    out = tmp_path / "out"
    for name, text in INPUTS.items():
        if any(name in a for a in argv):
            (tmp_path / name).write_text(text)
    code = main([a.format(out=out, fixtures=FIXTURES, tmp=tmp_path) for a in argv])
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
    "budget-1-cod-3-2": (3, EMPTY, "f99d0668188893ff", None),
    "budget-1-construct-11": (0, EMPTY, EMPTY, "f5856833023dc85a"),
    "budget-1-construct-17": (3, EMPTY, "d6918e159f37f93f", None),
    "budget-x-construct-3": (2, EMPTY, "a210f54d1664d5e4", None),
    "core-all-real": (1, EMPTY, "7f78e2d3035492b3", None),
    "core-bad-cell": (2, EMPTY, "54f268320a10bfd7", None),
    "core-flipped": (1, EMPTY, "7f78e2d3035492b3", None),
    "core-zero-cell": (1, EMPTY, "7f78e2d3035492b3", None),
    "double-all-real": (0, EMPTY, EMPTY, "9c3e9a0fdc07f638"),
    "double-bad-cell": (2, EMPTY, "54f268320a10bfd7", None),
    "double-flipped": (1, EMPTY, "e55c989cd21d0594", None),
    "double-zero-cell": (1, EMPTY, "e55c989cd21d0594", None),
    "realify-all-real": (0, EMPTY, EMPTY, "36d259ad36033e96"),
    "realify-bad-cell": (2, EMPTY, "54f268320a10bfd7", None),
    "realify-flipped": (0, EMPTY, EMPTY, "ac86f3056acec6b9"),
    "realify-zero-cell": (0, EMPTY, EMPTY, "1f9c2a2fbf4fc2cd"),
    "twist-all-real": (0, EMPTY, EMPTY, "cd42b7c404d009b8"),
    "twist-bad-phase": (2, EMPTY, "1be5fe788e3182d9", None),
    "twist-short-vector": (2, EMPTY, "d68dbc00e5ae323b", None),
    "verify-all-real": (0, "7562433ea8467b8f", EMPTY, None),
    "verify-bad-cell": (2, EMPTY, "54f268320a10bfd7", None),
    # The one intended change: the value is refused before the report is
    # printed, so stdout is empty (the program before printed the report).
    "verify-expect-regular-x": (2, EMPTY, "5a34184c2221d6c1", None),
    # Its consequence: with --expect-skew on a matrix that is not skew,
    # the malformed value is now reported (exit 2) instead of the failed
    # expectation (exit 1, the report on stdout).
    "verify-expect-skew-regular-x-rhm": (2, EMPTY, "5a34184c2221d6c1", None),
    "verify-expect-regular-x-bad-cell": (2, EMPTY, "54f268320a10bfd7", None),
    "verify-flipped": (0, "e9ad86bc22b57d48", EMPTY, None),
    "verify-json-all-real": (0, "b8b576b642330616", EMPTY, None),
    "verify-json-bad-cell": (2, EMPTY, "54f268320a10bfd7", None),
    "verify-json-flipped": (0, "11159893f6211363", EMPTY, None),
    "verify-json-rhm": (0, "f361192fca12a0d6", EMPTY, None),
    "verify-json-rhm-flipped": (0, "a1b15a95e8522bdd", EMPTY, None),
    "verify-json-rhm-i-cell": (2, EMPTY, "e08ca0f53fb5cd3f", None),
    "verify-json-zero-cell": (0, "740de64037b29b59", EMPTY, None),
    "verify-rhm": (0, "ef6d6ee247ee3d5c", EMPTY, None),
    "verify-rhm-flipped": (0, "21c914aaf4de543e", EMPTY, None),
    "verify-rhm-i-cell": (2, EMPTY, "e08ca0f53fb5cd3f", None),
    "verify-stdin": (0, "dd26f0cd5379d844", EMPTY, None),
    "verify-zero-cell": (0, "55db44772d867000", EMPTY, None),
    # Recorded with the p = 13 and file-command budget cases added.
    "budget-1-double-s13": (0, EMPTY, EMPTY, "73409a6d1ad61617"),
    "budget-1-realify-s13": (0, EMPTY, EMPTY, "cdf4c5bab89f1aae"),
    "budget-1-verify-s13": (0, "a6580a429c5405d1", EMPTY, None),
    "budget-x-double-s13": (0, EMPTY, EMPTY, "73409a6d1ad61617"),
    "budget-x-realify-s13": (0, EMPTY, EMPTY, "cdf4c5bab89f1aae"),
    "budget-x-verify-s13": (0, "a6580a429c5405d1", EMPTY, None),
    "double-d13": (0, EMPTY, EMPTY, "678d689e0a007179"),
    "double-s13": (0, EMPTY, EMPTY, "73409a6d1ad61617"),
    "double-s13-bad": (1, EMPTY, "e55c989cd21d0594", None),
    "double-t13": (0, EMPTY, EMPTY, "73740d7029862bbf"),
    "excess-7-json": (0, "f4e8867a119d1af5", EMPTY, None),
    "verify-json-d13": (0, "f786a1f0196a32cc", EMPTY, None),
    "verify-json-d13-bad": (0, "429dbd853bda85e8", EMPTY, None),
    "verify-json-r13": (0, "b5f46f59bd42120b", EMPTY, None),
    "verify-json-r13-bad": (0, "6c00a4f582c30764", EMPTY, None),
    "verify-json-s13": (0, "a6580a429c5405d1", EMPTY, None),
    "verify-json-s13-bad": (0, "36fa5a4b6ec64430", EMPTY, None),
    "verify-json-t13": (0, "d571e4fbc85b0645", EMPTY, None),
    "verify-json-t13-bad": (0, "dc20e72fdf80df62", EMPTY, None),
    # Recorded before parsing moved to translate tables.
    "verify-json-s13-crlf": (0, "a6580a429c5405d1", EMPTY, None),
    "verify-json-s13-displaced-newline": (2, EMPTY, "7dcff51f6bc16c8c", None),
    "verify-json-s13-no-final-newline": (0, "a6580a429c5405d1", EMPTY, None),
    # Recorded before the design was expanded through a level table.
    "cod-3-2-eval-0,1": (0, EMPTY, EMPTY, "9309a6016bccadb2"),
    "cod-3-2-eval-1,1": (0, EMPTY, EMPTY, "fc8bd103444bc227"),
    "cod-5-1-eval-1,0": (0, EMPTY, EMPTY, "d1b45d727aa2ba8f"),
    # Recorded while S was still built as diag(v)(I - iC)diag(v*) by a
    # diagonal similarity of the whole matrix.
    "construct-13": (0, EMPTY, EMPTY, "ae5930345133e820"),
}


@pytest.mark.parametrize("name", sorted(GRID))
def test_cli_bytes_are_pinned(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MEM_BUDGET_MB", raising=False)
    if name in ENV:
        monkeypatch.setenv("MEM_BUDGET_MB", ENV[name])
    if name in STDIN:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(STDIN[name].encode())))
    assert run_digests(GRID[name], tmp_path, capsys) == GOLDEN[name]


def test_construct_forms_no_phase_product(tmp_path, capsys, monkeypatch):
    # S is written from the core view: neither the diagonal similarity nor
    # the plane products behind it run, and the bytes stay the pinned ones.
    def refuse(*args, **kwargs):
        raise AssertionError("phase product called")

    monkeypatch.delenv("MEM_BUDGET_MB", raising=False)
    for module, name in ((qmatrix, "diag_similarity"), (qmatrix, "_mul"),
                         (builder, "diag_similarity")):
        monkeypatch.setattr(module, name, refuse)
    assert run_digests(GRID["construct-13"], tmp_path, capsys) == GOLDEN["construct-13"]
