"""Differential grid: run the qhadamard CLI of two checkouts over one
grid of inputs and name every run whose bytes differ.

    python tools/diffgrid.py A_CHECKOUT B_CHECKOUT

Each run is one subprocess, ``python -m qhadamard.cli ARGS`` with
``PYTHONPATH`` set to the checkout's ``src``, started in an empty
working directory, with one BLAS thread and no ``MEM_BUDGET_MB`` unless
the run sets it.  A run compares four streams: the exit code, stdout,
stderr and the ``out`` file it writes (absent when it writes none).  The
checkout's own path is replaced by ``<checkout>`` in stdout and stderr,
so that a traceback compares by its text, not by where the checkout
lies.

The grid covers
  - usage errors and ``--help`` for every command;
  - ``construct`` at every odd prime <= 23 and at invalid p;
  - ``excess`` with and without ``--json`` at every odd prime <= 31;
  - ``cod`` summaries and ``--eval`` points, valid and invalid, at levels
    k = 1 and 2, summaries at k = 0 for p = 3, 5, 11, 13, 23, 47 and 101
    and at p = 3, k = 3 (order 7290), ``--eval`` at k = 0 and at p = 7,
    k = 1, ``--eval`` to stdout, and
    ``--eval 1,1`` at p = 3, k = 3 (order 7290);
  - every file command on S, its twist, double, core, realification and
    the realification of its double, at every odd prime <= 23;
  - every file command on the paper's X_S = [[S, iS], [iS, S]] and its
    realification at p = 3, 5, 13;
  - those files with one cell negated, rotated by i or zeroed at three
    places;
  - malformed S files (bytes, line ends, headers, rows) at p = 3, 13;
  - the fixtures (of the checkout this script is in), stdin input,
    ``MEM_BUDGET_MB`` of 1 and ``x``, and a directory given as a file.

The input files are written once, by checkout A's CLI and by byte edits
of what it wrote, and both checkouts read the same files.  The exit
status is 0 when every run matches, 1 when any run differs and 2 on a
usage error.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
COMMANDS = ("construct", "verify", "double", "core", "cod", "excess", "realify", "twist")
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)
EXCESS_PRIMES = PRIMES + (29, 31)
XS_PRIMES = (3, 5, 13)
WORKERS = 2
NEGATE = str.maketrans("1-ij", "-1ji")
ROTATE = str.maketrans("1i-j", "i-j1")


class Run(NamedTuple):
    name: str
    argv: tuple[str, ...]
    stdin: Path | None = None
    budget: str | None = None


def cli(checkout: Path, argv, cwd: Path, stdin: Path | None = None,
        budget: str | None = None) -> tuple[int, bytes, bytes]:
    env = {k: v for k, v in os.environ.items() if k != "MEM_BUDGET_MB"}
    env.update(PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    if budget is not None:
        env["MEM_BUDGET_MB"] = budget
    with open(stdin or os.devnull, "rb") as fh:
        proc = subprocess.run([sys.executable, "-m", "qhadamard.cli", *argv], cwd=cwd,
                              env=env, stdin=fh, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def outcome(checkout: Path, run: Run) -> dict[str, object]:
    """The four streams of one run, in a fresh working directory."""
    with tempfile.TemporaryDirectory() as cwd:
        code, out, err = cli(checkout, run.argv, Path(cwd), run.stdin, run.budget)
        written = Path(cwd, "out")
        data = written.read_bytes() if written.exists() else None
    path = str(checkout).encode()
    return {"exit": code, "stdout": out.replace(path, b"<checkout>"),
            "stderr": err.replace(path, b"<checkout>"), "out": data}


def _edit(text: str, row: int, col: int, table) -> str:
    """``text`` with the body cell at (row, col) translated by ``table``."""
    lines = text.split("\n")
    line = lines[row + 1]
    lines[row + 1] = line[:col] + line[col].translate(table) + line[col + 1:]
    return "\n".join(lines)


def _phase_vector(n: int) -> str:
    return "".join("1ij-"[k % 4] + "\n" for k in range(n))


def make_inputs(checkout: Path, inputs: Path) -> None:
    """Write every input file of the grid into ``inputs``, with
    ``checkout``'s CLI for the matrices."""
    def write(name, argv):
        code, _, err = cli(checkout, [*argv, "--out", str(inputs / name)], inputs)
        if code:
            raise SystemExit(f"making {name} failed ({code}): {err.decode()}")

    for p in PRIMES:
        n = 1 + p * p
        for order in (n, 2 * n, p * p):
            (inputs / f"v{order}.phv").write_text(_phase_vector(order))
        write(f"s{p}.qhm", ["construct", "--p", str(p)])
        write(f"t{p}.qhm", ["twist", str(inputs / f"s{p}.qhm"), "--v", str(inputs / f"v{n}.phv")])
        for kind, cmd, src in (("d", "double", "s"), ("c", "core", "s"),
                               ("r", "realify", "s"), ("rd", "realify", "d")):
            write(f"{kind}{p}.qhm", [cmd, str(inputs / f"{src}{p}.qhm")])
        for kind in ("s", "t", "d", "r"):
            text = (inputs / f"{kind}{p}.qhm").read_text()
            size = int(text.split("\n", 1)[0].split()[1])
            tables = {"neg": NEGATE, "zero": str.maketrans("1-ij", "0000")}
            if kind != "r":
                tables["rot"] = ROTATE
            for label, table in tables.items():
                for r, c in ((0, 0), (1, 2), (size - 1, 0)):
                    (inputs / f"x-{kind}{p}-{label}-{r}-{c}.qhm").write_text(
                        _edit(text, r, c, table))
    for p in XS_PRIMES:
        # X_S = [[S, iS], [iS, S]], a text edit of S: ROTATE multiplies a cell by i.
        rows = (inputs / f"s{p}.qhm").read_text().split("\n")[1:-1]
        top = [r + r.translate(ROTATE) for r in rows]
        bottom = [r.translate(ROTATE) + r for r in rows]
        (inputs / f"xs{p}.qhm").write_text(
            f"QHM {2 * len(rows)}\n" + "".join(r + "\n" for r in top + bottom))
        write(f"rxs{p}.qhm", ["realify", str(inputs / f"xs{p}.qhm")])
    for p in (3, 13):
        text = (inputs / f"s{p}.qhm").read_text()
        header, body = text.split("\n", 1)
        rows = body.split("\n")[:-1]
        n = len(rows)
        malformed = {
            "crlf": text.replace("\n", "\r\n"),
            "no-final-newline": text[:-1],
            "blank-last-line": text + "\n",
            "truncated": header + "\n" + "\n".join(rows[:-1]) + "\n",
            "extra-row": text + rows[0] + "\n",
            "short-long": header + "\n" + rows[0][:-1] + "\n" + rows[1] + rows[0][-1]
            + "\n" + "\n".join(rows[2:]) + "\n",
            "lone-cr": text.replace("\n", "\r", 2).replace("\r", "\n", 1),
            "bad-cell": _edit(text, 1, 1, str.maketrans("1-ij", "xxxx")),
            "dropped-newlines": text.replace("\n", "", 2),
            "header-words": f"QHM {n} x\n" + body,
            "header-kind": f"XHM {n}\n" + body,
            "header-order": f"QHM {n + 1}\n" + body,
            "header-zero": "QHM 0\n" + body,
            "header-negative": "QHM -1\n" + body,
            "header-plus": f"QHM +{n}\n" + body,
            "header-underscore": f"QHM {n // 10}_{n % 10}\n" + body,
            "header-leading-zero": f"QHM 0{n}\n" + body,
            "header-tab": f"QHM\t{n}\n" + body,
            "rhm-header": f"RHM {n}\n" + body,
            "empty": "",
        }
        for label, t in malformed.items():
            (inputs / f"m-s{p}-{label}.qhm").write_text(t, newline="")
        raw = text.encode()
        for label, byte in (("0x80", b"\x80"), ("0xff", b"\xff"), ("nul", b"\x00")):
            (inputs / f"m-s{p}-{label}.qhm").write_bytes(raw[:20] + byte + raw[21:])
    (inputs / "rhm-i-cell.qhm").write_text("RHM 2\n1i\n1-\n")
    (inputs / "all-real.qhm").write_text("QHM 2\n11\n1-\n")
    (inputs / "v2.phv").write_text("1\ni\n")
    (inputs / "bad-phase.phv").write_text("1\n" * 5 + "0\n" + "1\n" * 20)
    (inputs / "bad-char.phv").write_text("1\n" * 5 + "x\n" + "1\n" * 20)
    (inputs / "dir").mkdir()


def _file_runs(name: str, path: Path, p: int, vector: Path | None) -> list[Run]:
    """Every file command on ``path``; ``twist`` only with a vector."""
    f = str(path)
    runs = [Run(f"verify-{name}", ("verify", f)),
            Run(f"verify-json-{name}", ("verify", f, "--json")),
            Run(f"verify-expect-skew-{name}", ("verify", f, "--expect-skew")),
            Run(f"verify-expect-regular-{name}",
                ("verify", f, "--expect-regular", f"1,{-p}")),
            Run(f"verify-expect-regular-x-{name}", ("verify", f, "--expect-regular", "x"))]
    for cmd in ("double", "core", "realify"):
        runs.append(Run(f"{cmd}-{name}", (cmd, f, "--out", "out")))
    if vector is not None:
        runs.append(Run(f"twist-{name}", ("twist", f, "--v", str(vector), "--out", "out")))
    return runs


def grid(inputs: Path) -> list[Run]:
    runs = [Run("no-arguments", ()), Run("help", ("--help",)),
            Run("unknown-command", ("bogus",)),
            Run("construct-no-p", ("construct",)), Run("construct-p-x", ("construct", "--p", "x")),
            Run("verify-missing-file", ("verify", str(inputs / "missing.qhm")))]
    runs += [Run(f"help-{cmd}", (cmd, "--help")) for cmd in COMMANDS]
    for p in PRIMES:
        runs.append(Run(f"construct-{p}", ("construct", "--p", str(p))))
        runs.append(Run(f"construct-{p}-out", ("construct", "--p", str(p), "--out", "out")))
    runs += [Run(f"construct-{p}", ("construct", "--p", p)) for p in ("1", "2", "4", "9", "15", "-3", "0")]
    for p in EXCESS_PRIMES:
        runs.append(Run(f"excess-{p}", ("excess", "--p", str(p))))
        runs.append(Run(f"excess-{p}-json", ("excess", "--p", str(p), "--json")))
    runs += [Run(f"excess-{p}", ("excess", "--p", str(p))) for p in (2, 9)]
    for p, k in ((3, 0), (3, 1), (3, 2), (3, 3), (5, 0), (5, 1), (7, 1), (11, 0), (13, 0),
                 (23, 0), (47, 0), (101, 0), (3, -1), (3, 6), (4, 1)):
        runs.append(Run(f"cod-{p}-{k}", ("cod", "--p", str(p), "--k", str(k))))
    for p, k in ((3, 1), (5, 1), (3, 2)):
        for point in ("1,1", "0,1", "1,0", "0,0", "2,0", "x", "1"):
            runs.append(Run(f"cod-{p}-{k}-eval-{point}",
                            ("cod", "--p", str(p), "--k", str(k), "--eval", point, "--out", "out")))
    for p, k in ((3, 0), (7, 0), (7, 1)):
        for point in ("1,1", "0,0"):
            runs.append(Run(f"cod-{p}-{k}-eval-{point}",
                            ("cod", "--p", str(p), "--k", str(k), "--eval", point, "--out", "out")))
    for p, k, point in ((3, 1, "1,1"), (5, 1, "0,1")):
        runs.append(Run(f"cod-{p}-{k}-eval-{point}-stdout",
                        ("cod", "--p", str(p), "--k", str(k), "--eval", point)))
    runs.append(Run("cod-3-3-eval-1,1", ("cod", "--p", "3", "--k", "3", "--eval", "1,1",
                                         "--out", "out")))
    runs.append(Run("cod-3-6-eval", ("cod", "--p", "3", "--k", "6", "--eval", "1,1")))
    for p in PRIMES:
        n = 1 + p * p
        for kind, order in (("s", n), ("t", n), ("d", 2 * n), ("c", p * p), ("r", 0), ("rd", 0)):
            runs += _file_runs(f"{kind}{p}", inputs / f"{kind}{p}.qhm", p,
                               inputs / f"v{order}.phv" if order else None)
    for p in XS_PRIMES:
        runs += _file_runs(f"xs{p}", inputs / f"xs{p}.qhm", p, inputs / f"v{2 * (1 + p * p)}.phv")
        runs += _file_runs(f"rxs{p}", inputs / f"rxs{p}.qhm", p, None)
    # Corrupted cells (x-), then malformed files (m-).
    for path in sorted(inputs.glob("x-*.qhm")):
        runs.append(Run(f"verify-json-{path.stem}", ("verify", str(path), "--json")))
        if not path.name.startswith("x-r"):
            runs.append(Run(f"double-{path.stem}", ("double", str(path), "--out", "out")))
    for path in sorted(inputs.glob("m-*.qhm")):
        runs.append(Run(f"verify-json-{path.stem}", ("verify", str(path), "--json")))
        runs.append(Run(f"realify-{path.stem}", ("realify", str(path), "--out", "out")))
    for path in sorted(FIXTURES.glob("*.qhm")):
        runs += _file_runs(path.stem, path, 5, path.with_name(path.stem.split("_")[0] + "_v.phv"))
    for path in sorted(FIXTURES.glob("*.phv")):
        runs.append(Run(f"verify-{path.stem}", ("verify", str(path))))
    fixture_h = str(FIXTURES / "appendixA_H.qhm")
    for vector in ("v2", "bad-phase", "bad-char"):
        runs.append(Run(f"twist-appendixA-{vector}",
                        ("twist", fixture_h, "--v", str(inputs / f"{vector}.phv"), "--out", "out")))
    for name in ("rhm-i-cell", "all-real"):
        runs += _file_runs(name, inputs / f"{name}.qhm", 1, inputs / "v2.phv")
    runs.append(Run("verify-stdin", ("verify", "-", "--expect-regular", "1,-13", "--expect-skew"),
                    stdin=inputs / "s13.qhm"))
    runs.append(Run("double-stdin", ("double", "-", "--out", "out"), stdin=inputs / "s13.qhm"))
    s13, directory = str(inputs / "s13.qhm"), str(inputs / "dir")
    runs += [Run("verify-directory", ("verify", directory)),
             Run("twist-v-directory", ("twist", s13, "--v", directory, "--out", "out"))]
    for budget in ("1", "x"):
        for name, argv in (("construct-11", ("construct", "--p", "11")),
                           ("excess-13", ("excess", "--p", "13")),
                           ("cod-3-2", ("cod", "--p", "3", "--k", "2")),
                           ("verify-s13", ("verify", s13, "--json")),
                           ("double-s13", ("double", s13, "--out", "out"))):
            runs.append(Run(f"budget-{budget}-{name}", argv, budget=budget))
    return runs


def compare(a: Path, b: Path, run: Run) -> list[str]:
    """The names of the streams in which ``run`` differs between a and b."""
    x, y = outcome(a, run), outcome(b, run)
    return [stream for stream in x if x[stream] != y[stream]]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all((Path(c) / "src" / "qhadamard").is_dir() for c in args):
        print("usage: diffgrid.py A_CHECKOUT B_CHECKOUT (each with src/qhadamard)",
              file=sys.stderr)
        return 2
    a, b = (Path(c).resolve() for c in args)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp)
        make_inputs(a, inputs)
        runs = grid(inputs)
        names = [run.name for run in runs]
        assert len(set(names)) == len(names), "run names must be unique"
        with ThreadPoolExecutor(WORKERS) as pool:
            results = list(pool.map(lambda run: compare(a, b, run), runs))
    differing = [(run, streams) for run, streams in zip(runs, results) if streams]
    for run, streams in differing:
        print(f"DIFF {run.name}: {', '.join(streams)}  [{' '.join(run.argv)}]")
    print(f"{len(runs)} runs, {len(differing)} differ, {time.perf_counter() - start:.0f} s")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
