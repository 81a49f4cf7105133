"""Large-order bench: wall time and peak RSS of the qhadamard CLI at the
largest orders the default memory budget admits, one subprocess a run.

    python tools/bench_large.py --out BENCH_<label>.json [--checkout DIR]
    python tools/bench_large.py --checkout OLD --out BENCH_<old>.json \
                                --checkout NEW --out BENCH_<new>.json

The grid is fixed: ``construct`` at p = 47, 61 and 101, ``verify``,
``core``, ``double`` and ``realify`` of the p = 101 file, ``twist`` of it
by a fixed phase vector (``PHASES``), ``verify`` of the realified
p = 101 file and of the doubled and realified p = 47 files,
the rejects: ``verify`` of the doubled p = 47 file and of the p = 101
file, each with one cell rotated by i (``ROTATED``), ``excess`` at
p = 47, 61 and 101, the ``cod`` summaries at p = 61 and 101 with k = 0,
``cod --p 3 --k 3 --eval 1,1`` (order 7290), and the refusals ``cod``
(3, 4) and (7, 2) (exit 3) and ``construct`` at p = 9 and 25 (exit 2).
The file commands read what the runs before them wrote, so every run
works on the checkout's own output.

Each run is ``python -m qhadamard.cli ARGS`` with ``PYTHONPATH`` set to
the checkout's ``src``, one BLAS thread and no ``MEM_BUDGET_MB``, in a
temporary working directory of its checkout; runs go one at a time and
each is made ``REPEAT`` times.  Given several checkouts, with one
``--out`` each, the script alternates between them run by run, so that
their files compare under the same host conditions.

A run records its exit code, its wall times and their median, the
child's peak RSS (``ru_maxrss`` from ``os.wait4``, which reads only that
child) and the sha256 of its stdout and of the file it writes.  A child
starts from this process's peak RSS, which Linux copies into it at the
fork, so this process imports no numpy and hashes files in chunks: its
own peak stays below that of any run.  A result also holds the line count of each
``src/qhadamard/*.py`` file of its checkout (as ``wc -l`` counts them),
and the Python and numpy versions and the CPU count.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEAT = 5

# (name, argv, file the run writes or None), in run order.
GRID = (
    ("construct-47", ["construct", "--p", "47", "--out", "S47.qhm"], "S47.qhm"),
    ("double-S47", ["double", "S47.qhm", "--out", "D47.qhm"], "D47.qhm"),
    ("realify-S47", ["realify", "S47.qhm", "--out", "R47.rhm"], "R47.rhm"),
    ("verify-D47", ["verify", "D47.qhm", "--json"], None),
    ("verify-D47x", ["verify", "D47x.qhm", "--json"], None),
    ("verify-R47", ["verify", "R47.rhm", "--json"], None),
    ("construct-61", ["construct", "--p", "61", "--out", "S61.qhm"], "S61.qhm"),
    ("construct-101", ["construct", "--p", "101", "--out", "S101.qhm"], "S101.qhm"),
    ("verify-S101", ["verify", "S101.qhm", "--json"], None),
    ("verify-S101x", ["verify", "S101x.qhm", "--json"], None),
    ("core-S101", ["core", "S101.qhm", "--out", "C101.qhm"], "C101.qhm"),
    ("twist-S101", ["twist", "S101.qhm", "--v", "V101.txt", "--out", "T101.qhm"], "T101.qhm"),
    ("double-S101", ["double", "S101.qhm", "--out", "D101.qhm"], "D101.qhm"),
    ("realify-S101", ["realify", "S101.qhm", "--out", "R101.rhm"], "R101.rhm"),
    ("verify-R101", ["verify", "R101.rhm", "--json"], None),
    ("excess-47", ["excess", "--p", "47", "--json"], None),
    ("excess-61", ["excess", "--p", "61", "--json"], None),
    ("excess-101", ["excess", "--p", "101"], None),
    ("cod-61-0", ["cod", "--p", "61", "--k", "0"], None),
    ("cod-101-0", ["cod", "--p", "101", "--k", "0"], None),
    ("cod-3-3-eval", ["cod", "--p", "3", "--k", "3", "--eval", "1,1", "--out", "E3_3.qhm"],
     "E3_3.qhm"),
    ("cod-3-4", ["cod", "--p", "3", "--k", "4"], None),
    ("cod-7-2", ["cod", "--p", "7", "--k", "2"], None),
    ("construct-9", ["construct", "--p", "9"], None),
    ("construct-25", ["construct", "--p", "25"], None),
)


# Inputs that are a file an earlier run wrote with the body cell
# ROTATED_CELL rotated by i (1 -> i -> -1 -> -i -> 1), edited as bytes.
ROTATED = {"D47x.qhm": "D47.qhm", "S101x.qhm": "S101.qhm"}
ROTATED_CELL = (1, 2)
ROTATE = bytes.maketrans(b"1i-j", b"i-j1")


def rotate_cell(src: Path, dst: Path, row: int, col: int) -> None:
    """``src`` copied to ``dst`` with the body cell (row, col) rotated by
    i, edited in place so that this process never holds the file."""
    shutil.copyfile(src, dst)
    with open(dst, "r+b") as fh:
        header = fh.readline()
        fh.seek(len(header) + row * (int(header.split()[1]) + 1) + col)
        cell = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(cell.translate(ROTATE))


# Phase-vector inputs, by file name: their length.  Phase k is
# "1ij-"[k(k + 1)/2 mod 4], which takes all four values.
PHASES = {"V101.txt": 1 + 101 * 101}


def write_phases(dst: Path, length: int) -> None:
    dst.write_text("".join("1ij-"[k * (k + 1) // 2 % 4] + "\n" for k in range(length)))


def _sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def run_once(checkout: Path, argv: list[str], cwd: Path) -> tuple[int, float, float, str]:
    """Exit code, wall seconds, peak RSS in MB and stdout sha256 of one run."""
    env = {k: v for k, v in os.environ.items() if k != "MEM_BUDGET_MB"}
    env.update(PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    stdout = cwd / "stdout"
    with open(stdout, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "qhadamard.cli", *argv], cwd=cwd,
                                env=env, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return proc.returncode, wall, usage.ru_maxrss / 1024, _sha256(stdout)


def source_lines(checkout: Path) -> dict[str, int]:
    files = sorted((checkout / "src" / "qhadamard").glob("*.py"))
    lines = {f.name: f.read_bytes().count(b"\n") for f in files}
    lines["total"] = sum(lines.values())
    return lines


def bench(checkouts: list[Path]) -> list[dict]:
    """The grid's records, one result per checkout.  The checkouts take
    turns run by run, in an order that flips from one repetition to the
    next, so that a drift of the host's speed falls on all of them alike."""
    runs = [[] for _ in checkouts]
    with contextlib.ExitStack() as stack:
        works = [Path(stack.enter_context(tempfile.TemporaryDirectory())) for _ in checkouts]
        for name, argv, written in GRID:
            records = [{"name": name, "argv": argv, "exit": [], "wall_s": [],
                        "peak_rss_mb": [], "stdout_sha256": [], "out_sha256": []}
                       for _ in checkouts]
            for cwd in works:
                for arg in argv:
                    if arg in ROTATED:
                        rotate_cell(cwd / ROTATED[arg], cwd / arg, *ROTATED_CELL)
                    if arg in PHASES:
                        write_phases(cwd / arg, PHASES[arg])
            for rep in range(REPEAT):
                order = list(range(len(checkouts)))
                for i in order[::-1] if rep % 2 else order:
                    cwd, record = works[i], records[i]
                    if written is not None:
                        (cwd / written).unlink(missing_ok=True)
                    code, wall, rss, stdout = run_once(checkouts[i], argv, cwd)
                    path = cwd / written if written is not None else None
                    record["exit"].append(code)
                    record["wall_s"].append(round(wall, 3))
                    record["peak_rss_mb"].append(round(rss, 1))
                    record["stdout_sha256"].append(stdout)
                    record["out_sha256"].append(
                        _sha256(path) if path is not None and path.exists() else None)
            for checkout, record, checkout_runs in zip(checkouts, records, runs):
                record["wall_median_s"] = statistics.median(record["wall_s"])
                print(f"{name:14s} exit {record['exit']} wall {record['wall_s']} s "
                      f"(median {record['wall_median_s']}) "
                      f"peak {record['peak_rss_mb']} MB  ({checkout.name})", file=sys.stderr)
                checkout_runs.append(record)
    return [{
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "repeat": REPEAT,
        "lines": source_lines(checkout),
        "runs": checkout_runs,
    } for checkout, checkout_runs in zip(checkouts, runs)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", action="append", required=True,
                        help="a BENCH_<label>.json to write; repeat it with --checkout")
    parser.add_argument("--checkout", action="append", type=Path,
                        help="the tree whose CLI runs for the --out in the same place "
                             "(default: this one)")
    args = parser.parse_args(argv)
    checkouts = args.checkout or [ROOT]
    if len(checkouts) != len(args.out):
        parser.error("give one --checkout for each --out")
    for checkout in checkouts:
        if not (checkout / "src" / "qhadamard" / "cli.py").is_file():
            parser.error(f"{checkout} holds no src/qhadamard")
    results = bench([checkout.resolve() for checkout in checkouts])
    for out, result in zip(args.out, results):
        Path(out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
