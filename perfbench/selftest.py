"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that one seed regenerates byte-identical inputs and command
lists (and another seed does not), that an unchanged round passes every
check, and that one deliberately wrong expectation per workload is
counted as a failure, so that ``fail_ratio`` rises above 0.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys

from run import OUT, Loop, end_to_end, import_program, run_cli
from workloads import WORKLOADS


def snapshot(workload) -> dict:
    """Every input file and the first rounds' command lines, relative to
    the work directory."""
    files = {p.name: p.read_bytes() for p in sorted(workload.work.iterdir())}
    rounds = [[" ".join(job.argv).replace(str(workload.work), "W") for job in
               workload.round(r)] for r in range(3)]
    return {"files": files, "rounds": rounds}


def main() -> int:
    cli = import_program()
    run = lambda argv: run_cli(cli, argv)[:2]  # noqa: E731
    base = OUT / f"selftest-{os.getpid()}"
    problems = []
    try:
        for name, cls in WORKLOADS.items():
            shots = []
            for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
                work = base / f"{name}-{tag}"
                work.mkdir(parents=True)
                workload = cls(seed, work)
                workload.setup(run)
                shots.append(snapshot(workload))
            if shots[0] != shots[1]:
                problems.append(f"{name}: seed 7 did not regenerate identical inputs")
            if shots[0] == shots[2]:
                problems.append(f"{name}: seeds 7 and 8 gave identical inputs")

            clean = Loop(cli, workload)
            clean.run_round(0)
            if clean.failures:
                problems.append(f"{name}: unchanged round failed: {clean.failures}")

            jobs = workload.round(0)
            wrong = dataclasses.replace(jobs[0], rc=jobs[0].rc + 1)
            workload.round = lambda r: [wrong] + jobs[1:]
            broken = Loop(cli, workload)
            broken.run_round(0)
            ratio = 1 - end_to_end(broken.times, len(broken.failures), 0.0)["ok_ratio"]
            if len(broken.failures) != 1 or not ratio > 0:
                problems.append(f"{name}: a wrong expectation gave fail_ratio {ratio}")
            print(f"{name}: inputs reproducible, wrong expectation -> "
                  f"fail_ratio {ratio:.4f}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
