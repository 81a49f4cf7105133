"""Benchmark of the qhadamard command line, run in-process.

    python3 perfbench/run.py --workload quaternary --seed 1 --seconds 30 --trace 0

One closed loop: a single client calls ``qhadamard.cli.main(argv)`` with
the next command as soon as the last one returns, in this one process,
with one BLAS thread.  The program sees only the command lines and files
that the seed generates (see ``workloads.py``).  Every command's exit
code, JSON verdict and output file are checked.  Times are corrected for
the host's drifting speed (see ``hostspeed.py``); the raw wall times are
printed and recorded next to them.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics.  With ``--trace 1`` the same jobs are then repeated
with the layer functions wrapped (see ``spans.py``), and the object holds
the per-layer metrics and the tracing overhead instead.  A fuller record
goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# The 90th percentile needs at least ten samples beyond it.
MIN_JOBS = 100
SETUP_REPEATS = 3
# One thread (of the nproc allowed): with two, BLAS threads spin against
# the interpreter on a two-core machine and times spread further.
BLAS_THREADS = 1
END_TO_END = {  # name -> unit
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_p90": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_ratio": "ratio",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_program():
    """numpy with BLAS_THREADS threads, then the program from this
    checkout's ``src/`` and nothing else."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    from qhadamard import cli

    if Path(cli.__file__).resolve().parents[1] != src:
        raise ImportError(f"qhadamard was imported from {cli.__file__}, not {src}")
    return cli


def run_cli(cli, argv: list[str]) -> tuple[int | None, str, str]:
    """Exit code (None on an uncaught exception), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a command line
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def warm_up(cli, work: Path) -> None:
    """Start BLAS and touch the speed kernel and every command path once."""
    from hostspeed import kernel_s

    for _ in range(10):
        kernel_s()
    work.mkdir(parents=True)
    s, d = str(work / "s.qhm"), str(work / "d.qhm")
    for argv in (["construct", "--p", "3", "--out", s], ["verify", s, "--json"],
                 ["double", s, "--out", d], ["core", s, "--out", d],
                 ["realify", s, "--out", str(work / "r.rhm")],
                 ["excess", "--p", "3"], ["cod", "--p", "3", "--k", "1"]):
        run_cli(cli, argv)


class Loop:
    """The closed loop over rounds of jobs; collects times and failures."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.times: list[float] = []
        self.failures: list[str] = []
        self.rounds = 0
        from hostspeed import HostSpeed  # numpy loads after import_program

        self.speed = HostSpeed()

    def run_round(self, r: int, tracer=None) -> None:
        for job in self.workload.round(r):
            if job.out is not None:
                job.out.unlink(missing_ok=True)
            if tracer is not None:
                tracer.job = len(self.times)
            self.speed.sample()
            t0 = time.perf_counter()
            rc, stdout, stderr = run_cli(self.cli, job.argv)
            self.times.append(time.perf_counter() - t0)
            if rc is None:
                reason = "uncaught exception: " + stderr.strip().splitlines()[-1]
            else:
                reason = job.check(rc, stdout)
            if reason is not None:
                self.failures.append(f"{' '.join(job.argv)}: {reason}")
        self.rounds += 1

    def run_for(self, seconds: float) -> None:
        """Whole rounds until both the time and the job count are reached."""
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(self.times) < MIN_JOBS:
            self.run_round(self.rounds)
        self.speed.sample()

    def corrected(self) -> list[float]:
        return self.speed.correct(self.times)


def end_to_end(times: list[float], failed: int, setup_s: float) -> dict[str, float]:
    return {
        "jobs_per_s": len(times) / sum(times),
        "job_s_p50": statistics.median(times),
        "job_s_p90": statistics.quantiles(times, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
        "ok_ratio": 1 - failed / len(times),
    }


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "seed": seed,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    from hostspeed import HostSpeed
    from spans import Tracer, metric_units
    from workloads import WORKLOADS, SetupError

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        warm_up(cli, work / "warm")
        warm_s = time.perf_counter() - t0
        setup_speed = HostSpeed()
        gen_s = []
        for i in range(SETUP_REPEATS):
            (work / f"rep{i}").mkdir()
            workload = WORKLOADS[args.workload](args.seed, work / f"rep{i}")
            setup_speed.sample()
            t0 = time.perf_counter()
            workload.setup(lambda argv: run_cli(cli, argv)[:2])
            gen_s.append(time.perf_counter() - t0)
        setup_speed.sample()
        raw_setup_s = import_s + warm_s + statistics.median(gen_s)

        loop = Loop(cli, workload)
        loop.run_for(args.seconds)
        failed = len(loop.failures)
        metrics = end_to_end(loop.corrected(), failed, raw_setup_s * setup_speed.factor())
        raw = end_to_end(loop.times, failed, raw_setup_s)
        units = END_TO_END
        attempted, failures = len(loop.times), list(loop.failures)
        n = len(loop.times)
        notes = {"jobs_per_s": f"{n} commands over their summed time; raw {raw['jobs_per_s']:.4g}",
                 "job_s_p50": f"median of {n} commands; raw {raw['job_s_p50']:.4g}",
                 "job_s_p90": f"90th percentile of {n} commands; raw {raw['job_s_p90']:.4g}",
                 "setup_s": f"imports {import_s:.3f} s + warm-up {warm_s:.3f} s + median "
                            f"of {SETUP_REPEATS} input generations; raw {raw_setup_s:.4g}"}
        tracer = None
        if args.trace:
            tracer = Tracer()
            traced = Loop(cli, workload)
            tracer.install()
            try:
                for r in range(loop.rounds):
                    traced.run_round(r, tracer)
                traced.speed.sample()
            finally:
                tracer.uninstall()
            metrics = tracer.metrics()
            metrics["trace.overhead_s"] = (sum(traced.corrected())
                                           - sum(loop.corrected())) / attempted
            units = {k: u for k, u in metric_units().items() if k in metrics}
            attempted += len(traced.times)
            failures += traced.failures
            notes = {"trace.overhead_s": "traced minus untraced time, per command, "
                                         f"over {len(traced.times)} commands"}
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "rounds": loop.rounds, **environment(args.seed), "raw": raw,
        "host_speed_factor": loop.speed.factor(),
        **result, "failures": failures[:20], "notes": notes,
    }
    if tracer is not None:
        record["missing"] = tracer.missing
        tracer.dump(OUT / f"{stem}-spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for failure in failures[:20]:
        print(f"FAILED {failure}")
    if tracer is not None:
        for name in tracer.missing:
            print(f"MISSING span {name}: its metrics are not reported")
    print(f"fail_ratio: {len(failures) / attempted:.6f} ({len(failures)} of {attempted})")
    for key, unit in units.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{key}: {metrics[key]:.6g} {unit}{note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
