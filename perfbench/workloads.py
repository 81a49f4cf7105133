"""Seeded inputs, command lists and expected outcomes for the three workloads.

A workload makes its input files once in ``setup`` and then yields one
*round* of jobs at a time.  A round holds a fixed mix of commands; the
seed sets their order, which cells of the verify inputs are corrupted,
the malformed files and the random twist vectors.  Rounds are the unit
of measurement, so every run sees the same mix of job kinds and only
the order and the seeded data vary between seeds.

Expected outcomes are computed here with numpy, independently of the
program, from the matrix the program's ``construct`` wrote during set-up
(which is itself checked against the paper's properties).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# -- text format, vectorised (the program's own format, re-implemented) ----

# Cell code (re + 1) * 3 + (im + 1) -> character.
_CHARS = np.frombuffer(b"?-?j0i?1?", dtype=np.uint8)
_VALUES = np.full(256, np.nan, dtype=np.complex128)
for _ch, _v in ((b"1", 1), (b"-", -1), (b"i", 1j), (b"j", -1j), (b"0", 0)):
    _VALUES[_ch[0]] = _v
PHASES = np.array([1, 1j, -1, -1j])
RHM_CELLS = (np.array([[1, 1], [1, -1]]), np.array([[-1, 1], [1, 1]]))


def dumps(m: np.ndarray, real: bool = False) -> bytes:
    n = m.shape[0]
    re = np.rint(m.real).astype(np.int64)
    im = np.rint(m.imag).astype(np.int64)
    body = np.empty((n, n + 1), dtype=np.uint8)
    body[:, :n] = _CHARS[(re + 1) * 3 + (im + 1)]
    body[:, n] = ord("\n")
    return f"{'RHM' if real else 'QHM'} {n}\n".encode() + body.tobytes()


def loads(data: bytes) -> np.ndarray:
    header, _, body = data.partition(b"\n")
    n = int(header.split()[1])
    cells = np.frombuffer(body, dtype=np.uint8).reshape(n, n + 1)[:, :n]
    m = _VALUES[cells]
    if np.isnan(m.real).any():
        raise ValueError("bad cell")
    return m


def dumps_phases(v: np.ndarray) -> bytes:
    chars = _CHARS[(np.rint(v.real).astype(np.int64) + 1) * 3
                   + np.rint(v.imag).astype(np.int64) + 1]
    return np.stack([chars, np.full_like(chars, ord("\n"))], axis=1).tobytes()


# -- independent oracles ---------------------------------------------------

def is_hadamard(m: np.ndarray) -> bool:
    """All cells nonzero and M M* = n I (exact: small Gaussian integers)."""
    n = m.shape[0]
    return bool((m != 0).all()) and np.array_equal(m @ m.conj().T, n * np.eye(n))


def is_skew(m: np.ndarray) -> bool:
    return np.array_equal(m + m.conj().T, 2 * np.eye(m.shape[0]))


def common_row_sum(m: np.ndarray) -> list[int] | None:
    s = m.sum(axis=1)
    return [int(s[0].real), int(s[0].imag)] if (s == s[0]).all() else None


def verdict(m: np.ndarray, hadamard: bool, real: bool = False) -> dict:
    """The fields of ``verify --json`` that the benchmark checks."""
    out = {"order": m.shape[0], "hadamard": hadamard, "skew": is_skew(m),
           "regular": common_row_sum(m)}
    if real:
        out["excess"] = int(m.real.sum())
    return out


def double(s: np.ndarray) -> np.ndarray:
    h = s.conj().T
    return np.block([[s, 1j * s], [1j * h, h]])


def core(s: np.ndarray) -> np.ndarray:
    d = s[0].copy()
    d[0] = 1
    return (d[:, None] * s * d.conj()[None, :])[1:, 1:]


def twist(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    return v[:, None] * s * v.conj()[None, :]


def realify(s: np.ndarray) -> np.ndarray:
    a, b = s.real, s.imag
    return np.kron(a, RHM_CELLS[0]) + np.kron(b, RHM_CELLS[1]) + 0j


def corrupt(m: np.ndarray, rng: random.Random, real: bool = False) -> np.ndarray:
    """One cell replaced by another unit.  Every cell of the inputs is a
    unit, so the changed row is no longer orthogonal to any other row:
    the result is never Hadamard."""
    out = m.copy()
    r, c = rng.randrange(m.shape[0]), rng.randrange(m.shape[0])
    if real:
        out[r, c] = -out[r, c]
    else:
        out[r, c] = rng.choice([x for x in PHASES if x != out[r, c]])
    return out


class SetupError(RuntimeError):
    """The program's output during set-up fails the paper's properties."""


def check_skew_regular(s: np.ndarray, p: int) -> None:
    if not (s.shape[0] == 1 + p * p and is_hadamard(s) and is_skew(s)
            and common_row_sum(s) == [1, -p]):
        raise SetupError(f"construct --p {p} is not a skew-regular Hadamard matrix")


# -- jobs ------------------------------------------------------------------

@dataclass
class Job:
    kind: str
    argv: list[str]
    rc: int = 0
    out: Path | None = None
    out_bytes: bytes | None = None
    fields: dict = field(default_factory=dict)  # dotted key -> expected value
    out_check: Callable[[bytes], str | None] | None = None

    def check(self, rc: int, stdout: str) -> str | None:
        """None when the outcome is the expected one, else the reason."""
        if rc != self.rc:
            return f"exit {rc}, expected {self.rc}"
        if self.fields:
            try:
                got = json.loads(stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                return "no JSON on stdout"
            for key, want in self.fields.items():
                value = got
                for part in key.split("."):
                    value = value.get(part) if isinstance(value, dict) else None
                if value != want:
                    return f"{key} = {value!r}, expected {want!r}"
        if self.out is not None:
            if not self.out.exists():
                return "no output file"
            data = self.out.read_bytes()
            if self.out_bytes is not None and data != self.out_bytes:
                return "output file differs from the expected matrix"
            if self.out_check is not None:
                return self.out_check(data)
        return None


def interleave(chains: list[list[Job]], rng: random.Random) -> list[Job]:
    """A seeded merge of the chains that keeps each chain's own order."""
    chains = [list(c) for c in chains if c]
    order = [i for i, c in enumerate(chains) for _ in c]
    rng.shuffle(order)
    return [chains[i].pop(0) for i in order]


Runner = Callable[[list[str]], tuple[int, str]]


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.rng = random.Random(f"{self.name}:{seed}:inputs")

    def path(self, name: str) -> Path:
        return self.work / name

    def write(self, name: str, data: bytes) -> Path:
        path = self.path(name)
        path.write_bytes(data)
        return path

    def construct(self, run: Runner, p: int) -> np.ndarray:
        """Run the program's ``construct`` and check it against the paper."""
        path = self.path(f"S{p}.qhm")
        rc, _ = run(["construct", "--p", str(p), "--out", str(path)])
        if rc != 0:
            raise SetupError(f"construct --p {p} exited {rc}")
        s = loads(path.read_bytes())
        check_skew_regular(s, p)
        return s

    def setup(self, run: Runner) -> None:
        raise NotImplementedError

    def round(self, r: int) -> list[Job]:
        raise NotImplementedError

    def round_rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:round:{r}")


class Quaternary(Workload):
    """The paper's base path: construct, verify, double, core, twist.

    A round runs each prime's chain three times; each time a different
    one of its three verifies reads a corrupted file.  It also runs each
    kind of malformed input once.  So every round holds the same mix of
    accepts, rejects and parse errors.
    """

    name = "quaternary"
    primes = (13, 17, 19, 23)
    kinds = ("S", "D", "T")  # matrices that are verified
    malformed = ("header", "cell", "rows", "phase")

    def setup(self, run: Runner) -> None:
        self.out_bytes = {}  # (kind, p) -> the file a command must write
        self.verify_in = {}  # (kind, p, corrupted) -> (input, expected verdict)
        for p in self.primes:
            s = self.construct(run, p)
            v = PHASES[[self.rng.randrange(4) for _ in range(s.shape[0])]]
            self.write(f"V{p}.phv", dumps_phases(v))
            # D and T are Hadamard because S is: doubling and a diagonal
            # unit similarity both preserve M M* = n I.
            for kind, m in (("S", s), ("D", double(s)), ("T", twist(s, v))):
                self.out_bytes[kind, p] = dumps(m)
                bad = corrupt(m, self.rng)
                self.verify_in[kind, p, False] = (
                    self.write(f"{kind}{p}.qhm", self.out_bytes[kind, p]), verdict(m, True))
                self.verify_in[kind, p, True] = (
                    self.write(f"{kind}{p}x.qhm", dumps(bad)), verdict(bad, False))
            self.out_bytes["C", p] = dumps(core(s))
            self.make_malformed(p, s.shape[0])

    def make_malformed(self, p: int, n: int) -> None:
        lines = self.out_bytes["S", p].split(b"\n")
        header = self.rng.choice([b"QHM x", b"XHM %d" % n, b"QHM %d" % (n + 1)])
        self.write(f"M{p}header.qhm", b"\n".join([header] + lines[1:]))
        row, col = self.rng.randrange(1, n + 1), self.rng.randrange(n)
        cell = bytearray(lines[row])
        cell[col] = ord(self.rng.choice("2xk*"))
        self.write(f"M{p}cell.qhm", b"\n".join(lines[:row] + [bytes(cell)] + lines[row + 1:]))
        drop = self.rng.randrange(1, n + 1)
        self.write(f"M{p}rows.qhm", b"\n".join(lines[:drop] + lines[drop + 1:]))
        phases = self.path(f"V{p}.phv").read_bytes().split(b"\n")
        phases[self.rng.randrange(n)] = self.rng.choice([b"0", b"x", b"k"])
        self.write(f"M{p}phase.phv", b"\n".join(phases))

    def chain(self, p: int, bad: str) -> list[Job]:
        def verify(kind: str, extra: list[str]) -> Job:
            path, want = self.verify_in[kind, p, kind == bad]
            rc = 0
            if extra and not (want["skew"] and want["regular"] == [1, -p]):
                rc = 1
            return Job("verify", ["verify", str(path), "--json", *extra], rc=rc,
                       fields=want)

        def write(command: str, kind: str, *args: str) -> Job:
            out = self.path(f"out_{kind}{p}.qhm")
            return Job(command, [command, *args, "--out", str(out)],
                       out=out, out_bytes=self.out_bytes[kind, p])

        s = str(self.path(f"S{p}.qhm"))
        return [
            write("construct", "S", "--p", str(p)),
            verify("S", ["--expect-regular", f"1,-{p}", "--expect-skew"]),
            write("double", "D", s),
            verify("D", []),
            write("core", "C", s),
            write("twist", "T", s, "--v", str(self.path(f"V{p}.phv"))),
            verify("T", []),
        ]

    def round(self, r: int) -> list[Job]:
        rng = self.round_rng(r)
        chains = [self.chain(p, bad) for p in self.primes for bad in self.kinds]
        for kind in self.malformed:
            p = rng.choice(self.primes)
            if kind == "phase":
                argv = ["twist", str(self.path(f"S{p}.qhm")),
                        "--v", str(self.path(f"M{p}phase.phv")),
                        "--out", str(self.path("out_M.qhm"))]
            else:
                argv = ["verify", str(self.path(f"M{p}{kind}.qhm")), "--json"]
            chains.append([Job("malformed", argv, rc=2)])
        return interleave(chains, rng)


class Real(Workload):
    """The int64 path: excess pipeline, realify and verify of real files.

    Each prime's file is verified clean and with two different corrupted
    cells.  ``excess --p 17`` (1.5 s, most of it an int64 Gram of order
    1160) is left out: with it a 30 s run held too few rounds for a
    steady 90th percentile.  With these 14 commands a round's median
    falls inside the cluster of p = 13 verifies and its 90th percentile
    inside the p = 17 verifies, not in a gap between two kinds of
    command, where the statistic would jump from run to run.
    """

    name = "real"
    primes = (11, 13, 17)
    excess_primes = (11, 13)
    variants = ("", "x", "y")  # file suffixes: clean, two corrupted copies

    def setup(self, run: Runner) -> None:
        self.out_bytes = {}  # p -> the file realify must write
        self.verify_in = {}  # (p, variant) -> (input, expected verdict)
        for p in self.primes:
            w = realify(self.construct(run, p))
            n = w.shape[0]
            hadamard = np.array_equal(w.real @ w.real.T, n * np.eye(n))
            self.out_bytes[p] = dumps(w, real=True)
            self.verify_in[p, ""] = (self.write(f"R{p}.rhm", self.out_bytes[p]),
                                     verdict(w, hadamard, real=True))
            for variant in self.variants[1:]:
                bad = corrupt(w, self.rng, real=True)
                self.verify_in[p, variant] = (
                    self.write(f"R{p}{variant}.rhm", dumps(bad, real=True)),
                    verdict(bad, False, real=True))

    def round(self, r: int) -> list[Job]:
        chains = [[Job("excess", ["excess", "--p", str(p), "--json"], fields={
            "p": p, "order": 4 + 4 * p * p, "w1.excess_after": 8 * p * (1 + p * p)})]
            for p in self.excess_primes]
        for p in self.primes:
            out = self.path(f"out_R{p}.rhm")
            chain = [Job("realify", ["realify", str(self.path(f"S{p}.qhm")),
                                     "--out", str(out)],
                         out=out, out_bytes=self.out_bytes[p])]
            for variant in self.variants:
                path, want = self.verify_in[p, variant]
                chain.append(Job("verify", ["verify", str(path), "--json"], fields=want))
            chains.append(chain)
        return interleave(chains, self.round_rng(r))


def cod_eval_check(p: int, k: int) -> Callable[[bytes], str | None]:
    """The unit evaluation is a quaternary Hadamard matrix of order
    (1+p^2) p^(2k) whose rows all sum to level k+1 of the schedule."""
    level = k + 1
    want = ([p**level, -(p ** (level - 1))] if level % 2 == 0
            else [p ** (level - 1), -(p**level)])

    def check(data: bytes) -> str | None:
        x = loads(data)
        if x.shape[0] != (1 + p * p) * p ** (2 * k):
            return f"order {x.shape[0]}"
        if common_row_sum(x) != want:
            return f"row sums are not {want}"
        if not is_hadamard(x):
            return "evaluation is not Hadamard"
        return None

    return check


class Cod(Workload):
    """The orthogonal-design recursion: summary and unit evaluation.

    The (5,1) summary runs twice a round, so that the median of the seven
    commands falls inside that cluster and not in the gap between it and
    the (3,2) summary.
    """

    name = "cod"
    params = ((3, 1), (5, 1), (3, 2))
    summaries = {(3, 1): 1, (5, 1): 2, (3, 2): 1}

    def setup(self, run: Runner) -> None:
        pass

    def round(self, r: int) -> list[Job]:
        chains = []
        for p, k in self.params:
            base = ["cod", "--p", str(p), "--k", str(k)]
            # The plain-transpose identity X X^T = (s1 a^2 + s2 b^2) I fails
            # for these designs: Q is skew-Hermitian with imaginary cells, so
            # Q^T = -conj(Q) != -Q.
            chains += [[Job("cod", base, fields={
                "order": (1 + p * p) * p ** (2 * k),
                "type": [p ** (2 * k), p ** (2 * k + 2)],
                "gram_conjugate": True, "gram_transpose": False})]
            ] * self.summaries[p, k]
            out = self.path(f"out_E{p}_{k}.qhm")
            chains.append([Job("cod_eval", base + ["--eval", "1,1", "--out", str(out)],
                               out=out, out_check=cod_eval_check(p, k))])
        return interleave(chains, self.round_rng(r))


WORKLOADS = {w.name: w for w in (Quaternary, Real, Cod)}
