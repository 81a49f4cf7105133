"""Command-line driver.

Exit codes: 0 success, 1 verification failure, 2 parse/usage error,
3 memory budget exceeded.  Commands let library exceptions through, and
``main`` maps each to its code and one ``error:`` line, subclasses first:
``matio.ParseError`` 2 (as ``parse error: ...``), ``BudgetError`` 3,
``MatrixError`` 1, ``FieldError`` and ``OSError`` 2, ``CliError`` its own
code.  Any other exception is a fault and propagates.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import builder, cod, matio, verify
from .excess import run_pipeline
from .field import BudgetError, FieldError, make_field
from .qmatrix import MatrixError, QMatrix, diag_similarity, realify

EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read(path: str) -> bytes:
    """The file's bytes, as ``matio`` parses them."""
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str | None, data: bytes) -> None:
    if path is None or path == "-":
        out = sys.stdout
        if hasattr(out, "buffer"):
            out.flush()  # what the text layer holds goes first
            out.buffer.write(data)
        else:  # an in-process caller's StringIO
            out.write(data.decode("ascii"))
        return
    with open(path, "wb") as fh:
        fh.write(data)


def _load_qmatrix(path: str) -> QMatrix:
    m = matio.parse(_read(path))
    if m.im is None:
        raise CliError("expected a QHM file", EXIT_PARSE)
    return m


def cmd_construct(args) -> int:
    ctx = make_field(args.p)
    s = builder.skew_regular_qhm(ctx)
    report = verify.full_report(s)
    if not (report.hadamard and report.skew
            and report.regular == complex(1, -ctx.p)):
        raise CliError("self-verification failed", EXIT_VERIFY)
    _write(args.out, matio.serialize(s))
    return 0


def cmd_verify(args) -> int:
    m = matio.parse(_read(args.file))
    # A malformed value is refused before the report, after file errors.
    regular = None
    if args.expect_regular is not None:
        try:
            re, im = (int(v) for v in args.expect_regular.split(","))
        except ValueError:
            raise CliError("--expect-regular wants RE,IM", EXIT_PARSE) from None
        regular = complex(re, im)
    report = verify.full_report(m)
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        for key, value in report.to_json().items():
            print(f"{key}: {value}")
    if args.expect_skew and not report.skew:
        print("expectation failed: not skew-type", file=sys.stderr)
        return EXIT_VERIFY
    if regular is not None and report.regular != regular:
        print(f"expectation failed: row sums are not {re}{im:+}i", file=sys.stderr)
        return EXIT_VERIFY
    return 0


def cmd_double(args) -> int:
    _write(args.out, matio.serialize(builder.double(_load_qmatrix(args.file))))
    return 0


def cmd_core(args) -> int:
    _write(args.out, matio.serialize(builder.skew_core(_load_qmatrix(args.file))))
    return 0


def _eval_point(raw: str) -> tuple[int, int]:
    try:
        a, b = (int(v) for v in raw.split(","))
    except ValueError:
        raise CliError("--eval wants A,B", EXIT_PARSE) from None
    if not {a, b} <= {0, 1}:
        raise CliError("only --eval values in {0,1} are serializable", EXIT_PARSE)
    return a, b


def cmd_cod(args) -> int:
    ctx = make_field(args.p)
    # The summary certifies the design from S's verdict alone; only
    # --eval materialises it, once k, the budget and the point are checked.
    if args.eval is None:
        print(json.dumps(cod.factored_summary(ctx, args.k)))
        return 0
    cod._checked_order(ctx, args.k)
    a, b = _eval_point(args.eval)
    _write(args.out, cod.cod_recurse(ctx, args.k).text(a, b))
    return 0


def _fields(report) -> dict:
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}


def cmd_excess(args) -> int:
    ctx = make_field(args.p)
    try:
        report = run_pipeline(ctx)
    except MatrixError as exc:
        raise CliError("excess pipeline self-check failed", EXIT_VERIFY) from exc
    # Shallow, in field order: ``dataclasses.asdict`` would deep-copy
    # every int of the two row and column lists.
    payload = _fields(report)
    payload["w1"] = _fields(report.w1)
    if not args.json:
        payload.pop("w2_col_sums")
    print(json.dumps(payload))
    expected = 8 * ctx.p * (1 + ctx.q)
    if report.w1.excess_after != expected:
        raise CliError("excess pipeline self-check failed", EXIT_VERIFY)
    return 0


def cmd_realify(args) -> int:
    _write(args.out, matio.serialize(realify(_load_qmatrix(args.file))))
    return 0


def cmd_twist(args) -> int:
    m = _load_qmatrix(args.file)
    v = matio.parse_phase_vector(_read(args.v))
    try:
        twisted = diag_similarity(m, v)
    except MatrixError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    del m
    _write(args.out, matio.serialize(twisted))
    return 0


FILE = ("file", {})
OUT = ("--out", {})
P = ("--p", {"type": int, "required": True})

# (name, handler, help, arguments), in --help order.
COMMANDS = (
    ("construct", cmd_construct, "build the order 1+p^2 matrix", (P, OUT)),
    ("verify", cmd_verify, "report properties of a matrix file", (
        FILE,
        ("--expect-regular", {"metavar": "RE,IM"}),
        ("--expect-skew", {"action": "store_true"}),
        ("--json", {"action": "store_true"}),
    )),
    ("double", cmd_double, "order-doubling block construction", (FILE, OUT)),
    ("core", cmd_core, "extract the skew-core", (FILE, OUT)),
    ("cod", cmd_cod, "recursive orthogonal design", (
        P,
        ("--k", {"type": int, "required": True}),
        ("--eval", {"metavar": "A,B"}),
        OUT,
    )),
    ("excess", cmd_excess, "maximum-excess pipeline",
     (P, ("--json", {"action": "store_true"}))),
    ("realify", cmd_realify, "quaternary to real conversion", (FILE, OUT)),
    ("twist", cmd_twist, "diagonal phase similarity",
     (FILE, ("--v", {"required": True}), OUT)),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once a process: ``parse_args`` leaves it as it
    is, and help and usage are formatted when printed."""
    parser = argparse.ArgumentParser(
        prog="qhadamard",
        description="Construct and certify quaternary Hadamard matrices "
        "of order 1 + p^2 and their derived families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, arguments in COMMANDS:
        command = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            command.add_argument(flag, **options)
        command.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except matio.ParseError as exc:
        message, code = f"parse error: {exc}", EXIT_PARSE
    except BudgetError as exc:
        message, code = exc, EXIT_BUDGET
    except MatrixError as exc:
        message, code = exc, EXIT_VERIFY
    except (FieldError, OSError) as exc:
        message, code = exc, EXIT_PARSE
    except CliError as exc:
        message, code = exc, exc.code
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
