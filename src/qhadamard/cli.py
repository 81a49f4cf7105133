"""Command-line driver.

Exit codes: 0 success, 1 verification failure, 2 parse/usage error,
3 memory budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import builder, cod, matio, verify
from .excess import run_pipeline
from .field import BudgetError, FieldError, make_field
from .qmatrix import MatrixError, QMatrix, SignMatrix, diag_similarity, realify

EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    """The file's text; a non-ASCII byte is a ParseError."""
    if path == "-":
        return matio.decode(sys.stdin.buffer.read())
    try:
        with open(path, "rb") as fh:
            return matio.decode(fh.read())
    except OSError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc


def _load_matrix(path: str):
    try:
        return matio.parse(_read_text(path))
    except matio.ParseError as exc:
        raise CliError(f"parse error: {exc}", EXIT_PARSE) from exc


def _load_qmatrix(path: str) -> QMatrix:
    m = _load_matrix(path)
    if not isinstance(m, QMatrix):
        raise CliError("expected a QHM file", EXIT_PARSE)
    return m


def _field(p: int):
    try:
        return make_field(p)
    except BudgetError as exc:
        raise CliError(str(exc), EXIT_BUDGET) from exc
    except FieldError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc


def cmd_construct(args) -> int:
    ctx = _field(args.p)
    s = builder.skew_regular_qhm(ctx)
    report = verify.full_report(s)
    if not (report.hadamard and report.skew
            and report.regular == complex(1, -ctx.p)):
        raise CliError("self-verification failed", EXIT_VERIFY)
    _write_text(args.out, matio.serialize(s))
    return 0


def cmd_verify(args) -> int:
    m = _load_matrix(args.file)
    report = verify.full_report(m)
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        for key, value in report.to_json().items():
            print(f"{key}: {value}")
    if args.expect_skew and not report.skew:
        print("expectation failed: not skew-type", file=sys.stderr)
        return EXIT_VERIFY
    if args.expect_regular is not None:
        try:
            re, im = (int(v) for v in args.expect_regular.split(","))
        except ValueError:
            raise CliError("--expect-regular wants RE,IM", EXIT_PARSE) from None
        if report.regular != complex(re, im):
            print(f"expectation failed: row sums are not {re}{im:+}i",
                  file=sys.stderr)
            return EXIT_VERIFY
    return 0


def cmd_double(args) -> int:
    m = _load_qmatrix(args.file)
    try:
        _write_text(args.out, matio.serialize(builder.double(m)))
    except MatrixError as exc:
        raise CliError(str(exc), EXIT_VERIFY) from exc
    return 0


def cmd_core(args) -> int:
    m = _load_qmatrix(args.file)
    try:
        _write_text(args.out, matio.serialize(builder.skew_core(m)))
    except MatrixError as exc:
        raise CliError(str(exc), EXIT_VERIFY) from exc
    return 0


def cmd_cod(args) -> int:
    ctx = _field(args.p)
    try:
        design = cod.cod_recurse(ctx, args.k)
    except BudgetError as exc:
        raise CliError(str(exc), EXIT_BUDGET) from exc
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    s1, s2 = design.stype
    summary = {
        "order": design.n,
        "type": [s1, s2],
        "gram_conjugate": cod.certify_gram(design),
        "gram_transpose": cod.certify_gram(design, conjugate=False),
    }
    if args.eval is None:
        print(json.dumps(summary))
        return 0
    try:
        a, b = (int(v) for v in args.eval.split(","))
    except ValueError:
        raise CliError("--eval wants A,B", EXIT_PARSE) from None
    if not {a, b} <= {0, 1}:
        raise CliError("only --eval values in {0,1} are serializable", EXIT_PARSE)
    _write_text(args.out, matio.serialize(design.evaluate_qmatrix(a, b)))
    return 0


def cmd_excess(args) -> int:
    ctx = _field(args.p)
    report, w1 = run_pipeline(ctx)
    payload = report.to_json()
    if not args.json:
        payload.pop("w2_col_sums")
    print(json.dumps(payload))
    expected = 8 * ctx.p * (1 + ctx.q)
    if report.w1.excess_after != expected or not verify.check_real_hadamard(w1):
        raise CliError("excess pipeline self-check failed", EXIT_VERIFY)
    return 0


def cmd_realify(args) -> int:
    m = _load_qmatrix(args.file)
    _write_text(args.out, matio.serialize(realify(m)))
    return 0


def cmd_twist(args) -> int:
    m = _load_qmatrix(args.file)
    try:
        v = matio.parse_phase_vector(_read_text(args.v))
    except matio.ParseError as exc:
        raise CliError(f"parse error: {exc}", EXIT_PARSE) from exc
    try:
        twisted = diag_similarity(m, v)
    except MatrixError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    _write_text(args.out, matio.serialize(twisted))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhadamard",
        description="Construct and certify quaternary Hadamard matrices "
        "of order 1 + p^2 and their derived families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="build the order 1+p^2 matrix")
    p_construct.add_argument("--p", type=int, required=True)
    p_construct.add_argument("--out")
    p_construct.set_defaults(func=cmd_construct)

    p_verify = sub.add_parser("verify", help="report properties of a matrix file")
    p_verify.add_argument("file")
    p_verify.add_argument("--expect-regular", metavar="RE,IM")
    p_verify.add_argument("--expect-skew", action="store_true")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_double = sub.add_parser("double", help="order-doubling block construction")
    p_double.add_argument("file")
    p_double.add_argument("--out")
    p_double.set_defaults(func=cmd_double)

    p_core = sub.add_parser("core", help="extract the skew-core")
    p_core.add_argument("file")
    p_core.add_argument("--out")
    p_core.set_defaults(func=cmd_core)

    p_cod = sub.add_parser("cod", help="recursive orthogonal design")
    p_cod.add_argument("--p", type=int, required=True)
    p_cod.add_argument("--k", type=int, required=True)
    p_cod.add_argument("--eval", metavar="A,B")
    p_cod.add_argument("--out")
    p_cod.set_defaults(func=cmd_cod)

    p_excess = sub.add_parser("excess", help="maximum-excess pipeline")
    p_excess.add_argument("--p", type=int, required=True)
    p_excess.add_argument("--json", action="store_true")
    p_excess.set_defaults(func=cmd_excess)

    p_realify = sub.add_parser("realify", help="quaternary to real conversion")
    p_realify.add_argument("file")
    p_realify.add_argument("--out")
    p_realify.set_defaults(func=cmd_realify)

    p_twist = sub.add_parser("twist", help="diagonal phase similarity")
    p_twist.add_argument("file")
    p_twist.add_argument("--v", required=True)
    p_twist.add_argument("--out")
    p_twist.set_defaults(func=cmd_twist)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
