"""Command-line surface with stable JSON I/O.

Exit codes: 0 success/verified, 1 checked failure (refuted certificate,
exhausted search, failed replay or freeness), 2 input error.  Diagnostics go
to stderr as one-line JSON objects ``{code, message, location}``; all
randomness flows from ``--seed`` (default 0) so outputs are byte-identical
for identical inputs.  The parser is built once per process and shared by
every ``main`` call; parsing never changes it.
"""

import argparse
import functools
import json
import os
import stat
import sys

from .complexes import is_pseudomanifold
from .errors import FlipcertError, InputError
from .moves import enumerate_moves
from .polytopes import corpus, dual_complex
from .quasitoric import check_freeness
from .reduction import ReductionOptions, SearchExhausted, reduce_to_simplex, replay
from . import serialize
from .serialize import (
    complex_digest,
    complex_from_doc,
    complex_to_doc,
    lambda_from_doc,
    move_sequence_from_doc,
    move_to_doc,
    polytope_from_doc,
    polytope_to_doc,
    reduction_result_to_doc,
)
from .surgery import (
    build_ledger,
    certificate_from_doc,
    certificate_to_doc,
    psc_statement,
    report_to_doc,
    statement_to_doc,
    verify_certificate,
)


class StartHashMismatch(FlipcertError):
    pass


def _read_json(path):
    # ValueError: bad JSON, bad UTF-8 or huge ints; RecursionError: deep nesting
    try:
        if path == "-":  # bytes when stdin has them, else its text
            stdin = getattr(sys.stdin, "buffer", None)
            return json.loads(sys.stdin.read() if stdin is None
                              else stdin.read().decode("utf-8"))
        with open(path, "rb") as handle:
            return json.loads(handle.read().decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise serialize.MalformedDocument(f"{path}: {exc}")


def _load(path, decode, *context):
    """``decode`` the JSON file at ``path``; its input errors name ``path``."""
    try:
        return decode(_read_json(path), *context)
    except InputError as exc:
        exc.location = path
        raise


def _write(path, doc):
    text = serialize.dump(doc)
    if path == "-":
        sys.stdout.write(text)
        return
    # without O_TRUNC, which costs more than the write; binary fd on Windows
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    fd = os.open(path, flags, 0o666)
    with open(fd, "w", encoding="utf-8") as handle:
        handle.write(text)
        info = os.fstat(fd)  # bytes >= len(text): only a longer old file is cut
        if stat.S_ISREG(info.st_mode) and info.st_size > len(text):
            handle.truncate()


def _diagnostic(code, message, location=None):
    sys.stderr.write(json.dumps(
        {"code": code, "message": message, "location": location},
        sort_keys=True,
    ) + "\n")


def _options_from_args(args) -> ReductionOptions:
    return ReductionOptions(mode=args.mode, max_steps=args.max_steps,
                            rng_seed=args.seed, restarts=args.restarts)


def _cmd_build_dual(args) -> int:
    polytope = _load(args.input, polytope_from_doc)
    _write(args.output, complex_to_doc(dual_complex(polytope).complex))
    return 0


def _warn_if_not_pseudomanifold(k, location):
    # moves stay mechanically valid on such complexes, but flag them
    if k.dim >= 1 and not is_pseudomanifold(k):
        _diagnostic(
            "NotPseudomanifold",
            "input complex is not a pseudomanifold; proceeding anyway",
            location,
        )


def _cmd_moves(args) -> int:
    k = _load(args.input, complex_from_doc)
    _warn_if_not_pseudomanifold(k, args.input)
    if args.types:
        try:
            allowed = {int(t) for t in args.types.split(",")}
        except ValueError:
            raise InputError(
                f"--types {args.types!r} is not a comma-separated list of integers"
            )
    else:
        allowed = set(range(k.dim + 1))
    found = enumerate_moves(k, allowed)
    _write(args.output, {"moves": [move_to_doc(m) for m in found]})
    return 0


def _cmd_apply(args) -> int:
    k = _load(args.input, complex_from_doc)
    _warn_if_not_pseudomanifold(k, args.input)
    start_hash, moves = _load(args.moves, move_sequence_from_doc)
    if start_hash is not None and start_hash != complex_digest(k):
        raise StartHashMismatch(
            f"sequence was recorded against {start_hash}, input hashes to "
            f"{complex_digest(k)}"
        )
    final = replay(k, moves)
    _write(args.output, complex_to_doc(final))
    return 0


def _cmd_reduce(args) -> int:
    k = _load(args.input, complex_from_doc)
    result = reduce_to_simplex(k, _options_from_args(args))
    _write(args.output, reduction_result_to_doc(k, result))
    if not result.succeeded:
        raise SearchExhausted(result)
    return 0


def _cmd_certify(args) -> int:
    polytope = _load(args.input, polytope_from_doc)
    pair = None
    if args.lambda_path is not None:  # fail fast, before any search effort
        pair = _load(args.lambda_path, lambda_from_doc, polytope)
    dual = dual_complex(polytope)
    result = reduce_to_simplex(dual.complex, _options_from_args(args))
    if not result.succeeded:
        raise SearchExhausted(result)
    cert = build_ledger(dual, result)
    _write(args.output, certificate_to_doc(cert))
    statement = psc_statement(cert, pair)
    if args.statement is not None:
        _write(args.statement, statement_to_doc(statement))
    return 0


def _cmd_verify(args) -> int:
    cert = _load(args.input, certificate_from_doc)
    report = verify_certificate(cert)
    _write(args.output, report_to_doc(report))
    if not report.established:
        first = report.failures()[0]
        _diagnostic("VerificationRefuted", first.detail, first.name)
        return 1
    return 0


def _cmd_check_freeness(args) -> int:
    polytope = _load(args.input, polytope_from_doc)
    pair = _load(args.lambda_path, lambda_from_doc, polytope)
    report = check_freeness(pair)
    _write(args.output, {
        "ok": report.ok,
        "failing_vertices": [
            {"vertex": v, "determinant": d} for v, d in report.failing_vertices
        ],
    })
    return 0 if report.ok else 1


def _cmd_examples(args) -> int:
    _write(args.output, {
        name: polytope_to_doc(p) for name, p in corpus().items()
    })
    return 0


def _add_io(parser, with_input=True):
    if with_input:
        parser.add_argument(
            "input", nargs="?", default="-",
            help="input JSON path, or - for stdin (default)",
        )
    parser.add_argument(
        "--output", default="-",
        help="output JSON path, or - for stdout (default)",
    )


def _add_search_flags(parser):
    default = ReductionOptions()
    parser.add_argument("--mode", choices=("strict", "free"), default=default.mode)
    parser.add_argument("--seed", type=int, default=default.rng_seed)
    parser.add_argument("--max-steps", type=int, default=default.max_steps)
    parser.add_argument("--restarts", type=int, default=default.restarts)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flipcert",
        description=(
            "Reduce polytope dual complexes by bistellar moves and emit or "
            "verify replayable equivariant-surgery certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-dual", help="polytope JSON -> dual complex JSON")
    _add_io(p)
    p.set_defaults(func=_cmd_build_dual)

    p = sub.add_parser("moves", help="list applicable bistellar moves")
    _add_io(p)
    p.add_argument("--types", default="", help="comma-separated move types")
    p.set_defaults(func=_cmd_moves)

    p = sub.add_parser("apply", help="replay a move sequence on a complex")
    _add_io(p)
    p.add_argument("--moves", required=True, help="move sequence JSON path")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("reduce", help="search for a reduction to a simplex boundary")
    _add_io(p)
    _add_search_flags(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("certify", help="polytope JSON -> surgery certificate")
    _add_io(p)
    _add_search_flags(p)
    p.add_argument("--lambda", dest="lambda_path", default=None,
                   help="characteristic matrix JSON path")
    p.add_argument("--statement", default=None,
                   help="also write the conclusion statement to this path")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="recheck an untrusted certificate")
    _add_io(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("check-freeness", help="vertex-minor determinant test")
    _add_io(p)
    p.add_argument("--lambda", dest="lambda_path", required=True,
                   help="characteristic matrix JSON path")
    p.set_defaults(func=_cmd_check_freeness)

    p = sub.add_parser("examples", help="emit the built-in polytope corpus")
    _add_io(p, with_input=False)
    p.set_defaults(func=_cmd_examples)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FlipcertError as exc:
        location = getattr(exc, "location", getattr(args, "input", None))
        _diagnostic(type(exc).__name__, str(exc), location)
        return 2 if isinstance(exc, InputError) else 1
    except OSError as exc:
        _diagnostic("IOError", str(exc), getattr(exc, "filename", None))
        return 2


if __name__ == "__main__":
    sys.exit(main())
