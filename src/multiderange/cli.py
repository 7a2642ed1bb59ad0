"""Command-line interface.

Commands: wder, count, seq, guess, verify, selftest.  Every command emits
an envelope {command, inputs, result, timing_ms}; --format machine prints
it as JSON (big integers as decimal strings throughout), --format text
prints a human-readable rendering.  --out additionally writes the primary
result artifact (polynomial / sequence / operator record) as JSON to a
file, which is what the guess -> verify pipeline consumes.  The file is
written once the command has succeeded, in full, and only then is the
envelope printed; both are laid out by recurrence.record_chunks.  A command
that fails, or a guess that finds nothing, leaves an existing file as it
was, and a file that cannot be opened exits 2 with nothing printed.

Exit codes: 0 success, 1 verification or guess failure, 2 usage, parse or
schema error, or an --out file that cannot be opened.  A write to the --out
file that fails (a full disk, say) also exits 2, with the error on stderr,
nothing printed and the file partly written; so does a failed write to
stdout, which may then be partly written after a complete --out file.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from typing import Callable

from . import selftest as selftest_mod
from .enumerator import (
    check_ground_set,
    fk_sequence_direct,
    identified_count,
    weighted_derangement_poly,
)
from .guesser import GuessSpec, InsufficientTerms, NotFound, guess_operator
from .oracle import DEFAULT_CAP
from .polys import PolySequence, poly_to_record
from .recurrence import (
    RecurrenceOperator,
    UnsupportedK,
    builtin_operator,
    extend_sequence,
    first_failure,
    load_operator,
    load_sequence,
    operator_seed,
    operator_to_record,
    record_chunks,
    sequence_to_record,
    windows,
    write_record,
)


_SHAPE_PART = re.compile(r"(\d+)(?:\^(\d+))?")


def parse_shape(text: str) -> tuple[int, ...]:
    """Comma list of block sizes with power shorthand: "2,3^2,1" or "4^13"."""
    out: list[int] = []
    total = blocks = 0
    for part in text.split(","):
        part = part.strip()
        m = _SHAPE_PART.fullmatch(part)
        if not m:
            raise ValueError(f"bad shape component {part!r}")
        k = int(m.group(1))
        reps = int(m.group(2)) if m.group(2) else 1
        total += k * reps
        blocks += reps
        check_ground_set(total, blocks)
        out.extend([k] * reps)
    return tuple(out)


# What a command handler returns: inputs, result, text and exit code.  The
# text lines come from a zero-argument callable, because machine output never
# prints them, and for a long sequence rendering them is a large share of
# the command.
_Reply = tuple[dict, object, Callable[[], list[str]], int]


def _print_envelope(args, inputs: dict, result, timing_ms: float,
                    text: Callable[[], list[str]]) -> None:
    """Print the envelope in the chosen format.

    Machine output is json.dumps(envelope, indent=2), written piece by
    piece: the result comes from record_chunks(result, "  "), so that a long
    sequence is never held in memory as one string.
    """
    if args.format == "machine":
        head = json.dumps({"command": args.command, "inputs": inputs}, indent=2)
        sys.stdout.write(head[:-2] + ',\n  "result": ')
        sys.stdout.writelines(record_chunks(result, "  "))
        sys.stdout.write(f',\n  "timing_ms": {json.dumps(timing_ms)}\n}}\n')
    else:
        for line in text():
            print(line)
        print(f"time: {timing_ms:.3f} ms")


def _shape_value(shape: tuple[int, ...], identified: bool, alpha: int | None) -> int:
    """The number wder and count print: the identified count, or the value at alpha."""
    if identified:
        return identified_count(shape)
    return weighted_derangement_poly(shape)(alpha)


def _cmd_wder(args) -> _Reply:
    shape = parse_shape(args.shape)
    inputs = {"shape": list(shape), "alpha": args.alpha, "identified": args.identified}
    if args.identified and args.alpha not in (None, 1):
        raise ValueError("--identified requires evaluation at alpha = 1")
    if args.identified or args.alpha is not None:
        value = _shape_value(shape, args.identified, args.alpha)
        label = "identified count =" if args.identified else f"value at a={args.alpha}:"
        return inputs, str(value), lambda: [f"{label} {value}"], 0
    poly = weighted_derangement_poly(shape)
    return inputs, poly_to_record(poly), lambda: [f"A(shape) = {poly}"], 0


def _cmd_count(args) -> _Reply:
    shape = parse_shape(args.shape)
    inputs = {"shape": list(shape), "identified": args.identified}
    value = _shape_value(shape, args.identified, 1)
    return inputs, str(value), lambda: [f"count = {value}"], 0


def _seq_engine(args) -> tuple[str, RecurrenceOperator | None]:
    """The engine seq reports, and the operator it extends with (None: direct)."""
    if args.operator:
        if args.engine == "direct":
            raise ValueError("--engine direct cannot be combined with --operator")
        return "operator-file", load_operator(args.operator)
    if args.engine == "direct":
        return "direct", None
    try:
        return "recurrence", builtin_operator(args.k)
    except UnsupportedK:
        if args.engine == "auto":
            return "direct", None
        raise UnsupportedK(
            f"k={args.k} has no built-in operator; supply --operator FILE"
        ) from None


def _seq_values(k: int, last: int, op: RecurrenceOperator | None) -> PolySequence:
    """F_k(1..last), directly (op None) or extended from the operator's seed."""
    seq = (fk_sequence_direct(k, last) if op is None
           else extend_sequence(op, operator_seed(k, op, last), last))
    return PolySequence(start=1, values=seq.values[1:], k=k)


def _cmd_seq(args) -> _Reply:
    if args.k < 1 or args.count < 1:
        raise ValueError("k and COUNT must be positive")
    engine, op = _seq_engine(args)
    seq = _seq_values(args.k, args.count, op)
    inputs = {"k": args.k, "count": args.count, "engine": engine, "alpha": args.alpha}
    if args.alpha is not None:
        values = [str(v(args.alpha)) for v in seq.values]
        result: object = {"start": 1, "values": values}
    else:
        values = seq.values
        # the text rendering converts the values itself; only JSON needs the
        # record, so a text-format seq without --out returns none
        result = sequence_to_record(seq) if args.format == "machine" or args.out else None
    return inputs, result, lambda: [
        f"F_{args.k}({n}) = {v}" for n, v in enumerate(values, start=1)
    ], 0


def _sequence_input(args) -> tuple[PolySequence, object]:
    """The sequence that guess and verify read, --file or -k with --terms,
    and the source their inputs echo."""
    if args.file:
        if args.k is not None or args.terms is not None:
            raise ValueError("--file cannot be combined with -k or --terms")
        return load_sequence(args.file), args.file
    if args.k is None or args.terms is None:
        raise ValueError(f"{args.command} needs --file or both -k and --terms")
    if args.terms < 1:
        raise ValueError("--terms must be positive")
    return fk_sequence_direct(args.k, args.terms - 1), {"k": args.k, "terms": args.terms}


def _cmd_guess(args) -> _Reply:
    seq, source = _sequence_input(args)
    spec = GuessSpec(args.max_order, args.max_deg_n, args.max_deg_a, args.holdout)
    inputs = {
        "source": source,
        "max_order": spec.max_order,
        "max_deg_n": spec.max_deg_n,
        "max_deg_a": spec.max_deg_a,
        "holdout": spec.holdout,
    }
    try:
        res = guess_operator(seq, spec)
    except (NotFound, InsufficientTerms) as exc:
        reason = str(exc)
        result = {"found": False, "reason": reason}
        return inputs, result, lambda: [f"no operator found: {reason}"], 1
    result = {
        "found": True,
        "operator": operator_to_record(res.operator),
        "candidate": list(res.candidate),
        "kernel_dim": res.kernel_dim,
        "equations": res.equations,
        "unknowns": res.unknowns,
    }

    def text():
        lines = [f"operator (order {res.operator.order}): {res.operator}"]
        if res.kernel_dim > 1:
            lines.append(f"warning: kernel dimension {res.kernel_dim}, canonical pick")
        return lines

    return inputs, result, text, 0


def _cmd_verify(args) -> _Reply:
    op = load_operator(args.operator)
    seq, source = _sequence_input(args)
    inputs = {"operator": args.operator, "source": source}
    count = len(windows(op, seq))
    fail = first_failure(op, seq)
    result = {"verified": fail is None, "first_failure": fail, "windows": count}
    if fail is None:
        return inputs, result, lambda: [f"verified on {count} windows"], 0
    return inputs, result, lambda: [f"FAILED at n={fail}"], 1


def _cmd_selftest(args) -> _Reply:
    if args.cap < 0:
        raise ValueError("--cap must be nonnegative")
    results = selftest_mod.run_all(cap=args.cap)
    rows = [
        {"name": r.name, "passed": r.passed, "detail": r.detail,
         "ms": round(r.ms, 3)}
        for r in results
    ]
    width = max(len(r.name) for r in results)
    lines = [
        f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  "
        f"{r.ms:9.1f} ms  {r.detail}"
        for r in results
    ]
    ok = all(r.passed for r in results)
    lines.append("all suites passed" if ok else "SELFTEST FAILED")
    return {"cap": args.cap}, rows, lambda: lines, 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiderange",
        description="Exact cycle-count weight enumerators of multiset derangements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "machine"), default="text")
        p.add_argument("--out", metavar="FILE", help="also write the result artifact as JSON")

    p = sub.add_parser("wder", help="weight enumerator of a shape")
    p.add_argument("shape", help="comma list of block sizes, ^ for repetition (e.g. 4^13)")
    p.add_argument("--alpha", type=int, help="evaluate at an integer instead of printing the polynomial")
    p.add_argument("--identified", action="store_true",
                   help="divide the a=1 count by the product of block factorials")
    common(p)
    p.set_defaults(handler=_cmd_wder)

    p = sub.add_parser("count", help="number of derangements of a shape (a=1)")
    p.add_argument("shape")
    p.add_argument("--identified", action="store_true")
    common(p)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("seq", help="the equal-blocks sequence F_k(1..COUNT)")
    p.add_argument("k", type=int)
    p.add_argument("count", type=int, metavar="COUNT")
    p.add_argument("--engine", choices=("auto", "recurrence", "direct"), default="auto")
    p.add_argument("--operator", metavar="FILE", help="extend with an operator file")
    p.add_argument("--alpha", type=int)
    common(p)
    p.set_defaults(handler=_cmd_seq)

    p = sub.add_parser("guess", help="discover an annihilating operator from terms")
    p.add_argument("--file", metavar="SEQFILE", help="poly-sequence JSON input")
    p.add_argument("-k", type=int, help="equal-blocks k (with --terms)")
    p.add_argument("--terms", type=int, help="number of terms to generate")
    p.add_argument("--max-order", type=int, default=3)
    p.add_argument("--max-deg-n", type=int, default=3)
    p.add_argument("--max-deg-a", type=int, default=3)
    p.add_argument("--holdout", type=int, default=GuessSpec.holdout)
    common(p)
    p.set_defaults(handler=_cmd_guess)

    p = sub.add_parser("verify", help="check that an operator annihilates a sequence")
    p.add_argument("--operator", metavar="FILE", required=True)
    p.add_argument("--file", metavar="SEQFILE")
    p.add_argument("-k", type=int)
    p.add_argument("--terms", type=int)
    common(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("selftest", help="run the built-in consistency suites")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="brute-force oracle bound")
    common(p)
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    # Exact values and the records holding them routinely pass Python's
    # default int/str conversion limit (4300 digits on 3.11+).
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        inputs, result, text, exit_code = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # input too large for this machine; the handler's data is freed by now
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # an operator file that is wrong for the requested sequence
        print(f"error: {exc}", file=sys.stderr)
        return 1
    timing_ms = round((time.perf_counter() - t0) * 1000.0, 3)
    # a failed guess has no operator to write
    artifact = result.get("operator") if args.command == "guess" else result
    try:
        if args.out is not None and artifact is not None:
            # written in full before anything is printed
            write_record(args.out, artifact)
        _print_envelope(args, inputs, result, timing_ms, text)
        sys.stdout.flush()
    except OSError as exc:
        # --out cannot be opened or written (nothing printed), or stdout failed
        print(f"error: {exc}", file=sys.stderr)
        _drop_unwritable_stdout()
        return 2
    return exit_code


def _drop_unwritable_stdout() -> None:
    """Point stdout at os.devnull if it still cannot be flushed, so that the
    interpreter's own flush at exit does not fail a second time."""
    try:
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
