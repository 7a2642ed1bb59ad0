"""Linear shift-operator recurrences with (n, a)-polynomial coefficients.

An operator of order r is c_0(n,a) F(n) + ... + c_r(n,a) F(n+r), asserted to
vanish for every n >= valid_from.  Each c_j is stored as the operator
file stores it: a tuple of int triples (deg_n, deg_a, coefficient), sorted
by (deg_n, deg_a), with no zero coefficient.  The form is sparse on
purpose: a record may name one monomial of degree MAX_OPERATOR_DEGREE in
n, and a dense form would allocate every lower degree too.  Operators are
kept normalized: integer content 1 and a positive coefficient in the last
triple of c_r, the largest monomial in lexicographic order (n before a),
so equal operators compare structurally equal.  RecurrenceOperator owns
every rule on an operator, polys' index rule on valid_from included; the
record readers check only JSON shape and prefix the constructors' messages.

Every operator is a recurrence-operator/v1 record.  The built-in ones, for
block sizes 1 and 2, ship next to this module as operators/k1.json and
operators/k2.json, exactly as the guesser writes them, and extend the
equal-blocks sequences F_k far beyond what direct evaluation reaches
comfortably.  operator_seed is the one rule for how many direct values an
operator needs: F_k(0..max(0, valid_from) + order - 1), never past the
last index asked for.  It also holds every extension of F_k to the direct
engine's budget: k times the last index at most MAX_GROUND_SET.
extend_sequence checks a seed only when it has a step to take, so
fk_sequence_via_recurrence is that seed extended, for every last >= 0.
A step divides exactly; a remainder means a wrong operator or wrong seeds,
never legitimate fractional output, so it raises.
"""

from __future__ import annotations

import errno
import json
from dataclasses import dataclass
from functools import cache
from math import gcd
from pathlib import Path
from typing import Iterator, Sequence

from .enumerator import check_ground_set, fk_sequence_direct
from .polys import (
    AlphaPoly,
    InexactDivision,
    PolySequence,
    SchemaError,
    _check_index,
    _decimal_str,
    _parse_int,
    add_product,
    divide_exact,
    poly_from_record,
    poly_to_record,
    render_terms,
)

# c_j(n, a) as sorted (deg_n, deg_a, coefficient) triples
Coeff = tuple[tuple[int, int, int], ...]

OPERATOR_SCHEMA = "recurrence-operator/v1"
SEQUENCE_SCHEMA = "poly-sequence/v1"

# Largest deg_n or deg_a in an operator, checked by RecurrenceOperator: a
# step evaluates n^deg_n and allocates deg_a + 1 coefficients.  guess keeps
# u = (r+1)(dn+1)(da+1) unknowns only with at least u equations, 64 bits a
# slot within MAX_SYSTEM_BITS = 2*10^9: 64*u^2 <= 2*10^9, u <= 5590, dn, da
# <= 2794.
MAX_OPERATOR_DEGREE = 10_000


class UnsupportedK(ValueError):
    """No built-in operator for this block size; load one or guess one."""


class LeadingCoefficientZero(ArithmeticError):
    """The leading coefficient vanished at an index in the extension range."""


class WindowTooShort(ValueError):
    """Verification needs at least order+1 consecutive values."""


@dataclass(frozen=True, repr=False)
class RecurrenceOperator:
    """Normalized shift operator; coeffs[j] multiplies F(n+j)."""

    coeffs: tuple[Coeff, ...]
    valid_from: int = 0

    def __post_init__(self):
        """Check the triples and normalize them: zero terms dropped, content
        divided out, last triple of the top coefficient positive.  Each
        message names its place, as in coeffs[j][i]."""
        _check_index(self.valid_from, "valid_from")
        coeffs = [tuple(c) for c in self.coeffs]
        for j, c in enumerate(coeffs):
            for i, t in enumerate(c):
                where = f"coeffs[{j}][{i}]"
                if len(t) != 3:
                    raise ValueError(f"{where}: expected (deg_n, deg_a, coefficient)")
                p, q, x = t
                if type(p) is not int or type(q) is not int or p < 0 or q < 0:
                    # bools are refused too; ints print past the digit limit
                    bad = [_decimal_str(e) if type(e) is int else repr(e) for e in (p, q)]
                    error = ValueError if type(p) is type(q) is int else TypeError
                    raise error(f"{where}: bad exponents {', '.join(bad)}")
                if max(p, q) > MAX_OPERATOR_DEGREE:
                    raise ValueError(f"{where}: degree above {MAX_OPERATOR_DEGREE}")
                if type(x) is not int:
                    raise TypeError(f"{where}: coefficient must be an int")
                if i and (p, q) <= tuple(c[i - 1][:2]):
                    raise ValueError(f"{where}: monomials must be sorted by (deg_n, deg_a)")
        coeffs = [[t for t in c if t[2]] for c in coeffs]
        if len(coeffs) < 2:
            raise ValueError("coeffs: operator needs order at least 1")
        if not coeffs[-1]:
            raise ValueError("coeffs: leading coefficient is zero")
        g = gcd(*(x for c in coeffs for _, _, x in c))
        if coeffs[-1][-1][2] < 0:
            g = -g
        object.__setattr__(self, "coeffs", tuple(
            tuple((p, q, x // g) for p, q, x in c) for c in coeffs
        ))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __repr__(self) -> str:
        # the dataclass repr, also past Python's int/str digit limit
        def tup(parts: list[str]) -> str:
            return f"({', '.join(parts)}{',' * (len(parts) == 1)})"

        coeffs = tup([tup([f"({p}, {q}, {_decimal_str(x)})" for p, q, x in c])
                      for c in self.coeffs])
        return f"RecurrenceOperator(coeffs={coeffs}, valid_from={self.valid_from})"

    def __str__(self) -> str:
        parts = [f"({render_terms(c, ('n', 'a'))}) * F({f'n+{j}' if j else 'n'})"
                 for j, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) + " = 0"


def coeff_at(c: Coeff, n: int) -> list[int]:
    """c(n, a) at an integer n, as coefficients in a; trailing zeros possible."""
    out = [0] * (max((q for _, q, _ in c), default=-1) + 1)
    for p, q, x in c:
        out[q] += x * n**p
    return out


_OPERATORS = Path(__file__).with_name("operators")


@cache
def builtin_operator(k: int) -> RecurrenceOperator:
    """Shipped annihilating operator for the equal-blocks sequence F_k.

    Read once per process from operators/k{k}.json; a block size without
    such a file must get its operator from a file of its own or the guesser.
    Without the operators directory the install is broken, and that raises
    FileNotFoundError rather than UnsupportedK.
    """
    try:
        return load_operator(_OPERATORS / f"k{k}.json")
    except OSError as exc:
        # a k too long for a file name is just as unsupported
        if exc.errno not in (errno.ENOENT, errno.ENAMETOOLONG):
            raise
    if not _OPERATORS.is_dir():
        raise FileNotFoundError(
            errno.ENOENT, "operator directory missing", str(_OPERATORS)
        )
    raise UnsupportedK(f"no built-in operator for k={k}")


def extend_sequence(
    op: RecurrenceOperator, seed: PolySequence, target: int
) -> PolySequence:
    """Extend a seed through index ``target`` by solving for F(n+r).

    Each step divides by c_r(n, a) with a mandatory zero remainder.  A
    target equal to seed.last takes no step and asks nothing of the seed.
    Past it, the seed must supply at least order values, and the first
    step's window, n = seed.last + 1 - order, must be at least op.valid_from.
    target is an int, not a bool, of any size: a sequence stores only its start.
    """
    if type(target) is not int:  # bools are refused too
        raise TypeError("target: expected an integer")
    if target < seed.last:
        raise ValueError("target precedes the last seed index")
    if target > seed.last and len(seed) < op.order:
        raise ValueError(f"seed must supply at least {op.order} values")
    if target > seed.last and seed.last + 1 - op.order < op.valid_from:
        raise ValueError("seed ends before the operator is valid")
    values = list(seed.values)
    r = op.order
    # F(n+r) = -(sum_{j<r} c_j F(n+j)) / c_r = (sum_{j<r} c_j F(n+j)) / -c_r
    neg_lead = tuple((p, q, -x) for p, q, x in op.coeffs[r])
    while seed.start + len(values) - 1 < target:
        n = seed.start + len(values) - r
        lead_at_n = AlphaPoly._trusted(coeff_at(neg_lead, n))
        if not lead_at_n:
            raise LeadingCoefficientZero(f"leading coefficient vanishes at n={_decimal_str(n)}")
        partial = _apply(op.coeffs, n, values, len(values) - r, r)
        try:
            values.append(divide_exact(AlphaPoly._trusted(partial), lead_at_n))
        except InexactDivision as exc:
            raise InexactDivision(f"inexact step at n={_decimal_str(n)}: {exc}") from None
    return PolySequence(start=seed.start, values=tuple(values), k=seed.k)


def _apply(coeffs: Sequence[Coeff], n: int, values, base: int, terms: int) -> list[int]:
    """Coefficients in a of sum_{j < terms} c_j(n, a) * values[base + j], where
    c_j is coeffs[j], an operator's or any other list of triples.

    One int list accumulates every product, so no intermediate polynomial
    is built; trailing entries may be zero.
    """
    acc: list[int] = []
    for j in range(terms):
        v = values[base + j].coeffs
        if v:
            add_product(acc, coeff_at(coeffs[j], n), v)
    return acc


def windows(op: RecurrenceOperator, seq: PolySequence) -> range:
    """The n whose window F(n..n+order) lies in seq, from op.valid_from on;
    WindowTooShort when there is none."""
    found = range(max(seq.start, op.valid_from), seq.last - op.order + 1)
    if not found:
        raise WindowTooShort(f"need at least {op.order + 1} values at or after "
                             f"n={op.valid_from}")
    return found


def first_failure(op: RecurrenceOperator, seq: PolySequence) -> int | None:
    """Smallest applicable n where the operator fails to annihilate, if any."""
    for n in windows(op, seq):
        if any(_apply(op.coeffs, n, seq.values, n - seq.start, op.order + 1)):
            return n
    return None


def verify_operator(op: RecurrenceOperator, seq: PolySequence) -> bool:
    """True iff the operator annihilates the sequence on every window."""
    return first_failure(op, seq) is None


def operator_seed(k: int, op: RecurrenceOperator, last: int) -> PolySequence:
    """Directly computed F_k(0..m) from which op extends F_k through ``last``.

    m = min(max(0, op.valid_from) + op.order - 1, last): the terms before
    op.valid_from are direct values too, so the first step uses a window
    the operator is valid on, and a seed never runs past ``last``.  The
    extension through ``last`` is held to the budget of fk_sequence_direct:
    ValueError when k * last is past enumerator.MAX_GROUND_SET.
    """
    _check_index(last, "last")
    seed = fk_sequence_direct(k, min(max(0, op.valid_from) + op.order - 1, last))
    check_ground_set(k * last, last)  # k is an int once the seed is made
    return seed


def fk_sequence_via_recurrence(k: int, last: int,
                               op: RecurrenceOperator | None = None) -> PolySequence:
    """F_k(0..last): operator_seed, then extension."""
    if op is None:
        op = builtin_operator(k)
    return extend_sequence(op, operator_seed(k, op, last), last)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def operator_to_record(op: RecurrenceOperator) -> dict:
    """Documented operator schema; monomials are [deg_n, deg_a, "coeff"]."""
    return {
        "schema": OPERATOR_SCHEMA,
        "order": op.order,
        "valid_from": op.valid_from,
        "coeffs": [
            [[p, q, _decimal_str(x)] for p, q, x in c] for c in op.coeffs
        ],
    }


def operator_from_record(obj) -> RecurrenceOperator:
    if not isinstance(obj, dict):
        raise SchemaError("operator: expected an object")
    schema = obj.get("schema", OPERATOR_SCHEMA)
    if schema != OPERATOR_SCHEMA:
        raise SchemaError(f"operator.schema: expected {OPERATOR_SCHEMA!r}")
    order = obj.get("order")
    if type(order) is not int or order < 1:  # JSON true/false are bools, not ints
        raise SchemaError("operator.order: expected a positive integer")
    raw = obj.get("coeffs")
    if not isinstance(raw, list) or len(raw) != order + 1:
        raise SchemaError(
            f"operator.coeffs: expected a list of {_decimal_str(order + 1)} entries")
    coeffs = []
    for j, mono_list in enumerate(raw):
        where = f"operator.coeffs[{j}]"
        if not isinstance(mono_list, list):
            raise SchemaError(f"{where}: expected a list of monomials")
        terms: list[tuple[int, int, int]] = []
        for i, mono in enumerate(mono_list):
            if not (isinstance(mono, list) and len(mono) == 3):
                raise SchemaError(f"{where}[{i}]: expected [deg_n, deg_a, coeff]")
            p, q, c = mono
            c = _parse_int(c, f"{where}[{i}]")
            if c == 0:
                raise SchemaError(f"{where}[{i}]: zero coefficient stored")
            terms.append((p, q, c))
        coeffs.append(tuple(terms))
    try:  # valid_from, the exponents, their order and the leading coefficient
        return RecurrenceOperator(tuple(coeffs), valid_from=obj.get("valid_from", 0))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"operator.{exc}") from None


def save_operator(op: RecurrenceOperator, path: str | Path) -> None:
    write_record(path, operator_to_record(op))


def load_operator(path: str | Path) -> RecurrenceOperator:
    return operator_from_record(_read_json(path, "operator file"))


def _read_json(path: str | Path, what: str):
    try:
        # integer literals by the records' one str -> int rule, past the digit limit too
        return json.loads(Path(path).read_text(), parse_int=lambda s: _parse_int(s, what))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what}: invalid JSON at line {exc.lineno}") from None
    except RecursionError:
        raise SchemaError(f"{what}: JSON nested too deeply") from None


def write_record(path: str | Path, record) -> None:
    """The one artifact writer, for save_sequence, save_operator and the CLI's
    --out: record_chunks(record) and a newline, never one long string."""
    with open(path, "w") as f:
        f.writelines(record_chunks(record))
        f.write("\n")


class _SequenceRecord(dict):
    """What sequence_to_record returns: a sequence record whose coefficients
    are str(int) digit strings, which JSON writes without escaping."""


def record_chunks(record, indent: str = "") -> Iterator[str]:
    """json.dumps(record, indent=2) in chunks, with indent after every newline:
    "" is the artifact layout, "  " the result in the CLI's envelope.

    A record built by sequence_to_record comes one chunk per value, its
    digit strings joined directly: json's indenting encoder is pure Python,
    and on a multi-megabyte sequence it costs about half as much again as
    building the record.  Any other record is one json.dumps chunk.
    """
    nl = "\n" + indent
    if type(record) is not _SequenceRecord or not record["values"]:
        yield json.dumps(record, indent=2).replace("\n", nl)
        return
    head = {key: v for key, v in record.items() if key != "values"}
    yield json.dumps(head, indent=2)[:-2].replace("\n", nl) + f',{nl}  "values": ['
    coeff_sep = f'",{nl}        "'
    sep = nl
    for v in record["values"]:
        coeffs = v["coeffs"]
        body = f'[{nl}        "{coeff_sep.join(coeffs)}"{nl}      ]' if coeffs else "[]"
        yield f'{sep}    {{{nl}      "variable": "a",{nl}      "coeffs": {body}{nl}    }}'
        sep = "," + nl
    yield f"{nl}  ]{nl}}}"


def sequence_to_record(seq: PolySequence) -> dict:
    return _SequenceRecord(
        schema=SEQUENCE_SCHEMA,
        start=seq.start,
        k=seq.k,
        values=[poly_to_record(v) for v in seq.values],
    )


def sequence_from_record(obj) -> PolySequence:
    if not isinstance(obj, dict):
        raise SchemaError("sequence: expected an object")
    schema = obj.get("schema", SEQUENCE_SCHEMA)
    if schema != SEQUENCE_SCHEMA:
        raise SchemaError(f"sequence.schema: expected {SEQUENCE_SCHEMA!r}")
    raw = obj.get("values")
    if not isinstance(raw, list) or not raw:
        raise SchemaError("sequence.values: expected a nonempty list")
    values = tuple(
        poly_from_record(v, where=f"sequence.values[{i}]") for i, v in enumerate(raw)
    )
    try:  # start and k
        return PolySequence(start=obj.get("start", 0), values=values, k=obj.get("k"))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"sequence.{exc}") from None


def save_sequence(seq: PolySequence, path: str | Path) -> None:
    write_record(path, sequence_to_record(seq))


def load_sequence(path: str | Path) -> PolySequence:
    return sequence_from_record(_read_json(path, "sequence file"))
