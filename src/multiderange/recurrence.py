"""Linear shift-operator recurrences with (n, a)-polynomial coefficients.

An operator of order r is c_0(n,a) F(n) + ... + c_r(n,a) F(n+r), asserted to
vanish for every n >= valid_from.  Operators are kept normalized: integer
content 1 and a positive leading coefficient of c_r in lexicographic term
order (n before a), so equal operators compare structurally equal.

Every operator is a recurrence-operator/v1 record.  The built-in ones, for
block sizes 1 and 2, ship next to this module as operators/k1.json and
operators/k2.json, exactly as the guesser writes them, and extend the
equal-blocks sequences F_k far beyond what direct evaluation reaches
comfortably.  operator_seed is the one rule for how many direct values an
operator needs: F_k from index 0 through op.valid_from plus order - 1
more, from the enumerator's generator.  Extension solves for F(n+r) by
exact polynomial division; a nonzero remainder always means a wrong
operator, wrong seeds, or a transcription bug, never legitimate
fractional output, so it raises.
"""

from __future__ import annotations

import errno
import json
from dataclasses import dataclass
from functools import cache
from math import gcd
from pathlib import Path

from .enumerator import fk_sequence_direct
from .polys import (
    AlphaPoly,
    BivarPoly,
    InexactDivision,
    SchemaError,
    add_product,
    divide_exact,
    poly_from_record,
    poly_to_record,
)

OPERATOR_SCHEMA = "recurrence-operator/v1"
SEQUENCE_SCHEMA = "poly-sequence/v1"


class UnsupportedK(Exception):
    """No built-in operator for this block size; load one or guess one."""


class LeadingCoefficientZero(ArithmeticError):
    """The leading coefficient vanished at an index in the extension range."""


class WindowTooShort(ValueError):
    """Verification needs at least order+1 consecutive values."""


@dataclass(frozen=True)
class RecurrenceOperator:
    """Normalized shift operator; coeffs[j] multiplies F(n+j)."""

    coeffs: tuple[BivarPoly, ...]
    valid_from: int = 0

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if len(coeffs) < 2:
            raise ValueError("operator needs order at least 1")
        if not coeffs[-1]:
            raise ValueError("leading coefficient must be nonzero")
        g = 0
        for c in coeffs:
            g = gcd(g, c.content())
        if g > 1:
            coeffs = tuple(c.div_int(g) for c in coeffs)
        if coeffs[-1].leading_coefficient() < 0:
            coeffs = tuple(-c for c in coeffs)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self) -> str:
        parts = [f"({c}) * F(n+{j})" if j else f"({c}) * F(n)"
                 for j, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) + " = 0"


@dataclass(frozen=True)
class PolySequence:
    """Contiguous table n -> AlphaPoly starting at ``start``."""

    start: int
    values: tuple[AlphaPoly, ...]
    k: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def last(self) -> int:
        return self.start + len(self.values) - 1

    def value_at(self, n: int) -> AlphaPoly:
        if not self.start <= n <= self.last:
            raise IndexError(f"index {n} outside [{self.start}, {self.last}]")
        return self.values[n - self.start]


_OPERATORS = Path(__file__).with_name("operators")


@cache
def builtin_operator(k: int) -> RecurrenceOperator:
    """Shipped annihilating operator for the equal-blocks sequence F_k.

    Read once per process from operators/k{k}.json; a block size without
    such a file must get its operator from a file of its own or the guesser.
    """
    try:
        return load_operator(_OPERATORS / f"k{k}.json")
    except OSError as exc:
        # a k too long for a file name is just as unsupported
        if exc.errno not in (errno.ENOENT, errno.ENAMETOOLONG):
            raise
    raise UnsupportedK(f"no built-in operator for k={k}")


def extend_sequence(
    op: RecurrenceOperator, seed: PolySequence, target: int
) -> PolySequence:
    """Extend a seed through index ``target`` by solving for F(n+r).

    Each step divides by c_r(n, a) with a mandatory zero remainder.  The
    first step's window, n = seed.last + 1 - order, must be at least
    op.valid_from.
    """
    if len(seed) < op.order:
        raise ValueError(f"seed must supply at least {op.order} values")
    if target > seed.last and seed.last + 1 - op.order < op.valid_from:
        raise ValueError("seed ends before the operator is valid")
    if target < seed.last:
        raise ValueError("target precedes the last seed index")
    values = list(seed.values)
    r = op.order
    lead = op.coeffs[r]
    while seed.start + len(values) - 1 < target:
        n = seed.start + len(values) - r
        lead_at_n = lead.eval_n(n)
        if not lead_at_n:
            raise LeadingCoefficientZero(f"leading coefficient vanishes at n={n}")
        # F(n+r) = -(sum_{j<r} c_j F(n+j)) / c_r = (sum_{j<r} c_j F(n+j)) / -c_r
        partial = _apply(op, n, values, len(values) - r, r)
        try:
            values.append(divide_exact(AlphaPoly._trusted(partial), -lead_at_n))
        except InexactDivision as exc:
            raise InexactDivision(f"inexact step at n={n}: {exc}") from None
    return PolySequence(start=seed.start, values=tuple(values), k=seed.k)


def _apply(op: RecurrenceOperator, n: int, values, base: int, terms: int) -> list[int]:
    """Coefficients in a of sum_{j < terms} c_j(n, a) * values[base + j].

    One int list accumulates every product, so no intermediate polynomial
    is built; trailing entries may be zero.
    """
    acc: list[int] = []
    for j in range(terms):
        v = values[base + j].coeffs
        if v:
            add_product(acc, op.coeffs[j].eval_n(n).coeffs, v)
    return acc


def first_failure(op: RecurrenceOperator, seq: PolySequence) -> int | None:
    """Smallest applicable n where the operator fails to annihilate, if any."""
    r = op.order
    first = max(seq.start, op.valid_from)
    last_window = seq.last - r
    if last_window < first:
        raise WindowTooShort(
            f"need at least {r + 1} values at or after n={op.valid_from}"
        )
    for n in range(first, last_window + 1):
        if any(_apply(op, n, seq.values, n - seq.start, r + 1)):
            return n
    return None


def verify_operator(op: RecurrenceOperator, seq: PolySequence) -> bool:
    """True iff the operator annihilates the sequence on every window."""
    return first_failure(op, seq) is None


def operator_seed(k: int, op: RecurrenceOperator, last: int) -> PolySequence:
    """Directly computed F_k(0..m) from which op extends F_k through ``last``.

    m = min(max(0, op.valid_from), last) + op.order - 1: the terms before
    op.valid_from are direct values too, so the first step uses a window
    the operator is valid on.
    """
    m = min(max(0, op.valid_from), last) + op.order - 1
    return PolySequence(start=0, values=tuple(fk_sequence_direct(k, m)), k=k)


def fk_sequence_via_recurrence(k: int, last: int,
                               op: RecurrenceOperator | None = None) -> PolySequence:
    """[F_k(0), ..., F_k(last)]: operator_seed, then extension."""
    if op is None:
        op = builtin_operator(k)
    seed = operator_seed(k, op, last)
    if last < seed.last:
        return PolySequence(start=0, values=seed.values[: last + 1], k=k)
    return extend_sequence(op, seed, last)


def specialize_alpha(op: RecurrenceOperator, a: int) -> RecurrenceOperator:
    """Substitute an integer for the cycle-marking variable.

    Useful for plain counting: at a=1 the k=1 operator reproduces the
    classical derangement-number recurrence.
    """
    coeffs = tuple(c.substitute_a(a) for c in op.coeffs)
    if not coeffs[-1]:
        raise ValueError(f"operator degenerates at a={a}")
    return RecurrenceOperator(coeffs, op.valid_from)


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
            [[p, q, str(c)] for p, q, c in poly.monomials()] for poly in op.coeffs
        ],
    }


def operator_from_record(obj) -> RecurrenceOperator:
    if not isinstance(obj, dict):
        raise SchemaError("operator: expected an object")
    schema = obj.get("schema", OPERATOR_SCHEMA)
    if schema != OPERATOR_SCHEMA:
        raise SchemaError(f"operator.schema: expected {OPERATOR_SCHEMA!r}")
    order = obj.get("order")
    if not isinstance(order, int) or order < 1:
        raise SchemaError("operator.order: expected a positive integer")
    valid_from = obj.get("valid_from", 0)
    if not isinstance(valid_from, int):
        raise SchemaError("operator.valid_from: expected an integer")
    raw = obj.get("coeffs")
    if not isinstance(raw, list) or len(raw) != order + 1:
        raise SchemaError(f"operator.coeffs: expected a list of {order + 1} entries")
    coeffs = []
    for j, mono_list in enumerate(raw):
        where = f"operator.coeffs[{j}]"
        if not isinstance(mono_list, list):
            raise SchemaError(f"{where}: expected a list of monomials")
        terms = {}
        prev = None
        for i, mono in enumerate(mono_list):
            if not (isinstance(mono, list) and len(mono) == 3):
                raise SchemaError(f"{where}[{i}]: expected [deg_n, deg_a, coeff]")
            p, q, c = mono
            if not (isinstance(p, int) and isinstance(q, int) and p >= 0 and q >= 0):
                raise SchemaError(f"{where}[{i}]: bad exponents {p!r}, {q!r}")
            if isinstance(c, str):
                try:
                    c = int(c, 10)
                except ValueError:
                    raise SchemaError(f"{where}[{i}]: bad coefficient {c!r}") from None
            elif not isinstance(c, int):
                raise SchemaError(f"{where}[{i}]: bad coefficient {c!r}")
            if c == 0:
                raise SchemaError(f"{where}[{i}]: zero coefficient stored")
            if prev is not None and (p, q) <= prev:
                raise SchemaError(f"{where}[{i}]: monomials must be sorted by (deg_n, deg_a)")
            prev = (p, q)
            terms[(p, q)] = c
        coeffs.append(BivarPoly(terms))
    if not coeffs[-1]:
        raise SchemaError("operator.coeffs: leading coefficient is zero")
    return RecurrenceOperator(tuple(coeffs), valid_from=valid_from)


def save_operator(op: RecurrenceOperator, path: str | Path) -> None:
    Path(path).write_text(json.dumps(operator_to_record(op), indent=2) + "\n")


def load_operator(path: str | Path) -> RecurrenceOperator:
    return operator_from_record(_read_json(path, "operator file"))


def _read_json(path: str | Path, what: str):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what}: invalid JSON at line {exc.lineno}") from None
    except RecursionError:
        raise SchemaError(f"{what}: JSON nested too deeply") from None


def sequence_to_record(seq: PolySequence) -> dict:
    return {
        "schema": SEQUENCE_SCHEMA,
        "start": seq.start,
        "k": seq.k,
        "values": [poly_to_record(v) for v in seq.values],
    }


def sequence_from_record(obj) -> PolySequence:
    if not isinstance(obj, dict):
        raise SchemaError("sequence: expected an object")
    schema = obj.get("schema", SEQUENCE_SCHEMA)
    if schema != SEQUENCE_SCHEMA:
        raise SchemaError(f"sequence.schema: expected {SEQUENCE_SCHEMA!r}")
    start = obj.get("start", 0)
    if not isinstance(start, int):
        raise SchemaError("sequence.start: expected an integer")
    k = obj.get("k")
    if k is not None and not isinstance(k, int):
        raise SchemaError("sequence.k: expected an integer or null")
    raw = obj.get("values")
    if not isinstance(raw, list) or not raw:
        raise SchemaError("sequence.values: expected a nonempty list")
    values = tuple(
        poly_from_record(v, where=f"sequence.values[{i}]") for i, v in enumerate(raw)
    )
    return PolySequence(start=start, values=values, k=k)


def save_sequence(seq: PolySequence, path: str | Path) -> None:
    Path(path).write_text(json.dumps(sequence_to_record(seq), indent=2) + "\n")


def load_sequence(path: str | Path) -> PolySequence:
    return sequence_from_record(_read_json(path, "sequence file"))
