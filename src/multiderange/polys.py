"""Exact polynomial arithmetic over arbitrary-precision integers.

AlphaPoly is the one polynomial class: a dense polynomial in the
cycle-marking variable ``a``, kept as an immutable tuple of int
coefficients, ascending powers, no trailing zeros.  The zero polynomial is
the empty tuple.  Values are built by the kernels below, so AlphaPoly has
no ring arithmetic: it negates, evaluates, compares and prints.
PolySequence is the one table of AlphaPoly values at consecutive indices,
such as F_k(0..N), whichever engine computed it.
Recurrence-operator coefficients, polynomials in (n, a), are plain
(deg_n, deg_a, coefficient) triples owned by ``recurrence``; render_terms
prints both forms.

Coefficients are Python ints throughout, so there is no overflow and no
rounding anywhere.  add_product is the one dense product kernel over Z[a]:
the Laguerre product, the moment functional, the enumerator's products cut
at x^j and the recurrence steps all accumulate into an int list through it.
divide_exact is integer long division that only accepts remainder-free,
integral quotients.  The public constructors check that every coefficient
is an int; results built inside this package, from coefficients that are
ints by construction, skip that check.  PolySequence and RecurrenceOperator check
every index (start, k, valid_from) by _check_index: an int, not a bool, of
at most 640 digits, which prints under any int/str digit limit Python takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
from typing import Iterable, Sequence


class SchemaError(ValueError):
    """A serialized record does not match its documented schema."""


class InexactDivision(ArithmeticError):
    """Polynomial division left a remainder or a fractional coefficient."""


def _as_int(c) -> int:
    # Reject floats and rationals loudly, and bools, which records would
    # spell "True".
    if type(c) is int:
        return c
    raise TypeError(f"coefficients must be int, got {type(c).__name__}")


def _check_index(value, where: str, expected: str = "an integer") -> None:
    if type(value) is not int:  # bools are refused too
        raise TypeError(f"{where}: expected {expected}")
    if abs(value) >= 10**640:
        raise ValueError(f"{where}: more than 640 digits")


class AlphaPoly:
    """Dense univariate polynomial in ``a`` with integer coefficients."""

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = [_as_int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _trusted(cls, cs: list[int]) -> AlphaPoly:
        """Wrap an int list built inside this package, without the type checks.

        The list is consumed: its trailing zeros are stripped in place.
        """
        while cs and cs[-1] == 0:
            cs.pop()
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", tuple(cs))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("AlphaPoly is immutable")

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, AlphaPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> AlphaPoly:
        return AlphaPoly._trusted([-c for c in self.coeffs])

    def __call__(self, v: int) -> int:
        """Exact Horner evaluation at an integer."""
        if type(v) is not int:  # bools are refused too
            raise TypeError("evaluation point must be an int")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def __repr__(self) -> str:
        return f"AlphaPoly([{', '.join(map(_decimal_str, self.coeffs))}])"

    def __str__(self) -> str:
        return render_terms(enumerate(self.coeffs), ("a",))


_ZERO = AlphaPoly()


@dataclass(frozen=True)
class PolySequence:
    """Contiguous table n -> AlphaPoly from ``start``; k is F_k's k, if any."""

    start: int
    values: tuple[AlphaPoly, ...]
    k: int | None = None

    def __post_init__(self):
        _check_index(self.start, "start")
        if self.k is not None:
            _check_index(self.k, "k", "an integer or null")
        object.__setattr__(self, "values", tuple(self.values))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def last(self) -> int:
        return self.start + len(self.values) - 1

    def value_at(self, n: int) -> AlphaPoly:
        if type(n) is not int:  # bools are refused too
            raise TypeError("index: expected an integer")
        if not self.start <= n <= self.last:
            bounds = ", ".join(map(_decimal_str, (self.start, self.last)))
            raise IndexError(f"index {_decimal_str(n)} outside [{bounds}]")
        return self.values[n - self.start]


def add_product(acc: list[int], p: Sequence[int], q: Sequence[int],
                top: int | None = None) -> None:
    """acc += p * q, for ascending coefficient sequences; acc grows as needed.

    With top >= 0 given, only the terms up to x^top are added, and acc grows
    to at most top + 1 entries.  Trailing entries of acc may be zero afterwards.
    """
    if not p or not q:
        return
    end = len(p) + len(q) - 1
    if top is not None:
        end = min(end, top + 1)
        p = p[:end]
    if len(acc) < end:
        acc.extend([0] * (end - len(acc)))
    for s, ps in enumerate(p):
        if ps:
            for t, qt in enumerate(q if top is None else q[:end - s], s):
                acc[t] += ps * qt


def render_terms(terms, names: tuple[str, ...]) -> str:
    """Human-readable form of (exponents..., coefficient) tuples, one
    exponent per name: descending exponents, explicit signs."""
    items = sorted((t for t in terms if t[-1]), reverse=True)
    if not items:
        return "0"
    parts: list[str] = []
    for *exps, c in items:
        mag = abs(c)
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors or mag != 1:
            factors.insert(0, _decimal_str(mag))
        body = "*".join(factors)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


@lru_cache(maxsize=None, typed=True)  # typed: True is not a cached 1
def rising_factorial(m: int) -> AlphaPoly:
    """The product a(a+1)...(a+m-1); 1 when m = 0.

    This is both the all-permutations cycle enumerator of m elements and the
    normalized weight moment of x^m, which is why it shows up everywhere.
    A miss keeps no intermediates: for m = 3000 they would take gigabytes.
    """
    if type(m) is not int:  # bools are refused too
        raise TypeError("m must be an int")
    if m < 0:
        raise ValueError("m must be nonnegative")
    coeffs = [1]
    for i in range(m):
        coeffs = times_a_plus(coeffs, i)
    return AlphaPoly._trusted(coeffs)


def times_a_plus(coeffs: list[int], i: int) -> list[int]:
    """The coefficients of p * (a + i), for p's ascending coefficients."""
    return [i * x + y for x, y in zip(coeffs + [0], [0] + coeffs)]


def divide_exact(num: AlphaPoly, den: AlphaPoly) -> AlphaPoly:
    """Quotient num/den, required to be exact with integer coefficients.

    Raises InexactDivision on a nonzero remainder or fractional quotient
    coefficient; either one means the caller's inputs are inconsistent.
    A unit divisor, 1 or -1, gives num or -num without dividing.
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if den.coeffs in ((1,), (-1,)):
        return num if den.coeffs[0] == 1 else -num
    if not num:
        return _ZERO
    if num.degree < den.degree:
        raise InexactDivision(f"degree {num.degree} < divisor degree {den.degree}")
    # Long division over Q computes the same quotient coefficients in the
    # same order, so the first one that is not an integer is the first
    # nonzero divmod remainder here, and stopping there loses nothing.
    rem = list(num.coeffs)
    dc = den.coeffs
    top = len(dc) - 1
    lead = dc[top]
    quot = [0] * (len(rem) - top)
    for i in range(len(quot) - 1, -1, -1):
        q, r = divmod(rem[i + top], lead)
        if r:
            raise InexactDivision("fractional quotient coefficient")
        quot[i] = q
        if q:
            for j in range(top):
                rem[i + j] -= q * dc[j]
    if any(rem[:top]):
        raise InexactDivision("nonzero remainder")
    return AlphaPoly._trusted(quot)


def _decimal_str(c: int) -> str:
    """str(c), also past Python's int/str digit limit, which Decimal has not."""
    try:
        return str(c)
    except ValueError:
        return str(Decimal(c))


def poly_to_record(p: AlphaPoly) -> dict:
    """Machine form: {"variable": "a", "coeffs": [decimal strings, ascending]}."""
    return {"variable": "a", "coeffs": list(map(_decimal_str, p.coeffs))}


def poly_from_record(obj, where: str = "polynomial") -> AlphaPoly:
    """Parse the machine form back; strict about canonical shape."""
    if type(obj) is int or isinstance(obj, str):  # JSON true/false are bools, not ints
        return AlphaPoly._trusted([_parse_int(obj, where)])
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    if obj.get("variable") != "a":
        raise SchemaError(f"{where}.variable: expected \"a\"")
    coeffs = obj.get("coeffs")
    if not isinstance(coeffs, list):
        raise SchemaError(f"{where}.coeffs: expected a list")
    # ints, as load_sequence's decoder leaves them, skip the call and its message
    out = [c if type(c) is int else _parse_int(c, f"{where}.coeffs[{i}]")
           for i, c in enumerate(coeffs)]
    if out and out[-1] == 0:
        raise SchemaError(f"{where}.coeffs: trailing zero entry")
    return AlphaPoly._trusted(out)


def _parse_int(value, where: str) -> int:
    if type(value) is int:  # JSON true/false are bools, not ints
        return value
    if isinstance(value, str):
        # int() also takes surrounding whitespace, a "+" sign, "_" between
        # digits and non-ASCII digits; a record's plain decimal strings have
        # none.  These character checks cost a fraction of the int() call.
        if (value.isascii() and "_" not in value and value[:1] in "-0123456789"
                and value[-1:].isdigit()):
            try:
                return int(value, 10)
            except ValueError:
                # past the digit limit; Decimal would also take "1e5", "NaN"
                if value[value[0] == "-":].isdigit():
                    return int(Decimal(value))
        raise SchemaError(f"{where}: not a decimal integer: {value!r}")
    raise SchemaError(f"{where}: expected a decimal string")
