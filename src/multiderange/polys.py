"""Exact polynomial arithmetic over arbitrary-precision integers.

Two immutable representations:

  AlphaPoly -- dense polynomial in the cycle-marking variable ``a``: a tuple
               of int coefficients, ascending powers, no trailing zeros.
               The zero polynomial is the empty tuple.  Values are built
               by the kernels below, so AlphaPoly has no ring arithmetic
               either: it negates, evaluates, compares and prints.
  BivarPoly -- sparse polynomial in ``(n, a)``: a map (deg_n, deg_a) -> int
               with no zero entries.  Recurrence-operator coefficients are
               sparse in (n, a), hence the map.  Operators come from records
               or the guesser, never from formulas, so BivarPoly has no ring
               arithmetic: it evaluates, normalizes (negation, content
               division) and prints.

Coefficients are Python ints throughout, so there is no overflow and no
rounding anywhere.  add_product is the one dense product kernel: the
Laguerre product, the moment functional and the recurrence steps all
accumulate into an int list through it.  divide_exact
is integer long division that only accepts remainder-free, integral
quotients.  The public constructors check that every coefficient is an
int; results built inside this package, from coefficients that are ints by
construction, skip that check.
"""

from __future__ import annotations

from functools import cache
from math import gcd
from typing import Iterable, Iterator, Mapping, Sequence


class SchemaError(ValueError):
    """A serialized record does not match its documented schema."""


class InexactDivision(ArithmeticError):
    """Polynomial division left a remainder or a fractional coefficient."""


def _as_int(c) -> int:
    # bool is an int subclass and harmless; reject floats and rationals loudly.
    if isinstance(c, int):
        return c
    raise TypeError(f"coefficients must be int, got {type(c).__name__}")


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

    def coeff(self, m: int) -> int:
        """Coefficient of a^m (0 beyond the stored range)."""
        if 0 <= m < len(self.coeffs):
            return self.coeffs[m]
        return 0

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
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def __repr__(self) -> str:
        return f"AlphaPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return render_terms([((m,), c) for m, c in enumerate(self.coeffs)], ("a",))


_ZERO = AlphaPoly()
ALPHA_ONE = AlphaPoly((1,))


def add_product(acc: list[int], p: Sequence[int], q: Sequence[int]) -> None:
    """acc += p * q, for ascending coefficient sequences; acc grows as needed.

    Trailing entries of acc may be zero afterwards.
    """
    if not p or not q:
        return
    end = len(p) + len(q) - 1
    if len(acc) < end:
        acc.extend([0] * (end - len(acc)))
    for s, ps in enumerate(p):
        if ps:
            for t, qt in enumerate(q, s):
                acc[t] += ps * qt


def render_terms(terms, names: tuple[str, ...]) -> str:
    """Human-readable form, descending exponents, explicit signs."""
    items = [(e, c) for e, c in terms if c]
    if not items:
        return "0"
    items.sort(key=lambda t: t[0], reverse=True)
    parts: list[str] = []
    for exps, c in items:
        mag = abs(c)
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


# The last value rising_factorial built.  A miss steps up from it: callers
# ask for increasing m (the moment functional does), so that is usually one
# step, and one call for a large m keeps no intermediates (for m = 3000
# those would take gigabytes, and recursing through them the stack).
_last_rising: tuple[int, AlphaPoly] = (0, ALPHA_ONE)


@cache
def rising_factorial(m: int) -> AlphaPoly:
    """The product a(a+1)...(a+m-1); 1 when m = 0.

    This is both the all-permutations cycle enumerator of m elements and the
    normalized weight moment of x^m, which is why it shows up everywhere.
    """
    global _last_rising
    if m < 0:
        raise ValueError("m must be nonnegative")
    j, poly = _last_rising
    if j > m:
        j, poly = 0, ALPHA_ONE
    coeffs = list(poly.coeffs)
    for i in range(j, m):
        # multiply by (a + i)
        coeffs = [i * x + y for x, y in zip(coeffs + [0], [0] + coeffs)]
    out = AlphaPoly._trusted(coeffs)
    _last_rising = (m, out)
    return out


def divide_exact(num: AlphaPoly, den: AlphaPoly) -> AlphaPoly:
    """Quotient num/den, required to be exact with integer coefficients.

    Raises InexactDivision on a nonzero remainder or fractional quotient
    coefficient; either one means the caller's inputs are inconsistent.
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
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


def poly_to_record(p: AlphaPoly) -> dict:
    """Machine form: {"variable": "a", "coeffs": [decimal strings, ascending]}."""
    return {"variable": "a", "coeffs": [str(c) for c in p.coeffs]}


def poly_from_record(obj, where: str = "polynomial") -> AlphaPoly:
    """Parse the machine form back; strict about canonical shape."""
    if isinstance(obj, int):
        return AlphaPoly._trusted([obj])
    if isinstance(obj, str):
        return AlphaPoly._trusted([_parse_int(obj, where)])
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    if obj.get("variable") != "a":
        raise SchemaError(f"{where}.variable: expected \"a\"")
    coeffs = obj.get("coeffs")
    if not isinstance(coeffs, list):
        raise SchemaError(f"{where}.coeffs: expected a list")
    out = [_parse_int(c, f"{where}.coeffs[{i}]") for i, c in enumerate(coeffs)]
    if out and out[-1] == 0:
        raise SchemaError(f"{where}.coeffs: trailing zero entry")
    return AlphaPoly._trusted(out)


def _parse_int(value, where: str) -> int:
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise SchemaError(f"{where}: not a decimal integer: {value!r}") from None
    raise SchemaError(f"{where}: expected a decimal string")


class BivarPoly:
    """Sparse polynomial in (n, a): {(deg_n, deg_a): coefficient}."""

    __slots__ = ("terms",)

    terms: dict[tuple[int, int], int]

    def __init__(self, terms: Mapping[tuple[int, int], int] = {}) -> None:
        for (p, q), c in terms.items():
            _as_int(c)
            if p < 0 or q < 0:
                raise ValueError("negative exponent")
        object.__setattr__(
            self, "terms", {k: v for k, v in sorted(terms.items()) if v}
        )

    def __setattr__(self, name, value):
        raise AttributeError("BivarPoly is immutable")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> BivarPoly:
        return BivarPoly({k: -v for k, v in self.terms.items()})

    @property
    def deg_n(self) -> int:
        return max((p for p, _ in self.terms), default=-1)

    @property
    def deg_a(self) -> int:
        return max((q for _, q in self.terms), default=-1)

    def eval_n(self, n: int) -> AlphaPoly:
        """Substitute an integer for n, leaving a polynomial in a."""
        if not self.terms:
            return _ZERO
        out = [0] * (self.deg_a + 1)
        for (p, q), c in self.terms.items():
            out[q] += c * n**p
        return AlphaPoly._trusted(out)

    def substitute_a(self, a: int) -> BivarPoly:
        """Substitute an integer for a, leaving a polynomial in n."""
        out: dict[tuple[int, int], int] = {}
        for (p, q), c in self.terms.items():
            k = (p, 0)
            out[k] = out.get(k, 0) + c * a**q
        return BivarPoly(out)

    def content(self) -> int:
        """gcd of all coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.terms.values():
            g = gcd(g, c)
        return g

    def div_int(self, d: int) -> BivarPoly:
        """Exact division of every coefficient by a common integer factor."""
        if any(c % d for c in self.terms.values()):
            raise InexactDivision(f"content division by {d} is not exact")
        return BivarPoly({k: c // d for k, c in self.terms.items()})

    def leading_coefficient(self) -> int:
        """Coefficient of the lexicographically largest term (n before a)."""
        if not self.terms:
            return 0
        return self.terms[max(self.terms)]

    def monomials(self) -> Iterator[tuple[int, int, int]]:
        """(deg_n, deg_a, coefficient) triples, sorted by (deg_n, deg_a)."""
        for (p, q), c in sorted(self.terms.items()):
            yield p, q, c

    def __repr__(self) -> str:
        return f"BivarPoly({self.terms!r})"

    def __str__(self) -> str:
        return render_terms(list(self.terms.items()), ("n", "a"))

