"""Output checks for the benchmark, written apart from the program.

Nothing here imports multiderange.  Every expected number comes from
classical counting, not from earlier runs of the program:

* the a = 1 value of a shape's cycle polynomial is its derangement count,
  by rook-polynomial inclusion-exclusion: sum_j (-1)^j r_j (N - j)!, where
  r is the product over blocks of sum_i C(k, i)^2 i! x^i (the rook
  polynomial of a k x k board);
* for even N the coefficient of a^(N/2) counts the derangements made only
  of 2-cycles, i.e. the perfect matchings with no pair inside a block:
  sum_m (-1)^m M_m (N - 2m - 1)!!, where M is the product over blocks of
  sum_i C(k, 2i) (2i - 1)!! x^i;
* every coefficient is nonnegative (Foata & Zeilberger, "Laguerre
  polynomials, weighted derangements, and positivity", SIAM J. Discrete
  Math. 1988), the constant term is zero and the degree is at most N/2,
  because a derangement has no fixed point;
* the 52-card deck (4^13) has the published identified count
  DECK_IDENTIFIED.

Each check returns a list of problems; an empty list means the output
passed.  Polynomials are lists of ints in ascending powers of a.
"""

from __future__ import annotations

from math import comb, factorial, gcd, prod
from typing import Iterator, Sequence

DECK_IDENTIFIED = 1493804444499093354916284290188948031229880469556


def _mul(p: Sequence[int], q: Sequence[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
    return out


def _double_factorial_odd(m: int) -> int:
    """(m)!! for odd m >= -1, with (-1)!! = 1."""
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def block_rook(k: int) -> list[int]:
    """Rook polynomial of a k x k board: sum_i C(k, i)^2 i! x^i."""
    return [comb(k, i) ** 2 * factorial(i) for i in range(k + 1)]


def block_pairs(k: int) -> list[int]:
    """Ways to pick i disjoint pairs inside a block of k: C(k, 2i) (2i-1)!!."""
    return [comb(k, 2 * i) * _double_factorial_odd(2 * i - 1) for i in range(k // 2 + 1)]


def _rook_sum(r: Sequence[int], total: int) -> int:
    return sum((-1) ** j * rj * factorial(total - j) for j, rj in enumerate(r))


def _matching_sum(m: Sequence[int], total: int) -> int:
    if total % 2:
        return 0
    return sum(
        (-1) ** i * mi * _double_factorial_odd(total - 2 * i - 1)
        for i, mi in enumerate(m)
    )


def rook_count(shape: Sequence[int]) -> int:
    """Derangements of the shape, elements labeled (the a = 1 value)."""
    r = [1]
    for k in shape:
        r = _mul(r, block_rook(k))
    return _rook_sum(r, sum(shape))


def matching_count(shape: Sequence[int]) -> int:
    """Perfect matchings with no pair inside a block; 0 for odd totals."""
    m = [1]
    for k in shape:
        m = _mul(m, block_pairs(k))
    return _matching_sum(m, sum(shape))


def equal_block_counts(k: int, last: int) -> Iterator[tuple[int, int]]:
    """(rook_count, matching_count) of k^n for n = 0..last, incrementally."""
    r, m = [1], [1]
    rook_k, pairs_k = block_rook(k), block_pairs(k)
    for n in range(last + 1):
        yield _rook_sum(r, k * n), _matching_sum(m, k * n)
        r, m = _mul(r, rook_k), _mul(m, pairs_k)


def derangement_numbers(last: int) -> list[int]:
    """D_0..D_last from D_n = (n - 1)(D_(n-1) + D_(n-2))."""
    d = [1, 0]
    for n in range(2, last + 1):
        d.append((n - 1) * (d[-1] + d[-2]))
    return d[: last + 1]


def poly_problems(total: int, coeffs: Sequence[int], rook: int, matching: int) -> list[str]:
    """Invariants of the cycle polynomial of any shape with N = total."""
    out = []
    if coeffs and coeffs[-1] == 0:
        out.append("trailing zero coefficient")
    if any(c < 0 for c in coeffs):
        out.append("negative coefficient")
    if total and coeffs and coeffs[0] != 0:
        out.append(f"constant term {coeffs[0]} != 0")
    if len(coeffs) - 1 > total // 2:
        out.append(f"degree {len(coeffs) - 1} > {total // 2}")
    if sum(coeffs) != rook:
        out.append("a=1 value differs from the rook inclusion-exclusion count")
    if total % 2 == 0:
        top = coeffs[total // 2] if total // 2 < len(coeffs) else 0
        if top != matching:
            out.append(f"coefficient of a^{total // 2} differs from the matching count")
    return out


def wder_problems(shape: Sequence[int], coeffs: Sequence[int]) -> list[str]:
    """Checks of `wder SHAPE` (the full polynomial)."""
    out = poly_problems(sum(shape), coeffs, rook_count(shape), matching_count(shape))
    if sorted(shape) == [4] * 13:
        q, r = divmod(sum(coeffs), factorial(4) ** 13)
        if r or q != DECK_IDENTIFIED:
            out.append("deck polynomial does not give the published identified count")
    return out


def identified_problems(shape: Sequence[int], value: int) -> list[str]:
    """Checks of `wder SHAPE --identified`."""
    out = []
    if value * prod(factorial(k) for k in shape) != rook_count(shape):
        out.append("identified count * prod(k!) differs from the rook count")
    if sorted(shape) == [4] * 13 and value != DECK_IDENTIFIED:
        out.append("deck identified count differs from the published value")
    return out


def alpha_problems(shape: Sequence[int], alpha: int, value: int,
                   coeffs: Sequence[int] | None = None) -> list[str]:
    """Checks of `wder SHAPE --alpha A`; coeffs is the checked polynomial of
    the same shape, when another command produced it."""
    out = []
    if alpha == 1 and value != rook_count(shape):
        out.append("value at a=1 differs from the rook count")
    if coeffs is not None and value != sum(c * alpha**m for m, c in enumerate(coeffs)):
        out.append(f"value at a={alpha} differs from the checked polynomial")
    return out


def sequence_problems(k: int, start: int, values: Sequence[Sequence[int]],
                      counts: Sequence[tuple[int, int]] | None = None) -> list[str]:
    """Checks of F_k(start), F_k(start+1), ... (one coefficient list each).
    counts, if given, is a list of equal_block_counts(k, at least the last
    index), shared between sequences of the same k."""
    out = []
    last = start + len(values) - 1
    if counts is None:
        counts = list(equal_block_counts(k, last))
    derangements = derangement_numbers(last) if k == 1 else None
    for i, coeffs in enumerate(values):
        n = start + i
        rook, matching = counts[n]
        for p in poly_problems(k * n, coeffs, rook, matching):
            out.append(f"F_{k}({n}): {p}")
        if derangements is not None and sum(coeffs) != derangements[n]:
            out.append(f"F_1({n}) at a=1 breaks D_n = (n-1)(D_(n-1)+D_(n-2))")
        if len(out) > 10:
            break
    return out


# ---------------------------------------------------------------------------
# operators: polynomials in (n, a) as {(deg_n, deg_a): int}
# ---------------------------------------------------------------------------

def _bmul(*factors: dict) -> dict:
    out = {(0, 0): 1}
    for f in factors:
        acc: dict = {}
        for (p1, q1), c1 in out.items():
            for (p2, q2), c2 in f.items():
                key = (p1 + p2, q1 + q2)
                acc[key] = acc.get(key, 0) + c1 * c2
        out = acc
    return {key: c for key, c in out.items() if c}


def _lin(c: int = 0, n: int = 0, a: int = 0) -> dict:
    return {key: v for key, v in (((0, 0), c), ((1, 0), n), ((0, 1), a)) if v}


def _badd(*terms: dict) -> dict:
    out: dict = {}
    for t in terms:
        for key, c in t.items():
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def expected_operator(k: int) -> list[dict]:
    """The annihilating operators of F_1 and F_2 shipped with the program,
    written out from their closed forms; coeffs[j] multiplies F(n + j)."""
    if k == 1:
        ops = [_bmul(_lin(a=-1), _lin(1, 1)), _lin(-1, -1), _lin(1)]
    elif k == 2:
        a, a1, n1, n2 = _lin(a=1), _lin(1, a=1), _lin(1, 1), _lin(2, 1)
        quad1 = {(0, 0): -10, (1, 0): -14, (2, 0): -4, (0, 1): 7, (1, 1): 12, (2, 1): 4}
        quad2 = {(0, 0): 17, (1, 0): 16, (2, 0): 4, (0, 1): 8, (1, 1): 4}
        ops = [
            _bmul({(0, 0): 4}, a, _lin(5, 2), n2, n1, a1, a1),
            _bmul({(0, 0): 2}, n2, a1, quad1),
            _bmul({(0, 0): -2}, n2, quad2),
            _lin(3, 2),
        ]
    else:
        raise ValueError(f"no closed form for k={k}")
    return _normalize(ops)


def _normalize(ops: list[dict]) -> list[dict]:
    g = 0
    for c in ops:
        for v in c.values():
            g = gcd(g, v)
    sign = -1 if ops[-1][max(ops[-1])] < 0 else 1
    return [{key: sign * v // g for key, v in c.items()} for c in ops]


def operator_from_record(record: dict) -> list[dict]:
    """The coefficient list of a recurrence-operator/v1 record."""
    return [{(p, q): int(c) for p, q, c in mono} for mono in record["coeffs"]]


def annihilation_problems(ops: Sequence[dict], k: int, first: int, last: int) -> list[str]:
    """At a = 1 the operator must annihilate rook_count(k^n) for n in
    first..last; the counts come from inclusion-exclusion, not the program."""
    r = len(ops) - 1
    counts = [rook for rook, _ in equal_block_counts(k, last + r)]
    for n in range(first, last + 1):
        acc = 0
        for j, c in enumerate(ops):
            acc += sum(v * n**p for (p, _), v in c.items()) * counts[n + j]
        if acc:
            return [f"operator does not annihilate the a=1 counts at n={n}"]
    return []


def operator_problems(k: int, record: dict, valid_from: int, far: int) -> list[str]:
    """Checks of a found operator: the shipped coefficients, the expected
    valid_from, and a=1 annihilation through index ``far``."""
    out = []
    ops = operator_from_record(record)
    if record.get("order") != len(ops) - 1:
        out.append("order does not match the coefficient list")
    if record.get("valid_from") != valid_from:
        out.append(f"valid_from {record.get('valid_from')} != {valid_from}")
    if ops != expected_operator(k):
        out.append(f"coefficients differ from the shipped k={k} operator")
    out.extend(annihilation_problems(ops, k, valid_from, far))
    return out
