"""Empirical discovery of annihilating operators from sequence data.

Candidate shapes (order, deg_n, deg_a) are searched smallest first.  For
each candidate the unknowns are the monomial coefficients of the c_j; every
window position n contributes one homogeneous equation per power of a in
the residual c_0(n,a) F(n) + ... + c_r(n,a) F(n+r).  A nonzero kernel
vector of that system, normalized, is accepted only if the resulting
operator annihilates the entire input sequence, including a trailing
holdout that never enters the linear system.  Overdetermination plus the
holdout is the defense against fitting coincidences.

The rows of every candidate of one order are cut from a single set built at
the largest degrees: a candidate's row is the larger row at the columns
whose powers of n and a fit, and the rows it would not have are exactly
those that become zero.  Since n^p only scales an entry, a row is nonzero
at a candidate's columns exactly when one of its n^0 a^q columns with
q <= deg_a is nonzero, so the rows are counted per deg_a as they are built.

Most candidates have no kernel, and one screen per order, modulo a fixed
word-size prime p, shows it.  The order's rows are reduced at every column
of its largest shape, window by window, until the rank over F_p is full or
a window raises no pivot.  The basis is kept in reduced echelon form and
stored by non-pivot column, so a row's residual is one dot product per
non-pivot column.  Each candidate cuts that basis to its columns: basis
rows whose pivots it keeps stay, and the others, zero at every kept pivot,
are their own residuals and extend it, which gives the basis of its rows
on the screen's prefix.  Its screen then continues over its own rows past
the prefix, cut one at a time, and it is rejected as soon as the rank is
full; only a candidate that is not has its rows cut whole.  The screen is
sound: any nonzero minor mod p is a nonzero integer minor, so the rank
over Q is at least the rank over F_p, and full column rank mod p leaves
no rational kernel.  No candidate with a kernel is dropped, so the
operator found is the same.

A candidate that passes has its kernel read off its screen's basis, one
vector per non-pivot column, and lifted to the integers: the vectors of
further primes are combined by CRT, rebuilt by rational reconstruction and
certified by an exact dot product with every row.  Since the rank over Q
is at least the rank mod p, d certified vectors, each 1 at its own
non-pivot column and 0 at the others, show that the rational kernel has
dimension d.  Each is zero past its column, so the rational pivots are
the same and the vector at the first non-pivot column is the canonical
one.  A prime of full rank shows there is no kernel.  Every step works on
integers.

An order whose rows would exceed MAX_SYSTEM_BITS, counting each entry's
slot and bit length, is refused with ValueError before they are built.

Each candidate is logged at DEBUG on the ``multiderange.guesser`` logger
with its shape, its equations x unknowns and its outcome.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import accumulate, chain, count, product
from math import gcd, isqrt
from operator import itemgetter, mul
from sys import getsizeof
from typing import Iterable, Iterator, Sequence

from .polys import AlphaPoly, PolySequence
from .recurrence import RecurrenceOperator, verify_operator

_log = logging.getLogger(__name__)

# Modulus of the rank filter; a Mersenne prime, so unlucky minors are rare.
_PRIME = (1 << 61) - 1

# Largest size of one order's rows in bits, a 64-bit slot plus the bit length
# per entry.  F_3 at bounds (4, 7, 7) on 55 fitted terms needs 0.40 G, and
# F_4 at (5, 10, 14) on 41 fitted terms 0.82 G (rows of 50 and 102 MB).
MAX_SYSTEM_BITS = 2_000_000_000

# A reduced echelon basis mod p, (pivots, cols), as _basis_mod_p returns it.
_Basis = tuple[list[int], dict[int, list[int]]]


class NotFound(Exception):
    """No candidate within the spec bounds verified on the full sequence."""


class InsufficientTerms(Exception):
    """Too few terms for any candidate within the spec bounds."""


@dataclass(frozen=True)
class GuessSpec:
    """Search bounds; holdout is the number of trailing terms kept out of
    the linear system and used only for verification."""

    max_order: int
    max_deg_n: int
    max_deg_a: int
    holdout: int = 5

    def __post_init__(self):
        if self.max_order < 1:
            raise ValueError("max_order must be positive")
        if self.max_deg_n < 0 or self.max_deg_a < 0:
            raise ValueError("degree bounds must be nonnegative")
        if self.holdout < 1:
            raise ValueError("holdout must be at least 1")


@dataclass(frozen=True)
class GuessResult:
    """A verified operator plus diagnostics about how it was pinned down.

    kernel_dim > 1 means the data admitted several candidate operators at
    this shape; the canonical one (most trailing zero unknowns) was chosen.
    """

    operator: RecurrenceOperator
    candidate: tuple[int, int, int]
    kernel_dim: int
    equations: int
    unknowns: int


def _basis_mod_p(
    rows: Sequence[Sequence[int]], ncols: int, p: int, basis: _Basis | None = None
) -> _Basis:
    """Pivots and non-pivot columns of the rows' reduced echelon basis mod p.

    Rows are taken in order, stopping at rank ncols.  A row that raises the
    rank pivots at its lowest column with a nonzero residual, so the sorted
    pivots are the greedy column basis.  cols[f][b] is the entry of basis
    row b at the non-pivot column f; its pivot entry is 1 and its other
    pivot entries are 0, so a row's residual at f is row[f] minus one dot
    product of the row's pivot entries with cols[f].  A basis of earlier
    rows, (pivots, cols) as returned, is extended in place.
    """
    pivots, cols = basis or ([], {f: [] for f in range(ncols)})
    for row in rows:
        if len(pivots) == ncols:
            break
        g = [row[q] for q in pivots]
        res = [(f, x) for f, col in cols.items()
               if (x := (row[f] - sum(map(mul, g, col))) % p)]
        if not res:
            continue
        c, x = res[0]
        inv = pow(x, -1, p)
        new = {f: y * inv % p for f, y in res}  # the new basis row, 1 at c
        at_c = cols.pop(c)
        for f, col in cols.items():
            z = new.get(f, 0)
            if z:  # clear column c from the old basis rows
                col[:] = [(a - b * z) % p for a, b in zip(col, at_c)]
            col.append(z)
        pivots.append(c)
    return pivots, cols


def _order_screen(
    rows: Sequence[Sequence[int]], ends: Sequence[int], ncols: int
) -> tuple[int, _Basis]:
    """The basis mod _PRIME of a prefix of the rows, and the prefix's length.

    The rows are taken window by window (ends[i] is where window i's rows
    end), up to the end of the first window that raises no pivot, or until
    the rank is ncols.
    """
    basis: _Basis = ([], {f: [] for f in range(ncols)})
    lo = rank = 0
    for hi in ends:
        _basis_mod_p(rows[lo:hi], ncols, _PRIME, basis)
        if len(basis[0]) in (rank, ncols):
            return hi, basis
        lo, rank = hi, len(basis[0])
    return lo, basis


def _restrict(
    basis: _Basis, kept: Sequence[int], rest: Iterable[Sequence[int]]
) -> _Basis:
    """The basis mod _PRIME of the same rows cut to the kept columns, which
    are increasing and numbered 0..len(kept)-1 in the result, continued
    over the rows rest (already cut) until the rank is len(kept).

    A basis row whose pivot is kept stays as it is.  One whose pivot is
    dropped is 0 at every kept pivot, so its kept entries are already its
    residual, and it extends the basis.  Reduced echelon form is unique.
    """
    pivots, cols = basis
    index = {c: i for i, c in enumerate(kept)}
    free = {index[f]: col for f, col in cols.items() if f in index}
    stay = [b for b, q in enumerate(pivots) if q in index]
    residuals = [[free[i][b] if i in free else 0 for i in range(len(kept))]
                 for b, q in enumerate(pivots) if q not in index]
    out = ([index[pivots[b]] for b in stay],
           {i: [col[b] for b in stay] for i, col in free.items()})
    return _basis_mod_p(chain(residuals, rest), len(kept), _PRIME, out)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the bases that make it exact for odd 37 < n < 2**64."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        xs = [pow(a, (n - 1) >> (s - i), n) for i in range(s)]  # a^(d 2^i)
        if xs[0] != 1 and n - 1 not in xs:
            return False
    return True


def _primes() -> Iterator[int]:
    """_PRIME, then the primes below 2**62 in descending order."""
    yield _PRIME
    yield from filter(_is_prime, count((1 << 62) - 1, -2))


def _rational_lift(v: list[int], m: int) -> list[int] | None:
    """Integers proportional to the rationals with residues v mod m, found
    against a running common denominator (a residue 0 stays 0), or None
    when one has no reconstruction within sqrt(m / 2)."""
    bound = isqrt(m >> 1)
    den = 1
    out: list[int] = []
    for x in v:
        # half-extended Euclid: x * den = r1 / s1 mod m, |r1| <= bound
        r0, r1, s0, s1 = m, x * den % m, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
        if abs(s1) > bound:
            return None
        if s1 < 0:
            r1, s1 = -r1, -s1
        if s1 > 1:
            out = [y * s1 for y in out]
            den *= s1
        out.append(r1)
    return out


def _solve(
    rows: Sequence[Sequence[int]], ncols: int, basis: _Basis
) -> tuple[int, list[int] | None]:
    """Rank over Q and canonical kernel vector of the rows, or None when
    there is no kernel; basis is the rows' reduced basis mod _PRIME, which
    has a kernel.

    Mod p the kernel vector of the non-pivot column f is 1 at f, 0 at the
    other non-pivot columns and -cols[f][b] at pivot b.  The primes with
    the best pivots (highest rank, then smallest sorted pivots) are
    combined by CRT; the others are unlucky.  A lifted vector must be
    positive at f, so the certified vectors are independent.
    """
    best = None
    for p in _primes():
        pivots, cols = basis or _basis_mod_p(rows, ncols, p)
        basis = None
        if len(pivots) == ncols:
            return ncols, None
        key = (-len(pivots), sorted(pivots))
        at = {q: b for b, q in enumerate(pivots)}  # pivot column -> basis row
        vecs = [[-col[at[c]] % p if c in at else int(c == f) for c in range(ncols)]
                for f, col in cols.items()]
        if best is None or key < best:
            best, free, m, acc = key, list(cols), p, vecs
        elif key == best:  # CRT: x = a mod m and x = b mod p
            t = pow(m, -1, p)
            acc = [[a + m * ((b - a) * t % p) for a, b in zip(u, v)]
                   for u, v in zip(acc, vecs)]
            m *= p
        else:
            continue
        lifted = [_rational_lift(u, m) for u in acc]
        if all(w and w[f] > 0 and not any(sum(map(mul, row, w)) for row in rows)
               for f, w in zip(free, lifted)):
            g = gcd(*lifted[0])
            return ncols - len(lifted), [y // g for y in lifted[0]]


def _check_budget(
    fit: Sequence[AlphaPoly], start: int, r: int, dn: int, da: int
) -> tuple[list[int], list[int]]:
    """Degrees of the fitted values and top degree of each window; ValueError
    when _fit_rows(fit, start, r, dn, da) would exceed MAX_SYSTEM_BITS with
    its rows and the tuples it builds them from."""
    degrees = [v.degree for v in fit]
    tops = [max(degrees[t : t + r + 1]) for t in range(len(fit) - r)]
    unknowns = (r + 1) * (dn + 1) * (da + 1)
    equations = sum(d + da + 1 for d in tops if d >= 0)
    # a coefficient c of fit[t + j] enters da + 1 rows of window t, times n^p
    # for each p <= dn, and n^p * c has at most p*bitlen(n) + bitlen(c) bits
    cbits = [sum(c.bit_length() for c in v.coeffs) for v in fit]
    tri = dn * (dn + 1) // 2
    bits = 64 * equations * unknowns + (da + 1) * sum(
        (degrees[u] + 1) * tri * (start + t).bit_length() + (dn + 1) * cbits[u]
        for t, d in enumerate(tops) if d >= 0 for u in range(t, t + r + 1))
    # the values padded to one width, and the largest window's npows and
    # blocks: a slot per entry and a header per tuple
    width = max(degrees, default=-1) + 2 * da + 1
    tuples = len(fit) + (r + 1) * (dn + 1)
    bits += 64 * (dn + tuples * width) + 8 * getsizeof(()) * tuples
    if bits > MAX_SYSTEM_BITS:
        raise ValueError(
            f"guess system too large: {equations} equations x {unknowns} "
            f"unknowns at order {r} need about {bits} bits, over the budget "
            f"of {MAX_SYSTEM_BITS}"
        )
    return degrees, tops


def _fit_rows(
    fit: Sequence[AlphaPoly], start: int, r: int, dn: int, da: int
) -> tuple[list[list[int]], list[int], list[int]]:
    """Equation rows of candidate (r, dn, da) over the fitting segment, where
    each window's rows end in that list (windows without rows are left out),
    and counts[q], the number of rows of (r, e, q) for every e <= dn.

    Window t (n = start + t) and power a^s give the row whose entry for the
    monomial n^p a^q of c_j is n^p times the a^(s-q) coefficient of
    fit[t + j].  Raises ValueError, before building anything, when the
    rows would exceed MAX_SYSTEM_BITS.
    """
    degrees, tops = _check_budget(fit, start, r, dn, da)
    # rev[t][top + da - s + q] is the a^(s-q) coefficient of fit[t], 0 outside
    top = max(degrees, default=-1)
    rev = [(0,) * (top + da - v.degree) + v.coeffs[::-1] + (0,) * da for v in fit]
    rows: list[list[int]] = []
    ends: list[int] = []
    first = [0] * (da + 1)  # first[q]: rows whose lowest nonzero a-power is q
    for t, max_deg in enumerate(tops):
        if max_deg < 0:
            continue  # all-zero window constrains nothing
        n = start + t
        window = rev[t : t + r + 1]
        npows = [n**p for p in range(1, dn + 1)]
        # each fitted value of the window times n^p, in column order
        blocks = [x for v in window
                  for x in (v, *(tuple(npow * c for c in v) for npow in npows))]
        for u in range(top + da, top - max_deg - 1, -1):  # u = top + da - s
            q = next((q for q in range(da + 1) if any(v[u + q] for v in window)), None)
            if q is None:
                continue
            first[q] += 1
            w = u + da + 1
            row: list[int] = []
            for blk in blocks:
                row += blk[u:w]
            rows.append(row)
        ends.append(len(rows))
    return rows, ends, list(accumulate(first))


def _columns(r: int, dn: int, da: int, max_dn: int, max_da: int) -> list[int]:
    """The columns of (r, max_dn, max_da) that candidate (r, dn, da) keeps:
    those of n-power <= dn and a-power <= da, in its own column order."""
    return [(j * (max_dn + 1) + p) * (max_da + 1) + q
            for j in range(r + 1) for p in range(dn + 1) for q in range(da + 1)]


def _column_subset(
    rows: Iterable[Sequence[int]], cols: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """The rows of candidate (r, dn, da), cut one at a time from those of
    (r, max_dn, max_da) at its columns _columns(r, dn, da, max_dn, max_da):
    the nonzero ones, which are _fit_rows(fit, start, r, dn, da) in order."""
    return filter(any, map(itemgetter(*cols), rows))


def _operator_from_vector(
    vec: list[int], dn: int, da: int, start: int
) -> RecurrenceOperator | None:
    """The operator whose c_j(n, a) has the coefficient of n^p a^q at
    vec[(j * (dn + 1) + p) * (da + 1) + q], or None below order 1."""
    monomials = list(product(range(dn + 1), range(da + 1)))
    w = len(monomials)
    coeffs = [tuple((p, q, x) for (p, q), x in zip(monomials, vec[u : u + w]) if x)
              for u in range(0, len(vec), w)]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if len(coeffs) < 2:
        return None
    return RecurrenceOperator(tuple(coeffs), valid_from=start)


def guess_operator(seq: PolySequence, spec: GuessSpec) -> GuessResult:
    """Smallest verified operator within the spec bounds.

    Candidates are tried by increasing order, then deg_n, then deg_a; the
    first operator that annihilates the whole sequence (holdout included)
    wins.  Each order's rows are built once and, if the order has an
    admissible candidate, screened mod _PRIME once; each candidate's screen
    starts from that basis, cut to its columns, and runs to its verdict.
    Raises NotFound when every admissible candidate fails, InsufficientTerms
    when no candidate even has enough equations, and ValueError when an
    order reached by the search exceeds MAX_SYSTEM_BITS.
    """
    if len(seq.values) < 2 + spec.holdout:
        raise InsufficientTerms(
            f"{len(seq.values)} terms cannot support any search with "
            f"holdout {spec.holdout}"
        )
    max_dn, max_da = spec.max_deg_n, spec.max_deg_a
    fit = seq.values[: len(seq.values) - spec.holdout]
    any_admissible = False
    # an order needs a window of r + 1 fitted terms, and zero values give no rows
    last = min(spec.max_order, len(fit) - 1) if any(v.coeffs for v in fit) else 0
    for r in range(1, last + 1):
        order_rows, ends, counts = _fit_rows(fit, seq.start, r, max_dn, max_da)
        ncols = (r + 1) * (max_dn + 1) * (max_da + 1)
        screen = None
        # no candidate has more rows than counts[-1], nor fewer unknowns than
        # a smaller shape, so the shapes past that are never admissible
        for dn in range(min(max_dn + 1, counts[-1] // (r + 1))):
            for da in range(min(max_da + 1, counts[-1] // ((r + 1) * (dn + 1)))):
                unknowns = (r + 1) * (dn + 1) * (da + 1)
                if counts[da] < unknowns:
                    continue
                any_admissible = True
                if screen is None:
                    done, order_basis = screen = _order_screen(order_rows, ends, ncols)
                cols = _columns(r, dn, da, max_dn, max_da)
                basis = _restrict(order_basis, cols,
                                  _column_subset(order_rows[done:], cols))
                res = None
                if len(basis[0]) == unknowns:
                    outcome = "rejected mod p"
                else:
                    rows = list(_column_subset(order_rows, cols))
                    rank, vec = _solve(rows, unknowns, basis)
                    op = vec and _operator_from_vector(vec, dn, da, seq.start)
                    if vec is None:
                        outcome = "no exact kernel"
                    elif op is None:
                        outcome = "kernel gives no recurrence"
                    elif not verify_operator(op, seq):
                        outcome = "verify failed"
                    else:
                        outcome = "accepted"
                        res = GuessResult(op, (r, dn, da), unknowns - rank,
                                          len(rows), unknowns)
                _log.debug("candidate (%d, %d, %d): %d x %d, %s",
                           r, dn, da, counts[da], unknowns, outcome)
                if res is not None:
                    return res
    if any_admissible:
        raise NotFound("no operator within the given bounds fits the data")
    raise InsufficientTerms("not enough terms for any candidate within the bounds")
