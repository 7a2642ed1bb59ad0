"""Empirical discovery of annihilating operators from sequence data.

Candidate shapes (order, deg_n, deg_a) are searched smallest first.  For
each candidate the unknowns are the monomial coefficients of the c_j; every
window position n contributes one homogeneous equation per power of a in
the residual c_0(n,a) F(n) + ... + c_r(n,a) F(n+r).  A nonzero kernel
vector of that system, normalized, is accepted only if the resulting
operator annihilates the entire input sequence, including a trailing
holdout that never enters the linear system.  Overdetermination plus the
holdout is the defense against fitting coincidences.

Every candidate of one order reads one set of rows, built at the largest
degrees, and a column has one number, its index in those rows: a
candidate's rows are the order's rows read at its columns, those whose
powers of n and a fit, and the rows it would not have are exactly those
that are zero there, which raise no pivot.  No row is copied or cut.  Since
n^p only scales an entry, a row is nonzero at a candidate's columns
exactly when one of its n^0 a^q columns with q <= deg_a is nonzero, so one
mask of nonzero entries per fitted value counts the rows per deg_a before
any is built.  Windows are the unit of work: a window's rows are built
when the search first reads them, which is often never, and kept.

Most candidates have no kernel, and a screen modulo a fixed prime p below
2^24 shows it.  Pivot entries are reduced mod p, so every dot product the
system budget admits stays below 2^63, and CPython's sum() keeps it in a
machine word.  A candidate is rejected mod p exactly when its rows have
full column rank mod p.

Each order is first screened at one point, a = a0 = _A0, a literal far from
the small integers where F_k(n) vanishes.  Every fitted value is evaluated
at a0 mod p once per guess, and window t (n = start + t) gives one row,
whose entry at column e * (r + 1) + j is n^e F(n+j)(a0) mod p, so the
(r + 1)(dn + 1) unknowns of (r, dn) are a prefix of the columns, where the
shape (r, dn, da) has (r + 1)(dn + 1)(da + 1).  Every candidate (r, dn, da)
whose prefix has full column rank is rejected mod p without reading a row.
This is sound.  Take a nonzero kernel vector of the rows of (r, dn, da) mod
p: it gives polynomials c_{j,e}(a) over F_p of degree at most da, and the
residual sum_j sum_e n^e c_{j,e}(a) F(n+j) is 0 in F_p[a] at every window.
Divide them by their gcd in F_p[a].  F_p[a] has no zero divisors, so the
residual stays 0; the degrees are no larger, so this is again a kernel
vector of (r, dn, da); and the gcd is now 1, so not every c_{j,e} vanishes
at a0.  Their values at a0 are then a nonzero kernel vector of the
one-point system.  So full column rank at a0 leaves no kernel mod p at any
da, and the bivariate screen at the same prime would reject every such
candidate: the verdicts, the operator found and the DEBUG lines are those
of the search without the point screen.  A point where the data vanish
only rejects less.

The other candidates are screened on their rows, in slabs (r, s,
max_deg_a), which are shapes too: a slab is screened when the search first
reaches a deg_n past the slab before it, and its width s + 1 is the
smallest of 1, 2, 4, ..., max_deg_n + 1 past that deg_n, so a search that
ends early never pays for the columns of shapes it does not reach, and one
that reaches the largest shape pays about a seventh more, elimination
costing about the cube of the columns.  One slab per order made the K=1
guess of 35 fitted terms about twice as slow.
A slab's rows are reduced at its columns, window by window, until the rank
over F_p is full or a window raises no pivot.  The basis is kept in
reduced echelon form and stored by non-pivot column, keyed by the order's
column numbers, so a row's residual is one dot product per non-pivot
column.  Each candidate restricts the basis of the slab that holds it to
its columns: basis rows whose pivots it keeps stay, and the others, zero
at every kept pivot, are their own residuals and extend it, which gives
the basis of its rows on the screen's prefix.  Its screen then goes on
over the windows past the prefix by the same rule, and it is rejected if
the rank is full.  Reduced echelon form is unique, so where the slab's
screen stopped changes no verdict.  The screen is sound: any nonzero minor
mod p is a nonzero integer minor, so the rank over Q is at least the rank
over F_p, and full column rank mod p leaves no rational kernel.

A candidate whose screen stops short of full rank has its kernel read off
the screen's basis, one vector per non-pivot column, and lifted to the
integers by rational reconstruction.  Each lifted vector is certified by
its exact residual sum_j c_j(n, a) F(n+j), which must be 0 at every window
of the fitted values: the same as a zero dot product with each of its
rows, at less cost.  Since the rank over Q is at least the rank mod p, d
certified vectors, each 1 at its own non-pivot column and 0 at the others,
show that the rational kernel has dimension d, so the rows past the stop,
never read, leave the rank and the reduced basis as they are.  Each vector
is zero past its column, so the rational pivots are the same and the
vector at the first non-pivot column is the canonical one.  Only if the
certificate fails is the screen finished over the remaining windows: full
rank rejects the candidate, a raised rank is lifted afresh, and then
further primes, each screening every row, are combined by CRT until the
lift is certified; a prime of full rank shows there is no kernel.  No
candidate with a kernel is dropped, so the operator found is the same.  It
is then verified only on the windows from n = start + len(fit) - r on,
which the certificate did not cover.  Every step works on integers.

An order whose rows would exceed MAX_SYSTEM_BITS, counting each entry's
slot and bit length, is refused with ValueError before they are built, and
before its one-point screen.  F_3 at bounds (4, 6, 8) is found from 25 terms
in about 1.75 s in process (2-core Linux VM, Python 3.11.7).

Each candidate is logged at DEBUG on the ``multiderange.guesser`` logger
with its shape, its equations x unknowns and its outcome.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import accumulate, chain, islice, product
from math import gcd, isqrt
from operator import mul, or_
from sys import getsizeof

from .polys import AlphaPoly, PolySequence, _check_index
from .recurrence import Coeff, RecurrenceOperator, _apply, verify_operator

_log = logging.getLogger(__name__)

# Modulus of the rank filter, below 2^24 so that every product of two
# residues, and every dot product the budget admits, fits a machine word.
_PRIME = (1 << 24) - 3

# The point a = _A0 of the one-point screen, far from the small integers and
# small fractions mod _PRIME where F_k(n) vanishes.
_A0 = 3_141_593

# Largest size of one order's rows in bits, a 64-bit slot plus the bit length
# per entry.  F_3 at bounds (4, 7, 7) on 55 fitted terms needs 0.40 G, and
# F_4 at (5, 10, 14) on 41 fitted terms 0.82 G (rows of 50 and 102 MB).
MAX_SYSTEM_BITS = 2_000_000_000

# A reduced echelon basis mod p, (pivots, cols), as _basis_mod_p returns it,
# keyed by the columns of the order's rows.
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
        for name in ("max_order", "max_deg_n", "max_deg_a", "holdout"):
            _check_index(getattr(self, name), name)
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
    rows: Iterable[Sequence[int] | dict[int, int]], p: int, basis: _Basis
) -> _Basis:
    """The reduced echelon basis mod p of basis's rows and the rows, by
    extending basis in place; ([], {f: [] for f in cols}) is the basis of
    no rows at the increasing order columns cols.

    A basis reads each row at its own columns only, row[f] and row[q], so
    an order's window rows serve every shape of the order uncut: a row that
    is zero at a basis's columns raises no pivot.  Rows are taken in order,
    stopping at full rank, when no non-pivot column is left.  A row that
    raises the rank pivots at its lowest column with a nonzero residual, so
    the sorted pivots are the greedy column basis.  cols[f][b] is the entry
    of basis row b at the non-pivot column f; its pivot entry is 1 and its
    other pivot entries are 0, so a row's residual at f is row[f] minus one
    dot product of the row's pivot entries with cols[f].  That residual and
    the update of the basis add terms negated mod p rather than subtract,
    since % p is faster on nonnegative ints.
    """
    pivots, cols = basis
    for row in rows if cols else ():  # no row is read at full rank
        g = [-row[q] % p for q in pivots]
        res = [(f, x) for f, col in cols.items()
               if (x := (row[f] + sum(map(mul, g, col))) % p)]
        if not res:
            continue
        c, x = res[0]
        inv = pow(x, -1, p)
        new = {f: y * inv % p for f, y in res}  # the new basis row, 1 at c
        at_c = cols.pop(c)
        for f, col in cols.items():
            z = new.get(f, 0)
            if z:  # clear column c from the old basis rows
                w = p - z
                col[:] = [(a + b * w) % p for a, b in zip(col, at_c)]
            col.append(z)
        pivots.append(c)
        if not cols:
            break
    return basis


def _screen(
    window: Callable[[int], list[list[int]]], windows: int, basis: _Basis, lo: int = 0
) -> tuple[int, _Basis]:
    """The window index where a screen mod _PRIME of the windows from lo on
    stops, and basis, extended in place by their rows.

    The screen stops after the first window that raises no pivot, or at
    full rank; no window is read at full rank.  The window rows are read
    uncut, at basis's columns, those of a slab or of a candidate.
    """
    while lo < windows and basis[1]:
        rank = len(basis[0])
        _basis_mod_p(window(lo), _PRIME, basis)
        lo += 1
        if len(basis[0]) == rank:
            break
    return lo, basis


def _restrict(basis: _Basis, cols: Sequence[int]) -> _Basis:
    """The basis mod _PRIME of the same rows at the columns cols, a subset
    of basis's columns, as a new basis keyed by the same order columns.

    A basis row whose pivot is in cols stays, without its entries at the
    other columns.  One whose pivot is dropped is 0 at every kept pivot, so
    its entries at cols are already its residual, and it extends the basis.
    Reduced echelon form is unique.
    """
    pivots, free = basis
    kept = set(cols)
    stay = [b for b, q in enumerate(pivots) if q in kept]
    out = ([pivots[b] for b in stay],
           {f: [col[b] for b in stay] for f, col in free.items() if f in kept})
    residuals = ({c: free[c][b] if c in free else 0 for c in cols}
                 for b, q in enumerate(pivots) if q not in kept)
    return _basis_mod_p(residuals, _PRIME, out)


def _point_screen(at: Sequence[int], start: int, r: int, dns: int) -> int:
    """The number of n-degrees dn < dns whose one-point system (r, dn) has
    full column rank mod _PRIME, so that every shape (r, dn, da) is rejected.

    at[t] is fit[t] at _A0 mod _PRIME.  Window t gives one row, whose entry
    at column e * (r + 1) + j is n^e at[t + j] with n = start + t, so the
    columns of (r, dn) are the first (r + 1)(dn + 1).  The sorted pivots
    are the greedy column basis, so a prefix has full rank exactly when it
    holds no non-pivot column.
    """
    p, ncols = _PRIME, (r + 1) * dns
    rows = ([x * y % p for x in [pow(start + t, e, p) for e in range(dns)]
             for y in at[t : t + r + 1]] for t in range(len(at) - r))
    _, free = _basis_mod_p(rows, p, ([], {f: [] for f in range(ncols)}))
    return next(iter(free), ncols) // (r + 1)


def _primes() -> Iterator[int]:
    """_PRIME, then the odd primes below 2**24 - 3 in descending order."""
    yield _PRIME
    for n in range((1 << 24) - 5, 2, -2):
        if all(n % d for d in range(3, isqrt(n) + 1, 2)):
            yield n


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
    bases: Iterable[tuple[int, _Basis]], annihilates: Callable[[list[int]], bool]
) -> tuple[int, list[int] | None] | None:
    """Rank over Q and canonical kernel vector of a system, or None for the
    vector when there is no kernel; None when its rank mod _PRIME is full.

    bases yields (p, basis), a reduced basis mod p of the system's rows,
    _PRIME first, and annihilates(w) tells whether the integer vector w
    solves the system exactly.  A vector has one entry per column of the
    bases, in increasing order: the order's numbering keeps the order of a
    candidate's own, so it is the candidate's vector.  Mod p the kernel
    vector of the non-pivot column f is 1 at f, 0 at the other non-pivot
    columns and -cols[f][b] at pivot b.  The primes with the best pivots
    (highest rank, then smallest sorted pivots) are combined by CRT; the
    others are unlucky.  A lifted vector must be positive at f, so the
    certified vectors are independent.  A later prime of full rank shows
    that there is no kernel.
    """
    best = None
    for p, (pivots, cols) in bases:
        if not cols:
            return None if p == _PRIME else (len(pivots), None)
        key = (-len(pivots), sorted(pivots))
        columns = sorted([*pivots, *cols])
        at = {q: b for b, q in enumerate(pivots)}  # pivot column -> basis row
        vecs = [[-col[at[c]] % p if c in at else int(c == f) for c in columns]
                for f, col in cols.items()]
        if best is None or key < best:
            # where each non-pivot column is in a vector; cols is increasing
            free = [i for i, c in enumerate(columns) if c in cols]
            best, m, acc = key, p, vecs
        elif key == best:  # CRT: x = a mod m and x = b mod p
            t = pow(m, -1, p)
            acc = [[a + m * ((b - a) * t % p) for a, b in zip(u, v)]
                   for u, v in zip(acc, vecs)]
            m *= p
        else:
            continue
        lifted = [_rational_lift(u, m) for u in acc]
        if all(w and w[i] > 0 and annihilates(w) for i, w in zip(free, lifted)):
            g = gcd(*lifted[0])
            return len(pivots), [y // g for y in lifted[0]]
    return None


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
) -> tuple[Callable[[int], list[list[int]]], int, list[int]]:
    """Equation rows of candidate (r, dn, da) over the fitting segment as
    window(i), the rows of window i of the windows that have rows, with
    their number, and counts[q], the number of rows of (r, e, q) for every
    e <= dn.

    Window t (n = start + t) and power a^s give the row whose entry for the
    monomial n^p a^q of c_j is n^p times the a^(s-q) coefficient of
    fit[t + j].  Raises ValueError, before building anything, when the
    rows would exceed MAX_SYSTEM_BITS.  A window's rows are built on its
    first call and kept.
    """
    degrees, tops = _check_budget(fit, start, r, dn, da)
    # rev[t][top + da - s + q] is the a^(s-q) coefficient of fit[t], 0 outside
    top = max(degrees, default=-1)
    rev = [(0,) * (top + da - v.degree) + v.coeffs[::-1] + (0,) * da for v in fit]
    # byte i of nonzero[t] is 1 when rev[t][i] is nonzero, 0 when it is 0
    nonzero = [int.from_bytes(bytes(map(bool, v)), "little") for v in rev]
    plan: list[tuple[int, list[int]]] = []  # each window's t and its rows' u
    first = [0] * (da + 1)  # first[q]: rows whose lowest nonzero a-power is q
    for t, max_deg in enumerate(tops):
        if max_deg < 0:
            continue  # all-zero window constrains nothing
        seen = reduce(or_, nonzero[t : t + r + 1]).to_bytes(len(rev[t]), "little")
        us = []
        for u in range(top + da, top - max_deg - 1, -1):  # u = top + da - s
            q = seen.find(1, u, u + da + 1) - u  # the row's lowest nonzero a-power
            if q >= 0:
                first[q] += 1
                us.append(u)
        plan.append((t, us))

    @cache
    def window(i: int) -> list[list[int]]:
        t, us = plan[i]
        n = start + t
        npows = [n**p for p in range(1, dn + 1)]
        # each fitted value of the window times n^p, in column order
        blocks = [x for v in rev[t : t + r + 1]
                  for x in (v, *(tuple(npow * c for c in v) for npow in npows))]
        rows = []
        for u in us:
            w = u + da + 1
            row: list[int] = []
            for blk in blocks:
                row += blk[u:w]
            rows.append(row)
        return rows

    return window, len(plan), list(accumulate(first))


def _columns(r: int, dn: int, da: int, max_dn: int, max_da: int) -> list[int]:
    """The columns of the order (r, max_dn, max_da) that the shape (r, dn,
    da), a slab or a candidate, keeps: those of n-power <= dn and a-power
    <= da, increasing."""
    return [(j * (max_dn + 1) + p) * (max_da + 1) + q
            for j in range(r + 1) for p in range(dn + 1) for q in range(da + 1)]


def _coeffs(vec: Sequence[int], dn: int, da: int) -> list[Coeff]:
    """c_0, ..., c_r as sorted triples, where the coefficient of n^p a^q in
    c_j is vec[(j * (dn + 1) + p) * (da + 1) + q]."""
    monomials = list(product(range(dn + 1), range(da + 1)))
    w = len(monomials)
    return [tuple((p, q, x) for (p, q), x in zip(monomials, vec[u : u + w]) if x)
            for u in range(0, len(vec), w)]


def _annihilates(
    fit: Sequence[AlphaPoly], start: int, dn: int, da: int, vec: list[int]
) -> bool:
    """True when the residual sum_j c_j(n, a) F(n + j) of the coefficients
    c_0, ..., c_r = _coeffs(vec, dn, da) is 0 at every window of the fitted
    values: exactly when vec solves the rows of _fit_rows(fit, start, r, dn,
    da), whose entries are that residual's coefficients in a."""
    coeffs = _coeffs(vec, dn, da)
    terms = len(coeffs)
    return not any(any(_apply(coeffs, start + t, fit, t, terms))
                   for t in range(len(fit) - terms + 1))


def _kernel(
    window: Callable[[int], list[list[int]]], windows: int,
    screen: tuple[int, _Basis], cols: Sequence[int],
    annihilates: Callable[[list[int]], bool],
) -> tuple[int, list[int] | None] | None:
    """What _solve gives for the order's rows at the columns cols.

    screen is a slab's (stop, basis), restricted to cols, from which the
    candidate's screen goes on over the uncut window rows.  _solve lifts
    the basis at its stop; only if that lift is not certified is the screen
    finished over the remaining windows, the basis lifted again if that
    raised its rank, and every row screened at each later prime.
    """
    done, basis = screen
    stop, basis = _screen(window, windows, _restrict(basis, cols), done)

    def rows(lo: int) -> Iterator[list[int]]:
        return chain.from_iterable(map(window, range(lo, windows)))

    def bases() -> Iterator[tuple[int, _Basis]]:
        rank = len(basis[0])
        yield _PRIME, basis
        _basis_mod_p(rows(stop), _PRIME, basis)
        if len(basis[0]) > rank:
            yield _PRIME, basis
        for p in islice(_primes(), 1, None):
            yield p, _basis_mod_p(rows(0), p, ([], {f: [] for f in cols}))

    return _solve(bases(), annihilates)


def _held_out(seq: PolySequence, first: int) -> PolySequence:
    """The values of seq from index first on, which hold the windows from
    n = seq.start + first; all of seq when that n has more than 640 digits."""
    try:
        return PolySequence(seq.start + first, seq.values[first:], seq.k)
    except ValueError:  # past the index rule: every window is checked again
        return seq


def _operator_from_vector(
    vec: list[int], dn: int, da: int, start: int
) -> RecurrenceOperator | None:
    """The operator whose c_j(n, a) has the coefficient of n^p a^q at
    vec[(j * (dn + 1) + p) * (da + 1) + q], or None below order 1."""
    coeffs = _coeffs(vec, dn, da)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if len(coeffs) < 2:
        return None
    return RecurrenceOperator(tuple(coeffs), valid_from=start)


def guess_operator(seq: PolySequence, spec: GuessSpec) -> GuessResult:
    """Smallest verified operator within the spec bounds.

    Candidates are tried by increasing order, then deg_n, then deg_a; the
    first operator that annihilates the whole sequence (holdout included)
    wins.  Each order's windows are built once, as far as they are read.
    A candidate whose deg_n _point_screen rejects reads no row.  The first
    other admissible candidate past the order's current slab opens the slab
    (r, s, max_deg_a) whose width s + 1 is the smallest of 1, 2, 4, ... up to
    max_deg_n + 1 past its deg_n.  Each slab is screened mod _PRIME once; a
    candidate's screen starts from its slab's basis, restricted to its
    columns, and _kernel takes it to its verdict.
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
    at = [reduce(lambda x, c: (x * _A0 + c) % _PRIME, reversed(v.coeffs), 0)
          for v in fit]
    for r in range(1, last + 1):
        window, windows, counts = _fit_rows(fit, seq.start, r, max_dn, max_da)
        # no candidate has more rows than counts[-1], nor fewer unknowns than
        # a smaller shape, so the shapes past that are never admissible
        dns = min(max_dn + 1, counts[-1] // (r + 1))
        rejected = _point_screen(at, seq.start, r, dns)
        width = 0  # the current slab (r, width - 1, max_da); none yet
        for dn in range(dns):
            for da in range(min(max_da + 1, counts[-1] // ((r + 1) * (dn + 1)))):
                unknowns = (r + 1) * (dn + 1) * (da + 1)
                if counts[da] < unknowns:
                    continue
                any_admissible = True
                found = None  # rejected at a = _A0, which rejects every da
                if dn >= rejected:
                    if dn >= width:  # the smallest doubling width past dn
                        width = min(1 << dn.bit_length(), max_dn + 1)
                        slab = _columns(r, width - 1, max_da, max_dn, max_da)
                        screen = _screen(window, windows, ([], {f: [] for f in slab}))
                    found = _kernel(window, windows, screen,
                                    _columns(r, dn, da, max_dn, max_da),
                                    partial(_annihilates, fit, seq.start, dn, da))
                res = None
                if found is None:
                    outcome = "rejected mod p"
                else:
                    rank, vec = found
                    op = vec and _operator_from_vector(vec, dn, da, seq.start)
                    if vec is None:
                        outcome = "no exact kernel"
                    elif op is None:
                        outcome = "kernel gives no recurrence"
                    # the kernel is certified on every window of the fitted
                    # values, so only the windows from len(fit) - r on remain
                    elif not verify_operator(op, _held_out(seq, len(fit) - r)):
                        outcome = "verify failed"
                    else:
                        outcome = "accepted"
                        res = GuessResult(op, (r, dn, da), unknowns - rank,
                                          counts[da], unknowns)
                _log.debug("candidate (%d, %d, %d): %d x %d, %s",
                           r, dn, da, counts[da], unknowns, outcome)
                if res is not None:
                    return res
    if any_admissible:
        raise NotFound("no operator within the given bounds fits the data")
    raise InsufficientTerms("not enough terms for any candidate within the bounds")
