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
those that become zero.

Most candidates have no kernel, so each one is first screened modulo a
fixed word-size prime p: its rows are taken in order, noting each row that
raises the rank over F_p and stopping as soon as the rank reaches the
number of unknowns, which usually takes little more than that many rows.
The basis is kept in reduced echelon form and stored by non-pivot column,
so a row's residual is one dot product per non-pivot column; a candidate
that has a kernel reduces its many dependent rows at that cost.  The
filter is sound: any nonzero minor mod p is a nonzero integer minor, so the
rank over Q is at least the rank over F_p, and a matrix of full column rank
mod p has no rational kernel.  It can only let a kernel-free candidate
through (when p divides the relevant minors), never drop one that has a
kernel, so the operator found is the same as without it.

Candidates that pass are solved exactly on the rows that raised the rank
mod p alone, with fraction-free linear algebra: integer rows, pivoting by
smallest nonzero entry (bit length), cross-multiplication updates with the
integer content divided out of every updated row, and back-substitution
that scales the integer kernel vector instead of dividing.  Row scaling
cannot change the kernel, so this is exact.  The kernel of those rows
contains the candidate's kernel; when each of its basis vectors also
annihilates every other row, the two kernels are equal, and so are the
pivots, the kernel dimension and the canonical vector.  When one does not,
which takes p dividing a minor, all rows are eliminated instead.  Every
step works on integers; no rational number is ever formed.

An order whose largest system would exceed MAX_SYSTEM_ENTRIES equations x
unknowns is refused with ValueError before its rows are built.

Each candidate is logged at DEBUG on the ``multiderange.guesser`` logger
with its shape, its equations x unknowns and its outcome.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import gcd
from operator import itemgetter, mul
from typing import Sequence

from .polys import AlphaPoly, BivarPoly
from .recurrence import PolySequence, RecurrenceOperator, verify_operator

_log = logging.getLogger(__name__)

# Modulus of the rank filter; a Mersenne prime, so unlucky minors are rare.
_PRIME = (1 << 61) - 1

# Largest equations x unknowns of one order's system.  The F_3 search at
# bounds (4, 7, 7) on 60 terms needs about 2 690 x 320, and its rows of
# up to 1016-bit entries hold about 64 MB.
MAX_SYSTEM_ENTRIES = 2_000_000


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


def _echelon(
    rows: Sequence[Sequence[int]],
) -> tuple[list[Sequence[int]], list[int]]:
    """Integer row echelon form (rows independently rescaled)."""
    work = [r for r in rows if any(r)]
    if not work:
        return [], []
    ncols = len(work[0])
    echelon: list[Sequence[int]] = []
    pivots: list[int] = []
    for col in range(ncols):
        best = -1
        best_bits = 0
        for idx, row in enumerate(work):
            e = row[col]
            if e:
                bits = abs(e).bit_length()
                if best < 0 or bits < best_bits:
                    best, best_bits = idx, bits
        if best < 0:
            continue
        piv_row = work.pop(best)
        piv = piv_row[col]
        reduced = []
        for row in work:
            e = row[col]
            if e:
                upd = [piv * rj - e * pj for rj, pj in zip(row, piv_row)]
                g = 0
                for v in upd:
                    g = gcd(g, v)
                if g > 1:
                    upd = [v // g for v in upd]
                if any(upd):
                    reduced.append(upd)
            else:
                reduced.append(row)
        work = reduced
        echelon.append(piv_row)
        pivots.append(col)
        if not work:
            break
    return echelon, pivots


def _independent_rows_mod_p(rows: Sequence[Sequence[int]], ncols: int) -> list[int]:
    """Indices of the rows that raise the rank over F_p, taken in order.

    The basis is kept in reduced echelon form, stored by non-pivot column:
    cols[f][b] is the entry of basis row b at column f, its pivot entry is 1
    and its other pivot entries are 0.  A row's residual at f is therefore
    row[f] minus one dot product of the row's pivot entries with cols[f].
    It stops as soon as the rank is ncols.  A result of length ncols means
    the rows certainly have no nonzero rational kernel vector.
    """
    p = _PRIME
    pivots: list[int] = []
    cols: dict[int, list[int]] = {f: [] for f in range(ncols)}
    picked: list[int] = []
    for i, row in enumerate(rows):
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
        picked.append(i)
        if len(picked) == ncols:
            break
    return picked


def _free_columns(pivots: list[int], ncols: int) -> list[int]:
    pivot_set = set(pivots)
    return [c for c in range(ncols) if c not in pivot_set]


def _kernel_vector(
    echelon: list[Sequence[int]], pivots: list[int], ncols: int, free: int
) -> list[int]:
    """The integer kernel vector that is zero at every free column but
    ``free``, positive there, with its content divided out."""
    v = [0] * ncols
    v[free] = 1
    for row, p in zip(reversed(echelon), reversed(pivots)):
        s = 0
        for c in range(p + 1, ncols):
            if row[c] and v[c]:
                s += row[c] * v[c]
        # v[p] = -s / piv, made integral by scaling v by |piv| / gcd(s, piv)
        piv = row[p]
        g = gcd(s, piv)
        d = abs(piv) // g
        if d > 1:
            v = [x * d for x in v]
        v[p] = -(s // g) if piv > 0 else s // g
    g = 0
    for x in v:
        g = gcd(g, x)
    return [x // g for x in v] if g > 1 else v


def _solve(
    rows: Sequence[Sequence[int]], ncols: int
) -> tuple[list[int], list[int] | None] | None:
    """Pivots of the rows' echelon form and their canonical kernel vector
    (None when there is no kernel), or None when rejected mod p.

    The exact elimination runs on the rows found independent mod p; it is
    repeated on all rows only when that kernel fails to annihilate them.
    """
    picked = _independent_rows_mod_p(rows, ncols)
    if len(picked) == ncols:
        return None
    echelon, pivots = _echelon([rows[i] for i in picked])
    for f in _free_columns(pivots, ncols):
        v = _kernel_vector(echelon, pivots, ncols, f)
        terms = [(c, x) for c, x in enumerate(v) if x]
        if any(sum(row[c] * x for c, x in terms) for row in rows):
            echelon, pivots = _echelon(rows)  # p divides a minor of the picked rows
            break
    free = _free_columns(pivots, ncols)
    if not free:
        return pivots, None
    return pivots, _kernel_vector(echelon, pivots, ncols, free[0])


def _fit_rows(
    fit: Sequence[AlphaPoly], start: int, r: int, dn: int, da: int
) -> list[list[int]]:
    """Equation rows of candidate (r, dn, da) over the fitting segment.

    Window t (n = start + t) and power a^s give the row whose entry for the
    monomial n^p a^q of c_j is n^p times the a^(s-q) coefficient of
    fit[t + j].  Raises ValueError, before building anything, when rows x
    unknowns would exceed MAX_SYSTEM_ENTRIES.
    """
    degrees = [v.degree for v in fit]
    tops = [max(degrees[t : t + r + 1]) for t in range(len(fit) - r)]
    unknowns = (r + 1) * (dn + 1) * (da + 1)
    equations = sum(d + da + 1 for d in tops if d >= 0)
    if equations * unknowns > MAX_SYSTEM_ENTRIES:
        raise ValueError(
            f"guess system too large: {equations} equations x {unknowns} "
            f"unknowns at order {r} exceed the budget of {MAX_SYSTEM_ENTRIES} entries"
        )
    # padded[t][s + da - q] is the a^(s-q) coefficient of fit[t], 0 outside
    top = max(degrees, default=-1)
    padded = [(0,) * da + v.coeffs + (0,) * (top + da - v.degree) for v in fit]
    rows: list[list[int]] = []
    for t, max_deg in enumerate(tops):
        if max_deg < 0:
            continue  # all-zero window constrains nothing
        n = start + t
        npows = [n**p for p in range(1, dn + 1)]
        window = padded[t : t + r + 1]
        for s in range(max_deg + da + 1):
            segs = [v[s : s + da + 1][::-1] for v in window]
            if not any(map(any, segs)):
                continue
            row: list[int] = []
            for seg in segs:
                row += seg
                for npow in npows:
                    row += [npow * c for c in seg]
            rows.append(row)
    return rows


def _column_subset(
    rows: list[list[int]], r: int, dn: int, da: int, max_dn: int, max_da: int
) -> list[tuple[int, ...]]:
    """The rows of candidate (r, dn, da), cut from those of (r, max_dn, max_da).

    They are the rows of _fit_rows(seq, r, dn, da), in the same order: the
    smaller shape's row at (window, power of a) is the larger one at the
    columns with n-power <= dn and a-power <= da, and every larger row the
    smaller shape has no counterpart for is zero at those columns.
    """
    cols = [(j * (max_dn + 1) + p) * (max_da + 1) + q
            for j in range(r + 1) for p in range(dn + 1) for q in range(da + 1)]
    pick = itemgetter(*cols)
    return [sub for sub in map(pick, rows) if any(sub)]


def _operator_from_vector(
    vec: list[int], r: int, dn: int, da: int, start: int
) -> RecurrenceOperator | None:
    coeffs = []
    u = 0
    for _ in range(r + 1):
        terms = {}
        for p in range(dn + 1):
            for q in range(da + 1):
                if vec[u]:
                    terms[(p, q)] = vec[u]
                u += 1
        coeffs.append(BivarPoly(terms))
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if len(coeffs) < 2:
        return None
    return RecurrenceOperator(tuple(coeffs), valid_from=start)


def _try_candidate(
    seq: PolySequence, rows: Sequence[Sequence[int]], r: int, dn: int, da: int,
    unknowns: int,
) -> tuple[str, GuessResult | None]:
    """Outcome of one candidate shape, with the result when it verifies."""
    solved = _solve(rows, unknowns)
    if solved is None:
        return "rejected mod p", None
    pivots, vec = solved
    if vec is None:
        return "no exact kernel", None
    op = _operator_from_vector(vec, r, dn, da, seq.start)
    if op is None:
        return "kernel gives no recurrence", None
    if not verify_operator(op, seq):
        return "verify failed", None
    return "accepted", GuessResult(
        operator=op,
        candidate=(r, dn, da),
        kernel_dim=unknowns - len(pivots),
        equations=len(rows),
        unknowns=unknowns,
    )


def guess_operator(seq: PolySequence, spec: GuessSpec) -> GuessResult:
    """Smallest verified operator within the spec bounds.

    Candidates are tried by increasing order, then deg_n, then deg_a; the
    first operator that annihilates the whole sequence (holdout included)
    wins.  Raises NotFound when every admissible candidate fails,
    InsufficientTerms when no candidate even has enough equations, and
    ValueError when an order reached by the search exceeds
    MAX_SYSTEM_ENTRIES.
    """
    if len(seq.values) < 2 + spec.holdout:
        raise InsufficientTerms(
            f"{len(seq.values)} terms cannot support any search with "
            f"holdout {spec.holdout}"
        )
    max_dn, max_da = spec.max_deg_n, spec.max_deg_a
    fit = seq.values[: len(seq.values) - spec.holdout]
    any_admissible = False
    # an order needs a window of r + 1 fitted terms; higher ones have none
    for r in range(1, min(spec.max_order, len(fit) - 1) + 1):
        order_rows = _fit_rows(fit, seq.start, r, max_dn, max_da)
        for dn in range(max_dn + 1):
            for da in range(max_da + 1):
                unknowns = (r + 1) * (dn + 1) * (da + 1)
                rows = _column_subset(order_rows, r, dn, da, max_dn, max_da)
                if len(rows) < unknowns:
                    continue
                any_admissible = True
                outcome, res = _try_candidate(seq, rows, r, dn, da, unknowns)
                _log.debug("candidate (%d, %d, %d): %d x %d, %s",
                           r, dn, da, len(rows), unknowns, outcome)
                if res is not None:
                    return res
    if any_admissible:
        raise NotFound("no operator within the given bounds fits the data")
    raise InsufficientTerms("not enough terms for any candidate within the bounds")
