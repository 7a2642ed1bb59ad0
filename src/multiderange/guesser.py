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
fixed word-size prime p: its rows are reduced into F_p and eliminated
there, in order, noting each row that raises the rank and stopping as soon
as the rank reaches the number of unknowns, which usually takes little
more than that many rows.  The filter is sound: any nonzero minor mod p is
a nonzero integer minor, so the rank over Q is at least the rank over F_p,
and a matrix of full column rank mod p has no rational kernel.  It can
only let a kernel-free candidate through (when p divides the relevant
minors), never drop one that has a kernel, so the operator found is the
same as without it.

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

Each candidate is logged at DEBUG on the ``multiderange.guesser`` logger
with its shape, its equations x unknowns and its outcome.
"""

from __future__ import annotations

import logging
from bisect import insort
from dataclasses import dataclass
from math import gcd
from operator import itemgetter
from typing import Sequence

from .polys import BivarPoly
from .recurrence import PolySequence, RecurrenceOperator, verify_operator

_log = logging.getLogger(__name__)

# Modulus of the rank filter; a Mersenne prime, so unlucky minors are rare.
_PRIME = (1 << 61) - 1


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

    Rows are reduced against an echelon basis whose pivots are normalized
    to 1; it stops as soon as the rank is ncols.  A result of length ncols
    means the rows certainly have no nonzero rational kernel vector.
    """
    p = _PRIME
    basis: list[tuple[int, list[int]]] = []  # (pivot column, row from it on)
    picked: list[int] = []
    for i, row in enumerate(rows):
        v = [x % p for x in row]
        for col, tail in basis:
            c = v[col] % p
            if c:
                # entries may leave [0, p) here; reduced once per row below
                v[col:] = [a - c * b for a, b in zip(v[col:], tail)]
        v = [x % p for x in v]
        lead = next((c for c, x in enumerate(v) if x), -1)
        if lead < 0:
            continue
        inv = pow(v[lead], -1, p)
        insort(basis, (lead, [x * inv % p for x in v[lead:]]))
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
    seq: PolySequence, r: int, dn: int, da: int, holdout: int
) -> list[list[int]] | None:
    """Equation rows over the fitting segment (holdout excluded)."""
    fit = seq.values[: len(seq.values) - holdout]
    positions = len(fit) - r
    if positions < 1:
        return None
    unknowns = (r + 1) * (dn + 1) * (da + 1)
    rows: list[list[int]] = []
    for t in range(positions):
        n = seq.start + t
        window = fit[t : t + r + 1]
        max_deg = max(v.degree for v in window)
        if max_deg < 0:
            continue  # all-zero window constrains nothing
        npows = [n**p for p in range(dn + 1)]
        for s in range(max_deg + da + 1):
            row = [0] * unknowns
            nonzero = False
            u = 0
            for j in range(r + 1):
                vj = window[j]
                for p in range(dn + 1):
                    npow = npows[p]
                    for q in range(da + 1):
                        c = vj.coeff(s - q) if 0 <= s - q else 0
                        if c:
                            row[u] = npow * c
                            nonzero = True
                        u += 1
            if nonzero:
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
    wins.  Raises NotFound when every admissible candidate fails, and
    InsufficientTerms when no candidate even has enough equations.
    """
    if len(seq.values) < 2 + spec.holdout:
        raise InsufficientTerms(
            f"{len(seq.values)} terms cannot support any search with "
            f"holdout {spec.holdout}"
        )
    max_dn, max_da = spec.max_deg_n, spec.max_deg_a
    any_admissible = False
    for r in range(1, spec.max_order + 1):
        order_rows = _fit_rows(seq, r, max_dn, max_da, spec.holdout)
        if order_rows is None:
            continue
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
