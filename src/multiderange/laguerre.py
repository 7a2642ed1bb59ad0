"""The Laguerre-moment reference the enumerator is tested against.

(-1)^K moment_functional(laguerre_product(shape)) is the enumerator of a
shape of total K; no command reaches it.  scaled_laguerre(k) is k! times
the generalized Laguerre polynomial with superscript a-1:

    sum_{i=0}^{k} (-1)^i C(k, i) (a+i)(a+i+1)...(a+k-1) x^i

The k! scaling keeps every x-coefficient an integer polynomial in a, and is
exactly the per-block factorial prefactor of the derangement enumerator, so
it cancels by construction downstream.

A polynomial in x over Z[a] is a tuple of int tuples: entry i holds the
a-coefficients, ascending, of x^i.  The form is canonical: no inner tuple
ends in a zero and the outer tuple does not end in an empty entry, so equal
polynomials compare equal.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Sequence

from .polys import AlphaPoly, add_product, times_a_plus

XAPoly = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None, typed=True)  # typed: True is not a cached 1
def scaled_laguerre(k: int) -> XAPoly:
    """k! * L_k with superscript a-1, in the tuple form.

    deg_x = k, the x^k coefficient is (-1)^k, and the constant term is the
    rising factorial a(a+1)...(a+k-1).
    """
    if type(k) is not int:  # bools are refused too
        raise TypeError("k must be an int")
    if k < 0:
        raise ValueError("k must be nonnegative")
    # tail = (a+i)(a+i+1)...(a+k-1), built down from the empty product
    tail = [1]
    coeffs: list[tuple[int, ...]] = [()] * (k + 1)
    for i in range(k, -1, -1):
        if i < k:
            tail = times_a_plus(tail, i)
        c = -comb(k, i) if i % 2 else comb(k, i)
        coeffs[i] = tuple(c * t for t in tail)
    return tuple(coeffs)


def _mul(p: XAPoly, q: XAPoly) -> XAPoly:
    """Product of two products of scaled Laguerre factors, in the tuple form.

    In such a product of total block size K, x^i has a-degree K - i and
    leading a-coefficient (-1)^i C(K, i) (Vandermonde), never zero: the
    result is canonical without stripping.
    """
    out: list[list[int]] = [[] for _ in range(len(p) + len(q) - 1)]
    for i, pi in enumerate(p):
        for j, qj in enumerate(q, i):
            add_product(out[j], qj, pi)
    return tuple(tuple(acc) for acc in out)


def laguerre_product(shape: Sequence[int]) -> XAPoly:
    """Product of scaled_laguerre(k) over the blocks of a shape.

    Zero blocks contribute a factor 1.  Factors are multiplied in
    nondecreasing k to keep intermediate degrees balanced; the result is
    independent of order.  A negative entry comes first in that order, so
    scaled_laguerre rejects it before any product is formed.
    """
    blocks = tuple(shape)
    if any(type(k) is not int for k in blocks):  # bools are refused too
        raise TypeError("shape entries must be int")
    ks = sorted(k for k in blocks if k)
    out: XAPoly = ((1,),)
    for k in ks:
        out = _mul(out, scaled_laguerre(k))
    return out


def moment_functional(p: XAPoly) -> AlphaPoly:
    """Linear map x^m -> a(a+1)...(a+m-1), applied coefficient-wise.

    p is a polynomial in x over Z[a] in the tuple form.  The moments are one
    running product, f_m = (a + m - 1) f_{m-1}.
    """
    acc: list[int] = []
    moment = [1]
    for m, c in enumerate(p):
        add_product(acc, c, moment)
        moment = times_a_plus(moment, m)
    return AlphaPoly._trusted(acc)
