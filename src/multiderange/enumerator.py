"""Exact weight enumerators of multiset derangements by cycle count.

A shape (k_1, ..., k_n) splits a ground set of sum(k_i) labeled elements
into blocks; a derangement of the shape is a permutation sending no element
into its own block.  The weight enumerator marks each surviving permutation
with a^(number of cycles).

No permutation is ever enumerated here: the product of block-wise scaled
Laguerre polynomials is pushed through the moment functional
x^m -> a(a+1)...(a+m-1), which realizes the underlying Gamma-weight
integral exactly, in pure integer-polynomial arithmetic.  The result for
shape (k_1,...,k_n) counts labeled elements; divide the a=1 value by
prod(k_i!) to identify the elements within each block.
"""

from __future__ import annotations

from math import factorial, prod
from typing import Sequence

from .laguerre import XAPoly, laguerre_product
from .polys import AlphaPoly, add_product, rising_factorial


def normalize_shape(shape: Sequence[int]) -> tuple[int, ...]:
    """Validate block sizes and drop zero blocks (they contribute factor 1)."""
    out = []
    for k in shape:
        if not isinstance(k, int):
            raise TypeError("shape entries must be int")
        if k < 0:
            raise ValueError(f"shape entries must be nonnegative, got {k}")
        if k:
            out.append(k)
    return tuple(out)


def moment_functional(p: XAPoly) -> AlphaPoly:
    """Linear map x^m -> rising_factorial(m), applied coefficient-wise.

    p is a polynomial in x over Z[a] in the tuple form of ``laguerre``.
    """
    acc: list[int] = []
    for m, c in enumerate(p):
        if c:
            add_product(acc, c, rising_factorial(m).coeffs)
    return AlphaPoly._trusted(acc)


def weighted_derangement_poly(shape: Sequence[int]) -> AlphaPoly:
    """Cycle-count weight enumerator of the derangements of a shape.

    Nonnegative integer coefficients; zero constant term and degree at most
    sum(shape)//2 whenever the shape is nonempty (every cycle of a
    derangement has length at least 2).
    """
    blocks = normalize_shape(shape)
    total = sum(blocks)
    sign = -1 if total % 2 else 1
    return sign * moment_functional(laguerre_product(blocks))


def count_derangements(shape: Sequence[int]) -> int:
    """Number of derangements of the shape, elements labeled.

    Always divisible by prod(k_i!); the quotient counts derangements with
    each block's elements identified.
    """
    return weighted_derangement_poly(shape)(1)


def identified_count(shape: Sequence[int]) -> int:
    """count_derangements with each block's elements identified."""
    blocks = normalize_shape(shape)
    labeled = count_derangements(blocks)
    scale = prod(factorial(k) for k in blocks)
    q, r = divmod(labeled, scale)
    if r:
        raise ArithmeticError("labeled count not divisible by block factorials")
    return q


def fk_value(k: int, n: int) -> AlphaPoly:
    """Weight enumerator for n equal blocks of size k; 1 when n = 0."""
    if k < 1:
        raise ValueError("k must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return weighted_derangement_poly((k,) * n)


def fk_sequence_direct(k: int, last: int) -> list[AlphaPoly]:
    """[fk_value(k, 0), ..., fk_value(k, last)], each computed from scratch."""
    return [fk_value(k, n) for n in range(last + 1)]
