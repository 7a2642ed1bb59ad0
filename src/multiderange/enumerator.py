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

The equal-blocks values F_k(n), n blocks of size k, have one generator,
fk_sequence_direct, which carries the product of n Laguerre factors from
one n to the next; fk_value builds each product from scratch and is the
reference the generator is tested against.  They, and normalize_shape
for every other shape, refuse a ground set above MAX_GROUND_SET before
allocating anything.
"""

from __future__ import annotations

from math import factorial, prod
from typing import Sequence

from .laguerre import XAPoly, _mul, laguerre_product, scaled_laguerre
from .polys import AlphaPoly, add_product, rising_factorial

# Largest ground set (sum of block sizes) and number of blocks a shape may
# have.  Checked before anything is expanded or allocated, so "4^1000000000"
# or a block of 10^9 elements fails at once; shapes near the limit already
# take far longer than anyone waits.
MAX_GROUND_SET = 10_000
SHAPE_TOO_LARGE = f"shape too large: more than {MAX_GROUND_SET} elements or blocks"


def normalize_shape(shape: Sequence[int]) -> tuple[int, ...]:
    """Validate block sizes and the ground set's size against
    MAX_GROUND_SET, and drop zero blocks (they contribute factor 1)."""
    out = []
    for k in shape:
        if not isinstance(k, int):
            raise TypeError("shape entries must be int")
        if k < 0:
            raise ValueError(f"shape entries must be nonnegative, got {k}")
        if k:
            out.append(k)
    if sum(out) > MAX_GROUND_SET:
        raise ValueError(SHAPE_TOO_LARGE)
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
    poly = moment_functional(laguerre_product(blocks))
    return -poly if sum(blocks) % 2 else poly


def count_derangements(shape: Sequence[int]) -> int:
    """Number of derangements of the shape, elements labeled.

    Always divisible by prod(k_i!); the quotient counts derangements with
    each block's elements identified.
    """
    return weighted_derangement_poly(shape)(1)


def identified_count(shape: Sequence[int]) -> int:
    """count_derangements with each block's elements identified."""
    labeled = count_derangements(shape)  # validates the shape
    scale = prod(factorial(k) for k in shape)
    q, r = divmod(labeled, scale)
    if r:
        raise ArithmeticError("labeled count not divisible by block factorials")
    return q


def _check_equal_blocks(k: int, last: int) -> None:
    if k < 1:
        raise ValueError("k must be positive")
    if k * last > MAX_GROUND_SET:
        raise ValueError(SHAPE_TOO_LARGE)


def fk_value(k: int, n: int) -> AlphaPoly:
    """Weight enumerator for n equal blocks of size k; 1 when n = 0."""
    _check_equal_blocks(k, n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return weighted_derangement_poly((k,) * n)


def fk_sequence_direct(k: int, last: int) -> list[AlphaPoly]:
    """[F_k(0), ..., F_k(last)], equal to fk_value(k, n) for each n.

    F_k(n) = (-1)^(kn) * moment_functional(P_n) with P_0 = 1 and
    P_n = P_{n-1} * scaled_laguerre(k), so each value costs one product
    with a single factor instead of a product of n factors.
    """
    _check_equal_blocks(k, last)
    p: XAPoly = ((1,),)
    values = []
    for n in range(last + 1):
        if n:
            p = _mul(p, scaled_laguerre(k))
        v = moment_functional(p)
        values.append(-v if k * n % 2 else v)
    return values
