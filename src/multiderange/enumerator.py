"""Exact weight enumerators of multiset derangements by cycle count.

A shape (k_1, ..., k_n) splits a ground set of K = sum(k_i) labeled elements
into blocks; a derangement of the shape is a permutation sending no element
into its own block.  The weight enumerator marks each surviving permutation
with a^(number of cycles).

No permutation is ever enumerated here.  The enumerator is (-1)^K times the
product of block-wise scaled Laguerre polynomials pushed through the moment
functional x^m -> a(a+1)...(a+m-1), which realizes the underlying
Gamma-weight integral exactly.  The result for shape (k_1,...,k_n) counts
labeled elements; divide the a=1 value by prod(k_i!) to identify the
elements within each block.

weighted_derangement_poly never forms that product over Z[a].  Every cycle
of a derangement has length at least 2, so the enumerator has degree at
most K//2 and is fixed by its values at K//2 + 1 points.  The points are
a = 0, -1, ..., -K//2, because at a = -j the moment functional sends x^m to
(-j)(-j+1)...(-j+m-1), which is 0 for m > j: each value needs the integer
product of the factors at a = -j only up to x^j.  A block of size k > j
makes its factor vanish up to x^j, so the value there is 0 without any
work; a block above K//2 makes every value 0, and no table is built.  A
block size repeated m times is raised to its m-th power by J.C.P.
Miller's recurrence, in O(j*k) steps, each an exact division.  The
values are recombined without fractions: Newton's forward differences in
t = -a, each divided exactly by j!, are the coefficients of the enumerator
in the basis rising_factorial(j), summed in Horner form.  Any remainder in
these divisions raises ArithmeticError.  laguerre_product and
moment_functional, which do form the product, stay as the reference this
path is tested against; no command reaches them.

The equal-blocks values F_k(n), n blocks of size k, come from the same
path: fk_value(k, n) is weighted_derangement_poly of the shape k^n, and
fk_sequence_direct(k, last) is fk_value for n = 0..last, each value from
scratch, as the PolySequence F_k(0..last) that the recurrence engine
also returns.  Carrying the product of n Laguerre factors from n to n + 1
instead would grow it to degree k*n in x and in a, and is slower for
every k.  Both refuse a shape that check_ground_set refuses before
allocating anything, as normalize_shape does for every other shape.
"""

from __future__ import annotations

from collections import Counter
from math import comb, factorial, prod
from typing import Sequence

# laguerre_product, the reference for weighted_derangement_poly, stays
# importable here: the benchmark's tracer wraps enumerator.laguerre_product
from .laguerre import XAPoly, laguerre_product  # noqa: F401
from .polys import AlphaPoly, PolySequence, add_product, times_a_plus

# Largest ground set (sum of block sizes) and number of blocks a shape may
# have.  Checked before anything is expanded or allocated, so "4^1000000000"
# or a block of 10^9 elements fails at once; shapes near the limit already
# take far longer than anyone waits.
MAX_GROUND_SET = 10_000
SHAPE_TOO_LARGE = f"shape too large: more than {MAX_GROUND_SET} elements or blocks"


def check_ground_set(elements: int, blocks: int) -> None:
    """Refuse more than MAX_GROUND_SET elements or blocks, zero blocks counted."""
    if elements > MAX_GROUND_SET or blocks > MAX_GROUND_SET:
        raise ValueError(SHAPE_TOO_LARGE)


def normalize_shape(shape: Sequence[int]) -> tuple[int, ...]:
    """Validate block sizes and the shape against check_ground_set, and drop
    zero blocks (they contribute factor 1)."""
    out = []
    blocks = 0
    for blocks, k in enumerate(shape, 1):
        if type(k) is not int:  # bools are refused too
            raise TypeError("shape entries must be int")
        if k < 0:
            raise ValueError(f"shape entries must be nonnegative, got {k}")
        if k:
            out.append(k)
    check_ground_set(sum(out), blocks)
    return tuple(out)


def moment_functional(p: XAPoly) -> AlphaPoly:
    """Linear map x^m -> a(a+1)...(a+m-1), applied coefficient-wise.

    p is a polynomial in x over Z[a] in the tuple form of ``laguerre``.  The
    moments are one running product, f_m = (a + m - 1) f_{m-1}.
    """
    acc: list[int] = []
    moment = [1]
    for m, c in enumerate(p):
        add_product(acc, c, moment)
        moment = times_a_plus(moment, m)
    return AlphaPoly._trusted(acc)


def weighted_derangement_poly(shape: Sequence[int]) -> AlphaPoly:
    """Cycle-count weight enumerator of the derangements of a shape.

    Nonnegative integer coefficients; zero constant term and degree at most
    sum(shape)//2 whenever the shape is nonempty (every cycle of a
    derangement has length at least 2).  Equal to (-1)^sum(shape) *
    moment_functional(laguerre_product(shape)), computed from its values at
    a = 0, -1, ..., -(sum(shape)//2).
    """
    blocks = normalize_shape(shape)
    total = sum(blocks)
    # for j below the largest block, that block's factor vanishes up to x^j
    first = max(blocks, default=0)
    if first > total // 2:  # every value is 0: no derangement
        return AlphaPoly()
    # sizes with their multiplicities, smallest product degree first
    powers = sorted(Counter(blocks).items(), key=lambda km: km[0] * km[1])
    values = [_moment_at(powers, j) if j >= first else 0 for j in range(total // 2 + 1)]
    poly = _from_values(values)
    return -poly if total % 2 else poly


def _moment_at(powers: list[tuple[int, int]], j: int) -> int:
    """moment_functional(laguerre_product(shape)) at a = -j.

    The shape is given as (block size, multiplicity) pairs, every size at
    most j.  Only x^0..x^j of the product count, since (-j)_m = 0 for m > j,
    so every product here is cut at x^j, by add_product.
    """
    p = [1]
    for k, m in powers:
        f = _laguerre_at(k, -j)
        prev, p = p, []
        add_product(p, prev, f if m == 1 else _power(f, m, min(j, k * m)), j)
    # sum_i p[i] (-j)(-j+1)...(-j+i-1), in Horner form
    acc = 0
    for i in range(len(p) - 1, -1, -1):
        acc = acc * (i - j) + p[i]
    return acc


def _laguerre_at(k: int, a: int) -> list[int]:
    """The x-coefficients of scaled_laguerre(k) at the integer a."""
    f = [0] * (k + 1)
    tail = 1  # (a+i)(a+i+1)...(a+k-1), built down from the empty product
    for i in range(k, -1, -1):
        if i < k:
            tail *= a + i
        c = comb(k, i) * tail
        f[i] = -c if i % 2 else c
    return f


def _power(f: list[int], m: int, top: int) -> list[int]:
    """f^m cut at x^top, by J.C.P. Miller's recurrence; f[0] must be nonzero.

    From f * (f^m)' = m * f' * f^m: t f_0 q_t = sum_{i=1..k} ((m+1)i - t)
    f_i q_{t-i}, where k = deg f.  q has integer coefficients, so every
    division is exact.
    """
    f0 = f[0]
    k = len(f) - 1
    q = [f0**m]
    for t in range(1, top + 1):
        s = 0
        for i in range(1, min(k, t) + 1):
            s += ((m + 1) * i - t) * f[i] * q[t - i]
        qt, r = divmod(s, t * f0)
        if r:
            raise ArithmeticError("inexact step in the power recurrence")
        q.append(qt)
    return q


def _from_values(values: list[int]) -> AlphaPoly:
    """The polynomial of degree below len(values) that is values[j] at a = -j.

    In t = -a, Newton's forward differences D_j give sum_j D_j C(t, j), and
    C(-a, j) = (-1)^j a(a+1)...(a+j-1) / j!.  The polynomial has integer
    coefficients, so each D_j / j! is an integer: its coefficients in the
    basis rising_factorial(j) are those quotients.  The sum is taken in
    Horner form, (...(e_J (a+J-1) + e_{J-1}) (a+J-2) + ...) a + e_0, whose
    steps multiply by small integers only.
    """
    d = list(values)
    n = len(d)
    for i in range(1, n):
        for t in range(n - 1, i - 1, -1):
            d[t] -= d[t - 1]
    fact = 1
    for j in range(2, n):
        fact *= j
        q, r = divmod(d[j], fact)
        if r:
            raise ArithmeticError("forward difference not divisible by j!")
        d[j] = q
    acc: list[int] = []
    for j in range(n - 1, -1, -1):
        # acc * (a + j), then add e_j = (-1)^j d_j
        acc = times_a_plus(acc, j)
        acc[0] += -d[j] if j % 2 else d[j]
    return AlphaPoly._trusted(acc)


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
    if type(k) is not int or type(last) is not int:  # bools are refused too
        raise TypeError("k and n must be int")
    if k < 1:
        raise ValueError("k must be positive")
    check_ground_set(k * last, last)


def fk_value(k: int, n: int) -> AlphaPoly:
    """F_k(n), the weight enumerator for n equal blocks of size k; 1 at n = 0."""
    _check_equal_blocks(k, n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return weighted_derangement_poly((k,) * n)


def fk_sequence_direct(k: int, last: int) -> PolySequence:
    """F_k(0..last), each value equal to fk_value(k, n); empty when last < 0."""
    _check_equal_blocks(k, last)
    return PolySequence(0, [weighted_derangement_poly((k,) * n) for n in range(last + 1)], k)
