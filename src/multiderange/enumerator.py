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
these divisions raises ArithmeticError.  The reference this path is
tested against, moment_functional(laguerre_product(shape)), does form the
product; it lives in laguerre, and no command reaches it.

The equal-blocks values F_k(n), n blocks of size k, come from the same
path: fk_value(k, n) is weighted_derangement_poly of the shape k^n, and
fk_sequence_direct(k, last) is fk_value for n = 0..last, each value from
scratch, as the PolySequence F_k(0..last) that the recurrence engine
also returns.  Carrying the product of n Laguerre factors from n to n + 1
instead would grow it to degree k*n in x and in a, and is slower for
every k.  Both refuse a shape that check_ground_set refuses before
allocating anything, as normalize_shape does for every other shape.

A single value needs no polynomial.  weighted_derangement_value(shape, a)
takes the integer product of the factors at a itself, cut at x^(-a) for
a <= 0 and whole for a > 0, and its moment, by the same kernel
_moment_at: one product instead of K//2 + 1.  count_derangements (a = 1),
identified_count and the CLI's count, --identified and --alpha take this
route.  Past 64-bit |a| the product's coefficients grow with a and the
polynomial is cheaper, so there the value is the polynomial's.
"""

from __future__ import annotations

from collections import Counter
from math import comb, factorial, prod
from typing import Sequence

# the reference for weighted_derangement_poly stays importable here: the
# benchmark's tracer wraps enumerator.laguerre_product and moment_functional
from .laguerre import laguerre_product, moment_functional  # noqa: F401
from .polys import AlphaPoly, PolySequence, add_product, times_a_plus

# Largest ground set (sum of block sizes) and number of blocks a shape may
# have.  Checked before anything is expanded or allocated, so "4^1000000000"
# or a block of 10^9 elements fails at once; shapes near the limit already
# take far longer than anyone waits.
MAX_GROUND_SET = 10_000
SHAPE_TOO_LARGE = f"shape too large: more than {MAX_GROUND_SET} elements or blocks"

# Largest bit length of a at which weighted_derangement_value takes one
# product at a rather than building the polynomial (measured crossover).
_ONE_POINT_BITS = 64


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
    powers = _powers(blocks)
    values = [_moment_at(powers, -j, j) if j >= first else 0 for j in range(total // 2 + 1)]
    poly = _from_values(values)
    return -poly if total % 2 else poly


def weighted_derangement_value(shape: Sequence[int], a: int) -> int:
    """weighted_derangement_poly(shape)(a), from one product at a when |a|
    has at most 64 bits.

    The shape is validated as normalize_shape does, and a must be an int,
    not a bool.  The empty shape gives 1.  A block above K//2 gives 0, and
    so does a <= 0 with a block above -a, whose factor vanishes up to
    x^(-a).  Otherwise the value is (-1)^K times the moment of the product
    of the factors at a, cut at x^(-a) for a <= 0 and whole (degree K) for
    a > 0.

    The 64-bit rule is a measured crossover.  That product's coefficients
    have about K * bits(a) bits, while the K//2 + 1 products of
    weighted_derangement_poly stay small, so past 64 bits the polynomial
    is built and evaluated instead.  For K = 24..240 and 64-bit a, one
    product was 1.5-6x faster than the polynomial on most shapes and at
    par (0.9-1.2x) on many small blocks of mixed sizes, such as 1s and 2s
    with K = 120; at 8 bits it was 3-60x faster, at 256 bits 2-9x slower.
    """
    blocks = normalize_shape(shape)
    if type(a) is not int:  # bools are refused too
        raise TypeError("evaluation point must be an int")
    if not blocks:
        return 1
    total = sum(blocks)
    first = max(blocks)
    if first > total // 2 or (a <= 0 and first > -a):
        return 0
    if abs(a).bit_length() > _ONE_POINT_BITS:
        return weighted_derangement_poly(blocks)(a)
    value = _moment_at(_powers(blocks), a, -a if a <= 0 else total)
    return -value if total % 2 else value


def _powers(blocks: tuple[int, ...]) -> list[tuple[int, int]]:
    """Block sizes with their multiplicities, smallest product degree first."""
    return sorted(Counter(blocks).items(), key=lambda km: km[0] * km[1])


def _moment_at(powers: list[tuple[int, int]], a: int, top: int) -> int:
    """moment_functional(laguerre_product(shape)) at the integer a, with the
    product cut at x^top.

    The shape is given as (block size, multiplicity) pairs.  Every product
    here is cut at x^top, by add_product.  The cut loses nothing at
    a = -j with top = j, since (-j)_m = 0 for m > j, nor with top at least
    the product's degree K.  A repeated size goes through _power, so each
    factor's constant term (a)_k must be nonzero: a > 0, or every size at
    most -a.
    """
    p = [1]
    for k, m in powers:
        f = _laguerre_at(k, a)
        prev, p = p, []
        add_product(p, prev, f if m == 1 else _power(f, m, min(top, k * m)), top)
    # sum_i p[i] a(a+1)...(a+i-1), in Horner form
    acc = 0
    for i in range(len(p) - 1, -1, -1):
        acc = acc * (a + i) + p[i]
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
    each block's elements identified.  Taken from one product at a = 1, by
    weighted_derangement_value: the polynomial is never built.
    """
    return weighted_derangement_value(shape, 1)


def identified_count(shape: Sequence[int]) -> int:
    """count_derangements with each block's elements identified."""
    blocks = normalize_shape(shape)  # read once: shape may be a one-shot iterable
    labeled = count_derangements(blocks)
    scale = prod(factorial(k) for k in blocks)
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
