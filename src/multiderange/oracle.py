"""Brute-force ground truth for derangement weight enumerators.

Everything here enumerates permutations directly and counts cycles with one
orbit-traversal counter, _cycles.  It is deliberately dumb: the only
cleverness allowed is pruning a partial assignment as soon as an element
lands in its own block.  A small
cap keeps runtimes sane; callers who need larger shapes use the
Laguerre-moment path and this module to cross-check it on small cases.

Block i of a shape occupies the labels k_1+...+k_{i-1}+1 .. k_1+...+k_i,
so results are deterministic.
"""

from __future__ import annotations

from itertools import permutations
from typing import Sequence

from .polys import AlphaPoly

DEFAULT_CAP = 9


class CapExceeded(Exception):
    """Ground set too large for brute force; use the enumerator instead."""


def _cycles(image: Sequence[int]) -> int:
    # orbit traversal over a valid 0-based image list
    visited = [False] * len(image)
    cycles = 0
    for start in range(len(image)):
        if not visited[start]:
            cycles += 1
            v = start
            while not visited[v]:
                visited[v] = True
                v = image[v]
    return cycles


def _validated_blocks(shape: Sequence[int], cap: int) -> tuple[int, ...]:
    if any(type(k) is not int for k in shape):  # bools are refused too
        raise TypeError("shape entries must be int")
    blocks = tuple(k for k in shape if k)
    if any(k < 0 for k in shape):
        raise ValueError("shape entries must be nonnegative")
    total = sum(blocks)
    if total > cap:
        raise CapExceeded(f"ground set size {total} exceeds brute-force cap {cap}")
    return blocks


def enumerate_derangements(shape: Sequence[int], cap: int = DEFAULT_CAP) -> AlphaPoly:
    """Weight enumerator sum of a^cycles over all derangements of the shape.

    Lexicographic generation over the labeled ground set with early pruning:
    a prefix dies as soon as some element maps into its own block.
    """
    blocks = _validated_blocks(shape, cap)
    total = sum(blocks)
    block_of = []
    for b, size in enumerate(blocks):
        block_of.extend([b] * size)
    allowed = [
        [v for v in range(total) if block_of[v] != block_of[pos]]
        for pos in range(total)
    ]
    counts = [0] * (total + 1)
    image = [0] * total

    def extend(pos: int, used: int) -> None:
        if pos == total:
            # the oracle's self-check: pruning leaves no fixed point
            assert all(v != i for i, v in enumerate(image))
            counts[_cycles(image)] += 1
            return
        for v in allowed[pos]:
            bit = 1 << v
            if not used & bit:
                image[pos] = v
                extend(pos + 1, used | bit)

    extend(0, 0)
    return AlphaPoly(counts)


def cycle_enumerator_all(n: int, cap: int = DEFAULT_CAP) -> AlphaPoly:
    """Sum of a^cycles over all n! permutations (no derangement filter).

    Equals rising_factorial(n); asserting that equality is the classic
    sanity check for the whole cycle-counting machinery.
    """
    if type(n) is not int:  # bools are refused too
        raise TypeError("n must be an int")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds brute-force cap {cap}")
    counts = [0] * (n + 1)
    for perm in permutations(range(n)):
        counts[_cycles(perm)] += 1
    return AlphaPoly(counts)
