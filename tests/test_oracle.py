import ast
import random
from pathlib import Path

import pytest

from multiderange import oracle
from multiderange.oracle import (
    CapExceeded,
    NotABijection,
    cycle_count,
    cycle_enumerator_all,
    enumerate_derangements,
)
from multiderange.polys import ALPHA_ONE, AlphaPoly, rising_factorial

A = AlphaPoly((0, 1))


def test_cycle_count_examples():
    assert cycle_count([1, 2, 3, 4]) == 4
    assert cycle_count([2, 3, 4, 1]) == 1
    assert cycle_count([2, 1, 4, 3]) == 2
    assert cycle_count([]) == 0


@pytest.mark.parametrize("bad", [[1, 1], [2], [0, 1], [1, 3], [1, "2"], [True]])
def test_cycle_count_rejects_non_bijections(bad):
    with pytest.raises(NotABijection):
        cycle_count(bad)


def test_shape_entries_must_be_ints():
    # bool is an int subclass, and no block size
    with pytest.raises(TypeError, match="shape entries must be int"):
        enumerate_derangements([True, True])


def test_small_shapes():
    assert enumerate_derangements([1, 1]) == A
    assert enumerate_derangements([3]) == AlphaPoly()
    assert enumerate_derangements([2, 2]) == AlphaPoly((0, 2, 2))
    assert enumerate_derangements([]) == ALPHA_ONE
    assert enumerate_derangements([0, 1, 1, 0]) == A


def test_alpha_one_is_the_raw_count():
    # total surviving permutations of three labeled pairs
    assert enumerate_derangements([2, 2, 2])(1) == 80


def test_block_permutation_invariance():
    rng = random.Random(3)
    for _ in range(10):
        shape = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 4))]
        shuffled = shape[:]
        rng.shuffle(shuffled)
        assert enumerate_derangements(shape) == enumerate_derangements(shuffled)


def test_cap():
    with pytest.raises(CapExceeded):
        enumerate_derangements([5, 5])
    with pytest.raises(CapExceeded):
        enumerate_derangements([3, 3], cap=4)
    # raising the cap explicitly is allowed
    assert enumerate_derangements([5, 5], cap=10)(1) > 0
    with pytest.raises(CapExceeded):
        cycle_enumerator_all(10)


@pytest.mark.parametrize("n", range(8))
def test_cycle_identity(n):
    assert cycle_enumerator_all(n) == rising_factorial(n)


def test_oracle_is_independent_of_the_enumerator():
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"__future__", "itertools", "typing", "polys"}
