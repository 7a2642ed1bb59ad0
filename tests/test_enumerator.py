import random
from math import factorial, prod

import pytest

from multiderange.enumerator import (
    count_derangements,
    fk_value,
    identified_count,
    moment_functional,
    normalize_shape,
    weighted_derangement_poly,
)
from multiderange.polys import ALPHA_ONE, AlphaPoly

A = AlphaPoly((0, 1))


def test_normalize_shape():
    assert normalize_shape([0, 2, 0, 3]) == (2, 3)
    assert normalize_shape([]) == ()
    with pytest.raises(ValueError):
        normalize_shape([1, -1])
    with pytest.raises(TypeError):
        normalize_shape([1.0])


def test_moment_functional_examples():
    one = ((1,),)
    x = ((), (1,))
    assert moment_functional(one) == ALPHA_ONE
    assert moment_functional(x) == A
    x2_minus_x = ((), (-1,), (1,))
    assert moment_functional(x2_minus_x) == A * A
    assert moment_functional(()) == AlphaPoly()


def test_weighted_poly_small_shapes():
    assert weighted_derangement_poly([]) == ALPHA_ONE
    for k in range(1, 6):
        assert weighted_derangement_poly([k]) == AlphaPoly()
    assert weighted_derangement_poly([1, 1]) == A
    assert weighted_derangement_poly([2, 2]) == AlphaPoly((0, 2, 2))


def test_zero_blocks_are_dropped():
    assert weighted_derangement_poly([0, 2, 0, 2]) == weighted_derangement_poly([2, 2])
    assert weighted_derangement_poly([0, 0]) == ALPHA_ONE


def test_counts():
    assert count_derangements([1, 1, 1, 1]) == 9
    assert count_derangements([2, 2, 2]) == 80
    assert identified_count([2, 2, 2]) == 10


def test_fk_values():
    assert fk_value(1, 4) == AlphaPoly((0, 6, 3))
    assert fk_value(2, 1) == AlphaPoly()
    assert fk_value(2, 3) == AlphaPoly((0, 32, 40, 8))
    assert fk_value(3, 0) == ALPHA_ONE
    with pytest.raises(ValueError):
        fk_value(0, 3)
    with pytest.raises(ValueError):
        fk_value(1, -1)


def test_shape_permutation_invariance():
    rng = random.Random(99)
    for _ in range(25):
        shape = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 5))]
        shuffled = shape[:]
        rng.shuffle(shuffled)
        assert weighted_derangement_poly(shape) == weighted_derangement_poly(shuffled)


@pytest.mark.parametrize(
    "shape", [(1, 1), (2, 2), (1, 2, 3), (3, 3), (2, 2, 2), (4, 4), (1, 1, 1, 1, 1)]
)
def test_structural_invariants(shape):
    p = weighted_derangement_poly(shape)
    total = sum(shape)
    assert all(c >= 0 for c in p.coeffs)
    assert p.coeff(0) == 0
    assert p.degree <= total // 2
    assert count_derangements(shape) % prod(factorial(k) for k in shape) == 0
