import random
from math import factorial, prod

import pytest

from multiderange import enumerator
from multiderange.enumerator import (
    MAX_GROUND_SET,
    SHAPE_TOO_LARGE,
    count_derangements,
    fk_sequence_direct,
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
    assert moment_functional(x2_minus_x) == AlphaPoly((0, 0, 1))  # a^2
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


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_direct_generator_matches_fk_value(k):
    assert fk_sequence_direct(k, 12) == [fk_value(k, n) for n in range(13)]
    assert fk_sequence_direct(k, 0) == [ALPHA_ONE]
    assert fk_sequence_direct(k, -1) == []


def test_equal_blocks_budget():
    for k, last in ((10**300, 1), (1, MAX_GROUND_SET + 1), (2, MAX_GROUND_SET // 2 + 1)):
        with pytest.raises(ValueError) as exc:
            fk_sequence_direct(k, last)
        assert str(exc.value) == SHAPE_TOO_LARGE
        with pytest.raises(ValueError) as exc:
            fk_value(k, last)
        assert str(exc.value) == SHAPE_TOO_LARGE
    with pytest.raises(ValueError, match="k must be positive"):
        fk_sequence_direct(0, 3)


def test_shape_budget(monkeypatch):
    # the library refuses what parse_shape refuses, before any product
    monkeypatch.setattr(enumerator, "MAX_GROUND_SET", 10)
    assert normalize_shape([6, 0, 4]) == (6, 4)
    for fn in (normalize_shape, weighted_derangement_poly, count_derangements,
               identified_count):
        with pytest.raises(ValueError) as exc:
            fn([6, 5])
        assert str(exc.value) == SHAPE_TOO_LARGE


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
