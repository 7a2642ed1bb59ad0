import random
import time
from math import factorial, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from multiderange import enumerator, oracle
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
    weighted_derangement_value,
)
from multiderange.laguerre import laguerre_product
from multiderange.polys import AlphaPoly, PolySequence
from multiderange.recurrence import fk_sequence_via_recurrence

ALPHA_ONE = AlphaPoly((1,))
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
    # a one-shot shape is read once: the labeled count used to use it up
    assert identified_count(iter([2, 2, 2])) == 10
    assert identified_count(k for k in (2, 0, 2, 2)) == 10


def test_fk_values():
    assert fk_value(1, 4) == AlphaPoly((0, 6, 3))
    assert fk_value(2, 1) == AlphaPoly()
    assert fk_value(2, 3) == AlphaPoly((0, 32, 40, 8))
    assert fk_value(3, 0) == ALPHA_ONE
    with pytest.raises(ValueError):
        fk_value(0, 3)
    with pytest.raises(ValueError):
        fk_value(1, -1)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_direct_generator_matches_fk_value(k):
    seq = fk_sequence_direct(k, 12)
    assert (seq.start, seq.k) == (0, k)
    assert seq.values == tuple(fk_value(k, n) for n in range(13))
    assert seq.values == tuple(reference_poly((k,) * n) for n in range(13))
    assert fk_sequence_direct(k, 0) == PolySequence(0, (ALPHA_ONE,), k)
    assert fk_sequence_direct(k, -1) == PolySequence(0, (), k)


@pytest.mark.parametrize("k", [1, 2])
def test_direct_generator_matches_the_recurrence(k):
    # the recurrence takes only its seeds from the generator
    assert fk_sequence_direct(k, 60) == fk_sequence_via_recurrence(k, 60)


def test_direct_generator_on_one_huge_block():
    # one block of 5000 has no derangement; the bivariate product of that
    # block alone is a polynomial of degree 5000 in x and in a
    assert fk_sequence_direct(5000, 1).values == (ALPHA_ONE, AlphaPoly())


def test_no_difference_table_without_a_derangement(monkeypatch):
    # a largest block of 0 is not above K//2 = 0: the empty shape is interpolated
    assert weighted_derangement_poly(()) == ALPHA_ONE

    def refuse(values):
        raise AssertionError("difference table built")

    monkeypatch.setattr(enumerator, "_from_values", refuse)
    for shape in ((5000,), (9000, 5, 5), (2,), (3, 1), (1,)):
        assert weighted_derangement_poly(shape) == AlphaPoly()


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


@pytest.mark.parametrize("call, message", [
    (lambda: normalize_shape([True, 2]), "shape entries must be int"),
    (lambda: weighted_derangement_poly([True, True]), "shape entries must be int"),
    (lambda: fk_value(True, 2), "k and n must be int"),
    (lambda: fk_value(1, True), "k and n must be int"),
    (lambda: fk_sequence_direct(True, 3), "k and n must be int"),
    (lambda: fk_sequence_direct(2, False), "k and n must be int"),
    (lambda: weighted_derangement_value([True, 1], 1), "shape entries must be int"),
    (lambda: weighted_derangement_value([2, 2], True), "evaluation point must be an int"),
], ids=["shape", "wder", "fk-k", "fk-n", "direct-k", "direct-last", "value-shape", "value-a"])
def test_booleans_are_not_block_sizes_or_counts(call, message):
    # bool is an int subclass; the records and AlphaPoly refuse it too, and
    # the equal-blocks functions refuse it before computing any value
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == message


def test_shape_budget(monkeypatch):
    # the library refuses what parse_shape refuses, before any product
    monkeypatch.setattr(enumerator, "MAX_GROUND_SET", 10)
    assert normalize_shape([6, 0, 4]) == (6, 4)
    for fn in (normalize_shape, weighted_derangement_poly, count_derangements,
               identified_count, lambda shape: weighted_derangement_value(shape, -3)):
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
    assert p.coeffs[0] == 0
    assert p.degree <= total // 2
    assert count_derangements(shape) % prod(factorial(k) for k in shape) == 0


def reference_poly(shape):
    """(-1)^K * moment_functional(laguerre_product(shape)), over Z[a]."""
    p = moment_functional(laguerre_product(shape))
    return -p if sum(shape) % 2 else p


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=12), max_size=14))
def test_interpolation_matches_the_laguerre_product(shape):
    assert weighted_derangement_poly(shape) == reference_poly(shape)


# blocks drawn from at most three sizes, so sizes repeat and go through the
# power recurrence
repeated_sizes = st.lists(
    st.integers(min_value=0, max_value=12), min_size=1, max_size=3
).flatmap(lambda sizes: st.lists(st.sampled_from(sizes), max_size=14))


@settings(max_examples=60, deadline=None)
@given(repeated_sizes)
def test_interpolation_matches_the_laguerre_product_on_repeated_sizes(shape):
    assert weighted_derangement_poly(shape) == reference_poly(shape)


@given(st.lists(st.just(0), max_size=14))
def test_empty_and_all_zero_shapes_are_one(shape):
    assert weighted_derangement_poly(shape) == ALPHA_ONE


def _partitions(total, largest):
    if total == 0:
        yield ()
        return
    for k in range(min(total, largest), 0, -1):
        for rest in _partitions(total - k, k):
            yield (k, *rest)


@pytest.mark.parametrize("total", range(9))
def test_interpolation_matches_the_oracle(total):
    for shape in _partitions(total, total):
        want = oracle.enumerate_derangements(shape)
        assert weighted_derangement_poly(shape) == want
        # and the one-product values, on both sides of every vanishing point
        for a in range(-total - 2, total + 3):
            assert weighted_derangement_value(shape, a) == want(a)


# shapes on which the bivariate product took up to about 1 s
@pytest.mark.parametrize("k, m", [(4, 13), (10, 10), (5, 30), (1, 200), (2, 100)])
def test_interpolation_matches_the_laguerre_product_on_large_shapes(k, m):
    assert weighted_derangement_poly([k] * m) == reference_poly([k] * m)


def test_interpolation_needs_integer_coefficients():
    # a(a+1) is 0, 0, 2 at a = 0, -1, -2; a(a+1)/2 is not an integer polynomial
    assert enumerator._from_values([0, 0, 2]) == AlphaPoly((0, 1, 1))
    with pytest.raises(ArithmeticError):
        enumerator._from_values([0, 0, 1])


# the one-point path: weighted_derangement_value against the polynomial
# and classical counts (the oracle test above covers it too)

# on both sides of the 64-bit rule, and far past it
EDGE_POINTS = [2**64 - 1, -(2**64 - 1), 2**64, -(2**64), 10**300, -(10**300)]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), max_size=8))
def test_value_matches_the_polynomial(shape):
    poly = weighted_derangement_poly(shape)
    total = sum(shape)
    for a in [*range(-total - 2, total + 3), *EDGE_POINTS]:
        assert weighted_derangement_value(shape, a) == poly(a)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=8),
       st.integers(min_value=-(2**200), max_value=2**200))
def test_moment_kernel_is_exact_past_the_bit_rule(shape, a):
    # the whole product at any a whose factors have a nonzero constant term
    assume(a > 0 or -a >= max(shape))
    total = sum(shape)
    value = enumerator._moment_at(enumerator._powers(tuple(shape)), a, total)
    assert (-value if total % 2 else value) == weighted_derangement_poly(shape)(a)


def test_value_edge_cases(monkeypatch):
    def refuse(shape):
        raise AssertionError("polynomial built")

    monkeypatch.setattr(enumerator, "weighted_derangement_poly", refuse)
    for a in (-5, 0, 1, 7, -(10**300)):
        assert weighted_derangement_value((), a) == 1
        assert weighted_derangement_value([0, 0], a) == 1
        # a block above K//2: no derangement at any a
        assert weighted_derangement_value([4, 1, 1], a) == 0
    # zero blocks are dropped
    assert weighted_derangement_value([0, 2, 0, 2], 3) == weighted_derangement_value([2, 2], 3) == 24
    # a nonempty shape has no derangement with no cycles
    assert weighted_derangement_value([2, 2], 0) == 0
    # at a = -1 a block of 2 vanishes up to x^1; at a = -2 it does not
    assert weighted_derangement_value([2, 2], -1) == 0
    assert weighted_derangement_value([2, 2], -2) == 4
    with pytest.raises(ValueError, match="nonnegative"):
        weighted_derangement_value([2, -1], 1)


@pytest.mark.parametrize("a", [1.0, 2**0.5, "1", None])
def test_value_refuses_a_point_that_is_not_an_int(a):
    # the message of AlphaPoly.__call__, which bools also get
    with pytest.raises(TypeError) as info:
        weighted_derangement_value([2, 2], a)
    assert str(info.value) == "evaluation point must be an int"


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def test_count_of_3000_singletons():
    # the classical derangement numbers, D_n = n D_(n-1) + (-1)^n
    want = 1
    for n in range(1, 3001):
        want = n * want + (-1) ** n
    got, seconds = _timed(count_derangements, [1] * 3000)
    assert got == want
    assert seconds < 5


def test_count_of_500_pairs():
    # rook-polynomial inclusion-exclusion: sum_i (-1)^i r_i (1000 - i)!, with
    # r = (1 + 4x + 2x^2)^500, the rook polynomial of 500 2x2 boards
    r = [1]
    for _ in range(500):
        r = [p + 4 * q + 2 * s for p, q, s in zip(r + [0, 0], [0, *r, 0], [0, 0, *r])]
    want = sum((-1) ** i * ri * factorial(1000 - i) for i, ri in enumerate(r))
    got, seconds = _timed(count_derangements, [2] * 500)
    assert got == want
    assert seconds < 5
