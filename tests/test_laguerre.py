import random
from fractions import Fraction
from math import factorial

import pytest

from multiderange.laguerre import laguerre_product, scaled_laguerre
from multiderange.oracle import cycle_enumerator_all
from multiderange.polys import AlphaPoly, rising_factorial


def _eval(p, a0: int, x0: int) -> int:
    """Horner evaluation of a polynomial in x over Z[a] at integers (a0, x0)."""
    acc = 0
    for c in reversed(p):
        acc = acc * x0 + AlphaPoly(c)(a0)
    return acc


def _is_canonical(p) -> bool:
    """Int tuples without trailing zeros, and no trailing empty entry."""
    return (
        isinstance(p, tuple)
        and all(isinstance(c, tuple) and all(type(v) is int for v in c) for c in p)
        and all(not c or c[-1] != 0 for c in p)
        and (not p or p[-1] != ())
    )


def test_base_cases():
    assert scaled_laguerre(0) == ((1,),)
    assert scaled_laguerre(1) == ((0, 1), (-1,))


def test_k2_expansion():
    # a(a+1) - 2(a+1)x + x^2
    p = scaled_laguerre(2)
    assert p == ((0, 1, 1), (-2, -2), (1,))


@pytest.mark.parametrize("k", range(11))
def test_degree_leading_and_constant_term(k):
    p = scaled_laguerre(k)
    assert _is_canonical(p)
    assert len(p) - 1 == k
    assert p[k] == (1 if k % 2 == 0 else -1,)
    assert p[0] == rising_factorial(k).coeffs


def _laguerre_exact(k: int, sup: int, x: Fraction) -> Fraction:
    """Three-term construction of the generalized Laguerre value, exact."""
    prev = Fraction(1)
    if k == 0:
        return prev
    cur = Fraction(1 + sup) - x
    for i in range(1, k):
        cur, prev = ((2 * i + 1 + sup - x) * cur - (i + sup) * prev) / (i + 1), cur
    return cur


def test_evaluation_matches_three_term_construction():
    rng = random.Random(20240817)
    for _ in range(40):
        k = rng.randrange(0, 9)
        a0 = rng.randrange(2, 8)
        x0 = rng.randrange(-4, 6)
        got = _eval(scaled_laguerre(k), a0, x0)
        want = factorial(k) * _laguerre_exact(k, a0 - 1, Fraction(x0))
        assert want.denominator == 1 and got == want


def test_product_base_cases():
    assert laguerre_product([]) == ((1,),)
    assert laguerre_product([1]) == scaled_laguerre(1)
    # (a - x)^2 = a^2 - 2a x + x^2
    assert laguerre_product([1, 1]) == ((0, 0, 1), (0, -2), (1,))
    assert _eval(laguerre_product([1, 1]), 3, 2) == 1


def test_product_degree_is_total():
    assert len(laguerre_product([2, 3, 1])) - 1 == 6
    assert len(laguerre_product([0, 4, 0])) - 1 == 4


def test_product_evaluates_to_the_product_of_factors():
    rng = random.Random(20261018)
    shapes = [[], [0], [0, 0, 3], [5, 0]]
    shapes += [[rng.randrange(0, 7) for _ in range(rng.randrange(1, 7))] for _ in range(40)]
    for shape in shapes:
        p = laguerre_product(shape)
        assert _is_canonical(p)
        for _ in range(3):
            a0, x0 = rng.randint(-9, 9), rng.randint(-9, 9)
            want = 1
            for k in shape:
                want *= _eval(scaled_laguerre(k), a0, x0)
            assert _eval(p, a0, x0) == want


def test_product_is_symmetric_in_the_shape():
    rng = random.Random(5)
    for _ in range(20):
        shape = [rng.randrange(0, 4) for _ in range(rng.randrange(1, 5))]
        shuffled = shape[:]
        rng.shuffle(shuffled)
        assert laguerre_product(shape) == laguerre_product(shuffled)


def test_rejects_negative_blocks():
    with pytest.raises(ValueError):
        laguerre_product([2, -1])
    with pytest.raises(ValueError):
        scaled_laguerre(-1)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "after-1"])
@pytest.mark.parametrize("bad", [True, False, 2.5, "2"])
@pytest.mark.parametrize("call, message", [
    (rising_factorial, "m must be an int"),
    (cycle_enumerator_all, "n must be an int"),
    (scaled_laguerre, "k must be an int"),
    (lambda k: laguerre_product([k]), "shape entries must be int"),
    (lambda k: laguerre_product([2, k]), "shape entries must be int"),
], ids=["rising_factorial", "cycle_enumerator_all", "scaled_laguerre",
        "laguerre_product", "laguerre_product-second"])
def test_sizes_are_ints(call, message, bad, warm):
    # True shared the cache entry of 1 and returned a, or the k=1 factor;
    # 2.5 failed with Python's own message
    rising_factorial.cache_clear()
    scaled_laguerre.cache_clear()
    want = call(1) if warm else None
    with pytest.raises(TypeError, match=message):
        call(bad)
    if warm:  # and the cached 1 is still the int's
        assert call(1) == want
