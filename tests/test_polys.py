import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from multiderange.polys import (
    AlphaPoly,
    InexactDivision,
    SchemaError,
    add_product,
    divide_exact,
    poly_from_record,
    poly_to_record,
    render_terms,
    rising_factorial,
)
from multiderange.recurrence import RecurrenceOperator, coeff_at

ALPHA_ONE = AlphaPoly((1,))
A = AlphaPoly((0, 1))


def _add(p, q):
    """p + q, accumulated through the product kernel as q * 1."""
    acc = list(p.coeffs)
    add_product(acc, q.coeffs, (1,))
    return AlphaPoly(acc)


def _mul(p, q):
    """p * q through the product kernel."""
    acc = []
    add_product(acc, p.coeffs, q.coeffs)
    return AlphaPoly(acc)


small_coeffs = st.lists(st.integers(min_value=-99, max_value=99), max_size=6)


@given(small_coeffs, small_coeffs, small_coeffs, st.integers(min_value=0, max_value=12))
def test_cut_product_is_the_full_product_truncated(acc, p, q, top):
    full = list(acc)
    add_product(full, p, q)
    cut = list(acc)
    add_product(cut, p, q, top)
    # acc's entries above x^top are left as they were, and acc grows no
    # further than x^top
    assert AlphaPoly(cut) == AlphaPoly(full[: top + 1] + acc[top + 1:])
    assert len(cut) <= max(len(acc), top + 1)


def test_canonical_zero():
    assert AlphaPoly().coeffs == ()
    assert AlphaPoly((0, 0, 0)).coeffs == ()
    assert not AlphaPoly((0,))
    assert AlphaPoly((1, 2, 0)).coeffs == (1, 2)


def test_addition_examples():
    assert _add(A, -A) == AlphaPoly()
    assert _add(AlphaPoly((0, 1, 1)), A) == AlphaPoly((0, 2, 1))
    assert _add(AlphaPoly((0, 6, 3)), AlphaPoly()) == AlphaPoly((0, 6, 3))
    assert _add(AlphaPoly(), AlphaPoly((0, 6, 3))) == AlphaPoly((0, 6, 3))


def test_multiplication_examples():
    assert _mul(A, AlphaPoly((1, 1))) == AlphaPoly((0, 1, 1))
    assert _mul(AlphaPoly((3, 1, 4)), AlphaPoly()) == AlphaPoly()
    assert _mul(AlphaPoly((-1, 1)), AlphaPoly((1, 1))) == AlphaPoly((-1, 0, 1))


def test_degree_of_product():
    p = AlphaPoly((1, 2, 3))
    q = AlphaPoly((5, 7))
    assert _mul(p, q).degree == p.degree + q.degree


def test_evaluation_examples():
    assert AlphaPoly((0, 6, 3))(1) == 9
    assert AlphaPoly()(17) == 0
    assert A(5) == 5


@pytest.mark.parametrize("point", [0.5, True, False, Fraction(1), "1"])
def test_evaluation_refuses_points_that_are_not_ints(point):
    # 0.5 gave the float 1.5 and True evaluated at 1
    with pytest.raises(TypeError, match="^evaluation point must be an int$"):
        AlphaPoly((0, 6, 3))(point)


def test_rejects_non_int_coefficients():
    with pytest.raises(TypeError):
        AlphaPoly((1.5,))
    with pytest.raises(TypeError):  # poly_to_record would write "True"
        AlphaPoly((True,))


@given(small_coeffs, small_coeffs, small_coeffs)
def test_ring_axioms(a, b, c):
    p, q, r = AlphaPoly(a), AlphaPoly(b), AlphaPoly(c)
    assert _add(p, q) == _add(q, p)
    assert _mul(p, q) == _mul(q, p)
    assert _add(_add(p, q), r) == _add(p, _add(q, r))
    assert _mul(_mul(p, q), r) == _mul(p, _mul(q, r))
    assert _mul(p, _add(q, r)) == _add(_mul(p, q), _mul(p, r))


@given(small_coeffs, small_coeffs, st.integers(min_value=-9, max_value=9))
def test_evaluation_is_a_ring_homomorphism(a, b, v):
    p, q = AlphaPoly(a), AlphaPoly(b)
    assert _mul(p, q)(v) == p(v) * q(v)
    assert _add(p, q)(v) == p(v) + q(v)


def test_rising_factorial_small():
    assert rising_factorial(0) == ALPHA_ONE
    assert rising_factorial(1) == A
    assert rising_factorial(3) == AlphaPoly((0, 2, 3, 1))


@pytest.mark.parametrize("m", range(1, 21))
def test_rising_factorial_shape(m):
    p = rising_factorial(m)
    assert p.degree == m
    assert p.coeffs[-1] == 1
    assert p.coeffs[0] == 0


def test_rising_factorial_stirling_numbers():
    # c(m+1, j) = c(m, j-1) + m*c(m, j), unsigned first kind
    c = {(0, 0): 1}
    for m in range(20):
        for j in range(m + 2):
            c[(m + 1, j)] = c.get((m, j - 1), 0) + m * c.get((m, j), 0)
    for m in range(21):
        p = rising_factorial(m)
        for j in range(m + 1):
            assert p.coeffs[j] == c.get((m, j), 0)


def test_rising_factorial_any_call_order():
    rising_factorial.cache_clear()
    for m in (7, 3, 9, 0, 8):
        want = ALPHA_ONE
        for i in range(m):
            want = _mul(want, AlphaPoly((i, 1)))
        assert rising_factorial(m) == want


def test_rising_factorial_deep_on_a_cold_cache():
    rising_factorial.cache_clear()
    assert rising_factorial(3000)(1) == factorial(3000)


def test_divide_exact_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        p = AlphaPoly(rng.randrange(-20, 21) for _ in range(rng.randrange(1, 5)))
        q = AlphaPoly([rng.randrange(-20, 21) for _ in range(rng.randrange(4))] + [rng.choice([-3, -1, 1, 2])])
        if not p or not q:
            continue
        assert divide_exact(_mul(p, q), q) == p


def test_divide_exact_failures():
    with pytest.raises(InexactDivision):
        divide_exact(A, AlphaPoly((2,)))  # a / 2
    with pytest.raises(InexactDivision):
        divide_exact(AlphaPoly((1, 1)), A)  # remainder 1
    with pytest.raises(ZeroDivisionError):
        divide_exact(A, AlphaPoly())
    assert divide_exact(AlphaPoly(), A) == AlphaPoly()


def _divide_over_q(num: AlphaPoly, den: AlphaPoly):
    """Reference: long division over Q, giving (quotient, remainder) as Fractions."""
    rem = [Fraction(c) for c in num.coeffs]
    dc = den.coeffs
    quot = [Fraction(0)] * (len(rem) - len(dc) + 1)
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = rem[i + len(dc) - 1] / dc[-1]
        for j, d in enumerate(dc):
            rem[i + j] -= quot[i] * d
    return quot, rem


def _reference_divide(num: AlphaPoly, den: AlphaPoly) -> AlphaPoly | None:
    """The exact integral quotient over Q, or None where divide_exact must raise."""
    if not num:
        return AlphaPoly()
    if num.degree < den.degree:
        return None
    quot, rem = _divide_over_q(num, den)
    if any(rem) or any(q.denominator != 1 for q in quot):
        return None
    return AlphaPoly([int(q) for q in quot])


def _random_poly(rng, max_len, bound):
    return AlphaPoly([rng.randint(-bound, bound) for _ in range(rng.randint(1, max_len))])


def _random_divisor(rng):
    """Nonzero, often non-monic, often negative-leading, sometimes of degree 0."""
    lead = rng.choice([-7, -3, -2, -1, 1, 2, 3, 5, 12])
    low = [rng.randint(-9, 9) for _ in range(rng.choice([0, 0, 1, 2, 3]))]
    return AlphaPoly(low + [lead])


def _check_against_reference(num, den):
    want = _reference_divide(num, den)
    if want is None:
        with pytest.raises(InexactDivision):
            divide_exact(num, den)
    else:
        assert divide_exact(num, den) == want
    return want


def test_divide_exact_matches_rational_division_on_exact_products():
    rng = random.Random(20240611)
    for _ in range(400):
        q, den = _random_poly(rng, 8, 10**12), _random_divisor(rng)
        num = _mul(q, den)
        assert _check_against_reference(num, den) == q


def test_divide_exact_rejects_perturbed_numerators():
    rng = random.Random(611)
    for _ in range(400):
        q, den = _random_poly(rng, 8, 10**12), _random_divisor(rng)
        if den.degree == 0:
            if abs(den.coeffs[0]) == 1:
                continue
            delta = AlphaPoly([1])  # constant term no longer a multiple of den
        else:
            # a nonzero remainder of lower degree than den: never exact over Q
            delta = AlphaPoly([0] * rng.randrange(den.degree) + [rng.choice([-5, -1, 1, 4])])
        num = _add(_mul(q, den), delta)
        assert _check_against_reference(num, den) is None


def test_divide_exact_rejects_fractional_quotients():
    rng = random.Random(12)
    for _ in range(400):
        c = rng.choice([2, 3, 6, 10])
        base = _random_divisor(rng)
        q = _random_poly(rng, 6, 1000)
        if all(x % c == 0 for x in q.coeffs):
            q = _add(q, AlphaPoly((1,)))
        # (q * base) / (c * base) = q / c: no remainder, a fractional coefficient
        num, den = _mul(q, base), _mul(base, AlphaPoly((c,)))
        quot, rem = _divide_over_q(num, den)
        assert not any(rem) and any(x.denominator != 1 for x in quot)
        assert _check_against_reference(num, den) is None


def test_divide_exact_matches_rational_division_on_arbitrary_pairs():
    rng = random.Random(5)
    for _ in range(400):
        _check_against_reference(_random_poly(rng, 6, 30), _random_divisor(rng))


@pytest.mark.parametrize("unit", [1, -1])
def test_divide_exact_by_a_unit_is_the_numerator_times_the_unit(unit):
    rng = random.Random(unit)
    den = AlphaPoly((unit,))
    for num in [AlphaPoly(), *(_random_poly(rng, 8, 10**30) for _ in range(200))]:
        got = divide_exact(num, den)
        assert got.coeffs == tuple(unit * c for c in num.coeffs)
        assert got == _reference_divide(num, den)


def test_divide_exact_by_any_other_divisor_divides_as_before():
    # only the constants 1 and -1 skip the long division; the reference
    # tests above draw every other divisor, and each InexactDivision keeps
    # its message, a unit lead or a constant divisor included
    for num, den, message in [
        (A, AlphaPoly((2,)), "fractional quotient coefficient"),
        (AlphaPoly((3,)), AlphaPoly((-2,)), "fractional quotient coefficient"),
        (AlphaPoly((1, 1)), A, "nonzero remainder"),
        (AlphaPoly((1, 1)), AlphaPoly((1, -1)), "nonzero remainder"),
        (AlphaPoly((3,)), AlphaPoly((1, 1)), "degree 0 < divisor degree 1"),
    ]:
        with pytest.raises(InexactDivision, match=f"^{message}$"):
            divide_exact(num, den)


def test_record_round_trip():
    p = AlphaPoly((0, 6, 3))
    rec = poly_to_record(p)
    assert rec == {"variable": "a", "coeffs": ["0", "6", "3"]}
    assert poly_from_record(rec) == p
    assert poly_from_record({"variable": "a", "coeffs": []}) == AlphaPoly()


def test_record_accepts_minus_signed_strings():
    assert poly_from_record({"variable": "a", "coeffs": ["1", "-2"]}) == AlphaPoly((1, -2))
    assert poly_from_record("-7") == AlphaPoly((-7,))


@pytest.mark.parametrize(
    "bad",
    [
        {"variable": "x", "coeffs": []},
        {"variable": "a", "coeffs": ["1", "0"]},  # trailing zero
        {"variable": "a", "coeffs": ["1.5"]},
        {"variable": "a", "coeffs": "1"},
        [],
        # int() takes each of these; a record's decimal strings are plain
        {"variable": "a", "coeffs": [" 7"]},
        {"variable": "a", "coeffs": ["1_0"]},
        {"variable": "a", "coeffs": ["+3"]},
        {"variable": "a", "coeffs": ["\u0663"]},  # ARABIC-INDIC DIGIT THREE
        {"variable": "a", "coeffs": ["7\n"]},
        {"variable": "a", "coeffs": ["-"]},
        {"variable": "a", "coeffs": [""]},
        " 7",
        "+3",
    ],
)
def test_record_rejects_malformed(bad):
    with pytest.raises(SchemaError):
        poly_from_record(bad)


def test_text_rendering():
    assert str(AlphaPoly()) == "0"
    assert str(AlphaPoly((0, 6, 3))) == "3*a^2 + 6*a"
    assert str(AlphaPoly((1, -2))) == "-2*a + 1"
    assert str(AlphaPoly((0, 0, 1))) == "a^2"


# --- operator coefficients: (deg_n, deg_a, c) triples --------------------

ONE = ((0, 0, 1),)


def test_bivar_eval():
    p = ((0, 0, 3), (1, 0, 2))  # 2n + 3
    assert coeff_at(p, 0) == [3]
    assert coeff_at(p, 5) == [13]
    q = ((0, 1, 20), (1, 1, 8))  # 4a(2n + 5)
    assert coeff_at(q, 0) == [0, 20]
    assert AlphaPoly(coeff_at(q, 1))(2) == 56


def test_bivar_content_and_leading():
    # 4na + 6n over 6n: the content 2 is divided out
    op = RecurrenceOperator((((1, 0, 6),), ((1, 0, 6), (1, 1, 4))))
    assert op.coeffs == (((1, 0, 3),), ((1, 0, 3), (1, 1, 2)))
    # the last triple of the top coefficient is made positive
    want = (ONE, ((0, 0, -5), (1, 0, 1)))
    assert RecurrenceOperator(want).coeffs == want
    negated = ((0, 0, -1),), ((0, 0, 5), (1, 0, -1))
    assert RecurrenceOperator(negated).coeffs == want
    # lex order puts n before a: the n term leads the a^2 term
    assert RecurrenceOperator((ONE, ((0, 2, 3), (1, 0, -1)))).coeffs[1] == (
        (0, 2, -3), (1, 0, 1),
    )


def test_bivar_degrees_and_str():
    p = ((0, 0, -10), (0, 1, 7), (1, 0, -14), (2, 1, 4))
    assert render_terms(p, ("n", "a")) == "4*n^2*a - 14*n + 7*a - 10"
    assert render_terms(((0, 0, 3), (1, 0, 2)), ("n", "a")) == "2*n + 3"
    assert render_terms((), ("n", "a")) == "0"
