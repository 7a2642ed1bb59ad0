import json
import sys
from contextlib import contextmanager
from functools import partial
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from multiderange.enumerator import fk_sequence_direct, fk_value
from multiderange.guesser import MAX_SYSTEM_BITS
from multiderange.polys import (
    AlphaPoly,
    InexactDivision,
    SchemaError,
    poly_from_record,
    poly_to_record,
)
from multiderange.recurrence import (
    MAX_OPERATOR_DEGREE,
    LeadingCoefficientZero,
    PolySequence,
    RecurrenceOperator,
    UnsupportedK,
    WindowTooShort,
    builtin_operator,
    coeff_at,
    extend_sequence,
    first_failure,
    fk_sequence_via_recurrence,
    load_operator,
    load_sequence,
    operator_from_record,
    operator_seed,
    operator_to_record,
    record_chunks,
    save_operator,
    save_sequence,
    sequence_from_record,
    sequence_to_record,
    verify_operator,
    windows,
)

ALPHA_ONE = AlphaPoly((1,))
ONE = ((0, 0, 1),)
SHIFT_MINUS_ONE = RecurrenceOperator((((0, 0, -1),), ONE))


def const_seq(values, start=0):
    return PolySequence(start=start, values=tuple(AlphaPoly((v,)) for v in values))


def test_builtin_k1_coefficients():
    op = builtin_operator(1)
    assert op.order == 2
    assert op.valid_from == 0
    assert op.coeffs[0] == ((0, 1, -1), (1, 1, -1))  # -a(n + 1)
    assert op.coeffs[1] == ((0, 0, -1), (1, 0, -1))  # -(n + 1)
    assert op.coeffs[2] == ONE


def test_builtin_k2_coefficients():
    op = builtin_operator(2)
    assert builtin_operator(2) is op  # parsed once per process
    assert op.order == 3
    assert op.valid_from == 0
    assert op.coeffs[3] == ((0, 0, 3), (1, 0, 2))  # 2n + 3
    # spot values of the other coefficients at small points
    assert AlphaPoly(coeff_at(op.coeffs[0], 0))(1) == 4 * 1 * 5 * 2 * 1 * 4
    assert AlphaPoly(coeff_at(op.coeffs[2], 0))(0) == -2 * 2 * 17
    assert AlphaPoly(coeff_at(op.coeffs[1], 0))(0) == 2 * 2 * 1 * (-10)
    # the shipped record equals the closed form on a grid wider than every
    # degree, hence identically
    closed = (
        lambda n, a: 4 * a * (2 * n + 5) * (n + 2) * (n + 1) * (a + 1) ** 2,
        lambda n, a: 2 * (n + 2) * (a + 1) * (
            4 * a * n**2 + 12 * a * n - 4 * n**2 + 7 * a - 14 * n - 10
        ),
        lambda n, a: -2 * (n + 2) * (4 * a * n + 4 * n**2 + 8 * a + 16 * n + 17),
        lambda n, a: 2 * n + 3,
    )
    for c, f in zip(op.coeffs, closed):
        assert all(AlphaPoly(coeff_at(c, n))(a) == f(n, a)
                   for n in range(-4, 5) for a in range(-4, 5))


def test_builtin_unsupported():
    with pytest.raises(UnsupportedK):
        builtin_operator(3)
    with pytest.raises(UnsupportedK):
        builtin_operator(0)
    with pytest.raises(UnsupportedK):
        builtin_operator(10**300)  # longer than any file name


def test_extend_k1():
    seed = PolySequence(start=0, values=(ALPHA_ONE, AlphaPoly()), k=1)
    ext = extend_sequence(builtin_operator(1), seed, 4)
    assert ext.values == (
        ALPHA_ONE,
        AlphaPoly(),
        AlphaPoly((0, 1)),
        AlphaPoly((0, 2)),
        AlphaPoly((0, 6, 3)),
    )


def test_extend_k2():
    seed = PolySequence(
        start=0, values=(ALPHA_ONE, AlphaPoly(), AlphaPoly((0, 2, 2))), k=2
    )
    ext = extend_sequence(builtin_operator(2), seed, 3)
    assert ext.value_at(3) == AlphaPoly((0, 32, 40, 8))


@pytest.mark.parametrize("k", [1, 2])
def test_extend_matches_direct_evaluation(k):
    ext = fk_sequence_via_recurrence(k, 10)
    for n in range(11):
        assert ext.value_at(n) == fk_value(k, n)


@pytest.mark.parametrize("valid_from", [-2, 0, 1, 3, 50])
@pytest.mark.parametrize("last", [0, 1, 2, 5, 20])
def test_extension_seeds_through_valid_from(valid_from, last):
    op = RecurrenceOperator(builtin_operator(2).coeffs, valid_from=valid_from)
    ext = fk_sequence_via_recurrence(2, last, op)
    assert ext.start == 0
    assert ext.values == tuple(fk_value(2, n) for n in range(last + 1))


def test_extended_values_keep_the_structural_invariants():
    ext = fk_sequence_via_recurrence(2, 12)
    for n in range(1, 13):
        v = ext.value_at(n)
        assert all(c >= 0 for c in v.coeffs)
        assert not v.coeffs or v.coeffs[0] == 0
        assert v.degree <= (2 * n) // 2
    # the built-in annihilates its own extension on every window
    assert verify_operator(builtin_operator(2), ext)


def test_specialized_alpha_one_gives_derangement_numbers():
    # F(n+2) = (n+1)(F(n+1) + F(n)), with no a in it
    classical_op = RecurrenceOperator((((0, 0, -1), (1, 0, -1)),
                                       ((0, 0, -1), (1, 0, -1)), ONE))
    # the shipped k=1 operator at a = 1 is that recurrence
    for n in range(21):
        assert [[sum(coeff_at(c, n))] for c in builtin_operator(1).coeffs] == [
            coeff_at(c, n) for c in classical_op.coeffs]
    ext = extend_sequence(classical_op, const_seq([1, 0]), 12)
    got = [v(1) for v in ext.values]
    classical = [1, 0]
    for n in range(1, 12):
        classical.append(n * (classical[n] + classical[n - 1]))
    assert got == classical


@pytest.mark.parametrize("k, last", [(1, 10001), (2, 5001)])
def test_extension_is_held_to_the_direct_budget(k, last):
    # the seed refuses what fk_sequence_direct refuses, with the same
    # message, so no extension takes a step past the budget
    op = builtin_operator(k)
    for build in (fk_sequence_direct, fk_sequence_via_recurrence,
                  partial(fk_sequence_via_recurrence, op=op),
                  partial(operator_seed, op=op)):
        with pytest.raises(ValueError, match="^shape too large"):
            build(k, last=last)
    # one index short, the seed is made: the budget is k * last <= 10 000
    assert operator_seed(k, op, last - 1) == fk_sequence_direct(k, op.order - 1)


def test_f1_to_1000_at_alpha_one_gives_derangement_numbers():
    got = [v(1) for v in fk_sequence_via_recurrence(1, 1000).values]
    d = [1]
    for n in range(1, 1001):
        d.append(n * d[-1] + (-1) ** n)
    assert got == d


def test_extend_preconditions():
    op = builtin_operator(1)
    with pytest.raises(ValueError):
        extend_sequence(op, PolySequence(0, (ALPHA_ONE,)), 5)  # too few seeds
    seed = PolySequence(start=0, values=(ALPHA_ONE, AlphaPoly()))
    with pytest.raises(ValueError):
        extend_sequence(op, seed, 0)  # target before last seed index
    assert extend_sequence(op, seed, 1).values == seed.values
    # a step's window must be valid, not the seed's first index
    late = RecurrenceOperator(op.coeffs, valid_from=1)
    with pytest.raises(ValueError):
        extend_sequence(late, seed, 2)  # first window n=0
    assert extend_sequence(late, seed, 1).values == seed.values  # no step
    seed3 = operator_seed(1, late, 5)
    assert len(seed3) == 3
    assert extend_sequence(late, seed3, 5).values == tuple(fk_value(1, n) for n in range(6))


def test_extend_to_the_seeds_end_checks_nothing():
    # no step to take: a seed shorter than the order, or ending before
    # valid_from, is returned as it is
    for op in (builtin_operator(2), RecurrenceOperator(builtin_operator(2).coeffs, 9)):
        for seed in (PolySequence(0, (), k=2), PolySequence(0, (ALPHA_ONE,), k=2)):
            assert extend_sequence(op, seed, seed.last) == seed
    with pytest.raises(ValueError, match="at least 3 values"):
        extend_sequence(builtin_operator(2), PolySequence(0, (ALPHA_ONE,), k=2), 1)


@pytest.mark.parametrize("k", [1, 2])
def test_seed_composes_with_extension_for_every_last(k):
    op = builtin_operator(k)
    for last in range(7):
        seed = operator_seed(k, op, last)
        assert seed == fk_sequence_direct(k, min(op.order - 1, last))
        assert extend_sequence(op, seed, last) == fk_sequence_direct(k, last)
        assert fk_sequence_via_recurrence(k, last) == fk_sequence_direct(k, last)


@pytest.mark.parametrize("bad", [5.5, True, "5"])
def test_index_arguments_follow_the_index_rule(bad):
    # a float target used to extend through index 6, a float last through 5
    op = builtin_operator(1)
    seed = operator_seed(1, op, 5)
    with pytest.raises(TypeError, match="target: expected an integer"):
        extend_sequence(op, seed, bad)
    with pytest.raises(TypeError, match="last: expected an integer"):
        operator_seed(1, op, bad)
    with pytest.raises(TypeError, match="last: expected an integer"):
        fk_sequence_via_recurrence(1, bad)
    with pytest.raises(TypeError, match="^index: expected an integer$"):
        seed.value_at(bad)  # True read the value at start + 1
    assert extend_sequence(op, seed, 6) == fk_sequence_direct(1, 6)
    assert fk_sequence_via_recurrence(1, 5) == fk_sequence_direct(1, 5)


def test_extend_inexact_division():
    halver = RecurrenceOperator((((0, 0, -1),), ((0, 0, 2),)))
    with pytest.raises(InexactDivision):
        extend_sequence(halver, const_seq([1]), 3)


def test_extend_leading_coefficient_zero():
    # (n - 2) F(n+1) = (n - 2) F(n): F(n+1) = F(n), dies at n=2
    op = RecurrenceOperator((((0, 0, 2), (1, 0, -1)), ((0, 0, -2), (1, 0, 1))))
    ext = extend_sequence(op, const_seq([7]), 1)
    assert ext.value_at(1) == AlphaPoly((7,))
    with pytest.raises(LeadingCoefficientZero):
        extend_sequence(op, const_seq([7]), 3)


def test_verify_operator():
    assert verify_operator(SHIFT_MINUS_ONE, const_seq([1, 1, 1]))
    assert not verify_operator(SHIFT_MINUS_ONE, const_seq([1, 2, 4]))
    f1 = PolySequence(0, tuple(fk_value(1, n) for n in range(7)), k=1)
    assert verify_operator(builtin_operator(1), f1)
    assert first_failure(SHIFT_MINUS_ONE, const_seq([1, 1, 2, 2])) == 1


def test_verify_window_too_short():
    with pytest.raises(WindowTooShort):
        verify_operator(builtin_operator(1), const_seq([1, 0]))


def test_windows():
    op = builtin_operator(1)  # order 2
    assert windows(op, const_seq([1] * 5)) == range(0, 3)
    late = RecurrenceOperator(op.coeffs, valid_from=2)
    assert windows(late, const_seq([1] * 5, start=1)) == range(2, 4)
    assert windows(late, const_seq([1] * 3, start=2)) == range(2, 3)
    for seq in (const_seq([1] * 3, start=1), const_seq([1, 1])):
        with pytest.raises(WindowTooShort, match="need at least 3 values at or after n=2"):
            windows(late, seq)
        with pytest.raises(WindowTooShort):
            first_failure(late, seq)


def test_operator_seed():
    seed = operator_seed(1, builtin_operator(1), 10)
    assert (seed.start, seed.k) == (0, 1)
    assert seed.values == (ALPHA_ONE, AlphaPoly())
    assert operator_seed(2, builtin_operator(2), 10).values == (
        ALPHA_ONE,
        AlphaPoly(),
        AlphaPoly((0, 2, 2)),
    )
    assert operator_seed(4, SHIFT_MINUS_ONE, 10).values == (ALPHA_ONE,)
    with pytest.raises(ValueError):
        operator_seed(0, builtin_operator(1), 2)


@pytest.mark.parametrize("valid_from", [-2, 0, 1, 3, 50])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_operator_seed_matches_fk_value(k, valid_from):
    for order in (1, 2, 3):
        op = RecurrenceOperator((ONE,) * (order + 1), valid_from=valid_from)
        for last in (0, 1, 2, 5, 9):
            seed = operator_seed(k, op, last)
            m = min(max(0, valid_from) + order - 1, last)
            assert (seed.start, seed.k) == (0, k)
            assert seed.values == tuple(fk_value(k, n) for n in range(m + 1))


def test_normalization():
    op = builtin_operator(1)
    scaled = RecurrenceOperator(
        tuple(tuple((p, q, -6 * x) for p, q, x in c) for c in op.coeffs),
        op.valid_from,
    )
    assert scaled == op
    assert RecurrenceOperator(op.coeffs, op.valid_from) == op


def test_operator_text_rendering():
    assert str(builtin_operator(1)) == (
        "(-n*a - a) * F(n) + (-n - 1) * F(n+1) + (1) * F(n+2) = 0"
    )
    assert str(builtin_operator(2)) == (
        "(8*n^3*a^3 + 16*n^3*a^2 + 8*n^3*a + 44*n^2*a^3 + 88*n^2*a^2 + 44*n^2*a"
        " + 76*n*a^3 + 152*n*a^2 + 76*n*a + 40*a^3 + 80*a^2 + 40*a) * F(n)"
        " + (8*n^3*a^2 - 8*n^3 + 40*n^2*a^2 - 4*n^2*a - 44*n^2 + 62*n*a^2"
        " - 14*n*a - 76*n + 28*a^2 - 12*a - 40) * F(n+1)"
        " + (-8*n^3 - 8*n^2*a - 48*n^2 - 32*n*a - 98*n - 32*a - 68) * F(n+2)"
        " + (2*n + 3) * F(n+3) = 0"
    )


def test_operator_drops_zero_terms():
    op = RecurrenceOperator((((0, 0, 4), (0, 3, 0), (1, 0, 2)), ((0, 0, 0), (0, 1, 2))))
    assert op.coeffs == (((0, 0, 2), (1, 0, 1)), ((0, 1, 1),))


@pytest.mark.parametrize(
    "coeffs, error",
    [
        ((ONE, ((0, 0, 1.0),)), TypeError),
        ((ONE, ((0, 0, True),)), TypeError),
        ((ONE, ((False, 0, 1),)), TypeError),
        ((ONE, ((0, "1", 1),)), TypeError),
        ((ONE, ((0, -1, 1),)), ValueError),
        ((ONE, ((0, 0, 1), (0, 0, 2))), ValueError),  # repeated monomial
        ((ONE, ((1, 0, 1), (0, 0, 1))), ValueError),  # unsorted
        ((ONE, ((0, 1, 1), (0, 0, 1))), ValueError),  # unsorted in deg_a
        ((ONE, ((0, 0, 1), (0, 0))), ValueError),  # not a triple
    ],
)
def test_operator_checks_its_triples(coeffs, error):
    with pytest.raises(error):
        RecurrenceOperator(coeffs)


triple_dicts = st.dictionaries(
    st.tuples(st.integers(0, 60), st.integers(0, 60)),
    st.integers(-(10**30), 10**30),
    max_size=6,
)


@given(st.lists(triple_dicts, min_size=2, max_size=4), st.integers(-5, 5))
def test_random_sparse_triples(dicts, n):
    raw = [tuple((p, q, c) for (p, q), c in sorted(d.items())) for d in dicts]
    if not any(c for _, _, c in raw[-1]):
        with pytest.raises(ValueError):
            RecurrenceOperator(tuple(raw))
        return
    op = RecurrenceOperator(tuple(raw))
    # the stored form: sorted, no zero term, content 1, top's last triple > 0
    for c in op.coeffs:
        assert all(x for _, _, x in c)
        assert [t[:2] for t in c] == sorted({t[:2] for t in c})
    assert gcd(*(x for c in op.coeffs for _, _, x in c)) == 1
    assert op.coeffs[-1][-1][2] > 0
    # a fixed nonzero multiple of the input
    scale = {t[:2]: t[2] for t in raw[-1]}[op.coeffs[-1][-1][:2]] // op.coeffs[-1][-1][2]
    for c, d in zip(op.coeffs, dicts):
        assert {(p, q): scale * x for p, q, x in c} == {k: v for k, v in d.items() if v}
    assert RecurrenceOperator(op.coeffs, op.valid_from) == op
    rec = json.loads(json.dumps(operator_to_record(op)))
    assert operator_from_record(rec) == op
    for c in op.coeffs:
        at_n = AlphaPoly(coeff_at(c, n))
        for a in (-3, 0, 2):
            assert at_n(a) == sum(x * n**p * a**q for p, q, x in c)


@pytest.mark.parametrize("valid_from", [True, 1.5, "1"])
def test_operator_valid_from_must_be_an_int(valid_from):
    # save_operator would write it, and operator_from_record refuse it
    with pytest.raises(TypeError):
        RecurrenceOperator(builtin_operator(1).coeffs, valid_from=valid_from)


@pytest.mark.parametrize("field", ["start", "k"])
@pytest.mark.parametrize("value", [True, 1.5, "1"])
def test_sequence_indices_must_be_ints(field, value):
    # save_sequence would write it, and sequence_from_record refuse it
    with pytest.raises(TypeError):
        PolySequence(**{"start": 0, "values": (ALPHA_ONE,), field: value})


# What the constructors accept as an index (start, k, valid_from), and what
# they refuse: an int, not a bool, of at most 640 digits.
_INDICES = [0, 1, -1, 10**640 - 1, -(10**640 - 1)]
_NOT_INDICES = [True, False, 1.5, "1", 10**640, -(10**640)]
_INDEX_DRAWS = st.sampled_from([(v, True) for v in _INDICES]
                               + [(v, False) for v in _NOT_INDICES])


@contextmanager
def _digit_limit(digits):
    """Python's int/str digit limit set to digits, where the interpreter has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@settings(deadline=None)
@given(start=_INDEX_DRAWS, k=st.just((None, True)) | _INDEX_DRAWS)
def test_every_sequence_that_is_built_round_trips(tmp_path_factory, start, k):
    """A sequence the constructor accepts is written, read back and printed
    at Python's lowest digit limit; one it refuses is never written."""
    (start, start_ok), (k, k_ok) = start, k
    path = tmp_path_factory.mktemp("seq") / "s.json"
    with _digit_limit(640):
        try:
            seq = PolySequence(start, (ALPHA_ONE, AlphaPoly((0, 1))), k=k)
        except (TypeError, ValueError):
            assert not (start_ok and k_ok)
            return
        assert start_ok and k_ok
        save_sequence(seq, path)
        assert load_sequence(path) == seq
        assert repr(seq) == (f"PolySequence(start={start}, values=(AlphaPoly([1]), "
                             f"AlphaPoly([0, 1])), k={k})")


@settings(deadline=None)
@given(dicts=st.lists(triple_dicts, min_size=2, max_size=4), valid_from=_INDEX_DRAWS)
def test_every_operator_that_is_built_round_trips(tmp_path_factory, dicts, valid_from):
    valid_from, ok = valid_from
    raw = [tuple((p, q, c) for (p, q), c in sorted(d.items())) for d in dicts]
    raw[-1] += ((61, 0, 1),)  # past triple_dicts' degrees: a nonzero leading term
    path = tmp_path_factory.mktemp("op") / "op.json"
    with _digit_limit(640):
        try:
            op = RecurrenceOperator(tuple(raw), valid_from)
        except (TypeError, ValueError):
            assert not ok
            return
        assert ok
        save_operator(op, path)
        assert load_operator(path) == op
        assert repr(op).endswith(f", valid_from={valid_from})")


@pytest.mark.parametrize("value", _NOT_INDICES,
                         ids=["true", "false", "float", "str", "big", "-big"])
@pytest.mark.parametrize("field", ["start", "k", "valid_from"])
def test_records_refuse_an_index_by_the_constructors_rule(field, value):
    """The readers refuse what the constructors refuse, with the
    constructor's message after the record's prefix."""
    if field == "valid_from":
        build = lambda: RecurrenceOperator(SHIFT_MINUS_ONE.coeffs, valid_from=value)
        read, prefix = operator_from_record, "operator."
        rec = operator_to_record(SHIFT_MINUS_ONE)
    else:
        build = lambda: PolySequence(**{"start": 0, "values": (ALPHA_ONE,), field: value})
        read, prefix = sequence_from_record, "sequence."
        rec = sequence_to_record(PolySequence(0, (ALPHA_ONE,)))
    with pytest.raises((TypeError, ValueError)) as built:
        build()
    rec[field] = value
    with pytest.raises(SchemaError) as info:
        read(rec)
    assert str(info.value) == prefix + str(built.value)


def test_value_at_names_indices_past_the_digit_limit():
    # last = start + 1 has 641 digits, though start is an index
    top = 10**640 - 1
    with _digit_limit(640):
        with pytest.raises(IndexError) as info:
            PolySequence(top, (ALPHA_ONE, ALPHA_ONE)).value_at(0)
        assert str(info.value) == f"index 0 outside [{'9' * 640}, 1{'0' * 640}]"


def test_extension_names_a_step_past_the_digit_limit():
    # from start = 10^640 - 1, the second step is at n = 10^640
    seed = PolySequence(10**640 - 1, (ALPHA_ONE,))
    vanishing = RecurrenceOperator((ONE, ((0, 0, -10**640), (1, 0, 1))))  # n - 10^640
    halving = RecurrenceOperator((((0, 0, -1),), ((0, 0, 2),)))
    with _digit_limit(640):
        with pytest.raises(LeadingCoefficientZero) as info:
            extend_sequence(vanishing, seed, 10**640 + 1)
        assert str(info.value) == f"leading coefficient vanishes at n=1{'0' * 640}"
        two = PolySequence(seed.start, (ALPHA_ONE, ALPHA_ONE))
        with pytest.raises(InexactDivision) as info:
            extend_sequence(halving, two, 10**640 + 1)
        assert str(info.value) == (f"inexact step at n=1{'0' * 640}: "
                                   "fractional quotient coefficient")


def test_operator_requires_nonzero_leading():
    with pytest.raises(ValueError):
        RecurrenceOperator((ONE, ()))
    with pytest.raises(ValueError):
        RecurrenceOperator((ONE,))


def test_operator_file_round_trip(tmp_path):
    for k in (1, 2):
        op = builtin_operator(k)
        path = tmp_path / f"op{k}.json"
        save_operator(op, path)
        assert load_operator(path) == op


def test_operator_record_round_trip():
    op = builtin_operator(2)
    rec = operator_to_record(op)
    assert rec["schema"] == "recurrence-operator/v1"
    assert rec["order"] == 3
    assert rec["coeffs"][3] == [[0, 0, "3"], [1, 0, "2"]]
    assert operator_from_record(rec) == op


@pytest.mark.parametrize(
    "mangle",
    [
        lambda r: r.update(order=0),
        lambda r: r.update(order="3"),
        lambda r: r.update(schema="bogus/v9"),
        lambda r: r.update(coeffs=r["coeffs"][:2]),
        lambda r: r["coeffs"][0].append([0, 0, "5"]),  # unsorted monomials
        lambda r: r["coeffs"][0].__setitem__(0, [0, 0, "0"]),  # stored zero
        lambda r: r["coeffs"][0].__setitem__(0, [0, -1, "5"]),
        lambda r: r["coeffs"][0].__setitem__(0, [0, 0, "x"]),
    ],
)
def test_operator_record_rejects_malformed(mangle):
    rec = operator_to_record(builtin_operator(2))
    mangle(rec)
    with pytest.raises(SchemaError):
        operator_from_record(rec)


@pytest.mark.parametrize(
    "coeff, message",
    [
        ("1.5", "not a decimal integer: '1.5'"),
        ("", "not a decimal integer: ''"),
        (1.5, "expected a decimal string"),
    ],
)
def test_operator_record_rejects_a_bad_coefficient(coeff, message):
    rec = operator_to_record(builtin_operator(2))
    rec["coeffs"][1][2][2] = coeff
    with pytest.raises(SchemaError) as info:
        operator_from_record(rec)
    assert str(info.value) == f"operator.coeffs[1][2]: {message}"


def test_operator_degree_limit():
    rec = operator_to_record(builtin_operator(1))
    rec["coeffs"][2] = [[MAX_OPERATOR_DEGREE, MAX_OPERATOR_DEGREE, "1"]]
    assert operator_from_record(rec).coeffs[2] == ((MAX_OPERATOR_DEGREE,) * 2 + (1,),)
    for mono in ([MAX_OPERATOR_DEGREE + 1, 0, "1"], [0, 10**9, "1"]):
        rec["coeffs"][2] = [mono]
        with pytest.raises(SchemaError) as info:
            operator_from_record(rec)
        assert str(info.value) == f"operator.coeffs[2][0]: degree above {MAX_OPERATOR_DEGREE}"


def test_operator_degree_limit_is_the_constructors():
    # save_operator would write it, load_operator refuse it, and a step
    # evaluate n**(10**9)
    with pytest.raises(ValueError) as info:
        RecurrenceOperator((((10**9, 0, 1),), ((0, 0, 1),)))
    assert str(info.value) == f"coeffs[0][0]: degree above {MAX_OPERATOR_DEGREE}"


@pytest.mark.parametrize("coeffs, message", [
    ([[[0, 0, "1"]], [[1, 0, "1"], [0, 0, "1"]]],
     "coeffs[1][1]: monomials must be sorted by (deg_n, deg_a)"),
    ([[[0, 0, "1"]], [[0, 1, "1"], [0, 1, "2"]]],
     "coeffs[1][1]: monomials must be sorted by (deg_n, deg_a)"),
    ([[[0, -1, "1"]], [[0, 0, "1"]]], "coeffs[0][0]: bad exponents 0, -1"),
    ([[[0, 0, "1"]], [[0, 0, "1"], [10**4 + 1, 0, "1"]]],
     f"coeffs[1][1]: degree above {MAX_OPERATOR_DEGREE}"),
    ([[[0, 0, "1"]], []], "coeffs: leading coefficient is zero"),
], ids=["unsorted", "repeated", "negative", "degree", "leading-zero"])
def test_operator_record_reports_the_constructors_rule(coeffs, message):
    """The record and the constructor refuse the same operators, with the
    same message."""
    with pytest.raises(SchemaError) as info:
        operator_from_record({"order": 1, "coeffs": coeffs})
    assert str(info.value) == "operator." + message
    triples = tuple(tuple((p, q, int(c)) for p, q, c in c_j) for c_j in coeffs)
    with pytest.raises(ValueError) as info:
        RecurrenceOperator(triples)
    assert str(info.value) == message


@pytest.mark.parametrize("record, message", [
    ({"order": 1, "coeffs": [[[-10**5000, 0, "1"]], [[0, 0, "1"]]]},
     f"coeffs[0][0]: bad exponents -1{'0' * 5000}, 0"),
    ({"order": 1, "coeffs": [[[10**5000, "0", "1"]], [[0, 0, "1"]]]},
     f"coeffs[0][0]: bad exponents 1{'0' * 5000}, '0'"),
    ({"order": 10**5000, "coeffs": []}, f"coeffs: expected a list of 1{'0' * 4999}1 entries"),
], ids=["negative", "not-an-int", "order"])
def test_operator_record_messages_print_past_the_digit_limit(record, message):
    """A message names its place, also when it quotes an int past the
    interpreter's default limit."""
    with _digit_limit(4300), pytest.raises(SchemaError) as info:
        operator_from_record(record)
    assert str(info.value) == "operator." + message


def test_operator_degree_limit_is_above_what_guess_writes():
    # a guessed candidate has u <= equations unknowns, and its order's rows,
    # 64 bits a slot, fit in MAX_SYSTEM_BITS: 64 * u^2 <= MAX_SYSTEM_BITS;
    # with order r >= 1, (dn + 1)(da + 1) <= u // 2
    u = isqrt(MAX_SYSTEM_BITS // 64)
    assert 64 * (u + 1) ** 2 > MAX_SYSTEM_BITS
    assert u // 2 - 1 < MAX_OPERATOR_DEGREE


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda r: r.update(order=True), "operator.order: expected a positive integer"),
        (lambda r: r.update(valid_from=False), "operator.valid_from: expected an integer"),
        (lambda r: r["coeffs"][0].__setitem__(0, [False, 1, "-1"]),
         "operator.coeffs[0][0]: bad exponents False, 1"),
        (lambda r: r["coeffs"][0].__setitem__(0, [0, True, "-1"]),
         "operator.coeffs[0][0]: bad exponents 0, True"),
        (lambda r: r["coeffs"][2].__setitem__(0, [0, 0, True]),
         "operator.coeffs[2][0]: expected a decimal string"),
        (lambda r: r["coeffs"][2].__setitem__(0, [0, 0, 1]), None),  # a bare int is fine
    ],
)
def test_operator_record_rejects_booleans(mangle, message):
    rec = operator_to_record(builtin_operator(1))
    mangle(rec)
    if message is None:
        assert operator_from_record(rec) == builtin_operator(1)
        return
    with pytest.raises(SchemaError) as info:
        operator_from_record(rec)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("start", True, "sequence.start: expected an integer"),
        ("k", False, "sequence.k: expected an integer or null"),
        ("values", [True], "sequence.values[0]: expected an object, got bool"),
        ("values", [{"variable": "a", "coeffs": [False]}],
         "sequence.values[0].coeffs[0]: expected a decimal string"),
    ],
)
def test_sequence_record_rejects_booleans(field, value, message):
    rec = {"schema": "poly-sequence/v1", "start": 0, "k": 1, "values": ["1"]}
    rec[field] = value
    with pytest.raises(SchemaError) as info:
        sequence_from_record(rec)
    assert str(info.value) == message


def test_poly_record_rejects_a_bare_boolean():
    assert poly_from_record(1) == AlphaPoly((1,))
    with pytest.raises(SchemaError):
        poly_from_record(True)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int/str digit limit")
def test_records_round_trip_past_the_default_digit_limit(tmp_path):
    # the library, unlike the CLI, runs at the interpreter's limit
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        big = AlphaPoly((10**4300, -(7**9000), 3))  # 4301 and 7607 digits
        rec = poly_to_record(big)
        assert rec["coeffs"][0] == "1" + "0" * 4300
        assert poly_from_record(rec) == big
        ones = {"variable": "a", "coeffs": ["1" * 4301]}
        assert poly_from_record(ones) == AlphaPoly(((10**4301 - 1) // 9,))
        assert str(big).startswith("3*a^2 - 7627")
        seq = PolySequence(0, (AlphaPoly((1,)), big, -big), k=None)
        assert sequence_from_record(sequence_to_record(seq)) == seq
        path = tmp_path / "big.json"
        save_sequence(seq, path)
        assert load_sequence(path) == seq
        # only an optional "-" and digits; not Decimal's other spellings
        for bad in ("1e" + "1" * 4301, "1" * 4301 + ".0", "1" * 4301 + "e1"):
            with pytest.raises(SchemaError, match="not a decimal integer"):
                poly_from_record(bad)
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int/str digit limit")
def test_reprs_past_the_default_digit_limit():
    big = 10**4300  # 4301 digits
    poly = AlphaPoly((3, -big))
    seq = PolySequence(0, (ALPHA_ONE, AlphaPoly(), poly), k=2)
    ops = [RecurrenceOperator((((0, 0, -big),), ((1, 2, big), (3, 0, 1))), valid_from=2),
           RecurrenceOperator((ONE, (), ONE)), SHIFT_MINUS_ONE, builtin_operator(2)]
    old = sys.get_int_max_str_digits()
    try:
        # what the list, tuple and dataclass reprs give without a limit
        sys.set_int_max_str_digits(0)
        expected = [
            f"AlphaPoly({list(poly.coeffs)!r})",
            f"PolySequence(start=0, values=(AlphaPoly([1]), AlphaPoly([]), {poly!r}), k=2)",
            *(f"RecurrenceOperator(coeffs={op.coeffs!r}, valid_from={op.valid_from})"
              for op in ops),
        ]
        sys.set_int_max_str_digits(4300)
        assert [repr(x) for x in (poly, seq, *ops)] == expected
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int/str digit limit")
def test_json_integer_literals_past_the_default_digit_limit(tmp_path):
    """A record's bare JSON integers are read by the same rule as its
    decimal strings, in library use too."""
    seq_path, op_path = tmp_path / "s.json", tmp_path / "op.json"
    seq_path.write_text('{"schema": "poly-sequence/v1", "start": 0, "values": [1, -1'
                        + "0" * 4300 + "]}")
    op_path.write_text('{"order": 1, "coeffs": [[[0, 0, "1"]], [[1' + "0" * 4300
                       + ', 0, "1"]]]}')
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert load_sequence(seq_path) == PolySequence(0, (ALPHA_ONE, AlphaPoly((-10**4300,))))
        with pytest.raises(SchemaError, match=r"coeffs\[1\]\[0\]: degree above"):
            load_operator(op_path)
    finally:
        sys.set_int_max_str_digits(old)


def test_sequence_file_round_trip(tmp_path):
    seq = PolySequence(0, tuple(fk_value(1, n) for n in range(5)), k=1)
    path = tmp_path / "f1.json"
    save_sequence(seq, path)
    assert load_sequence(path) == seq
    rec = sequence_to_record(seq)
    assert path.read_text() == json.dumps(rec, indent=2) + "\n"
    assert rec["schema"] == "poly-sequence/v1"
    assert sequence_from_record(rec) == seq


_ALPHA_POLYS = st.lists(st.integers(-(10**40), 10**40), max_size=5).map(AlphaPoly)


@given(
    indent=st.sampled_from(["", "  "]),
    start=st.sampled_from([0, 1]),
    k=st.none() | st.integers(1, 6),
    values=st.lists(_ALPHA_POLYS, max_size=6),
)
def test_record_chunks_match_the_stdlib_encoder(indent, start, k, values):
    """The hand-joined sequence layout against json's own, with empty
    polynomials (F_k(1) = 0), negative coefficients and k = None, at the
    artifact's indent and at the envelope's."""
    rec = sequence_to_record(PolySequence(start, tuple(values), k=k))
    chunks = list(record_chunks(rec, indent))
    assert "".join(chunks) == json.dumps(rec, indent=2).replace("\n", "\n" + indent)
    assert len(chunks) == (len(values) + 2 if values else 1)


def test_a_sequence_record_reads_as_the_eager_record():
    """sequence_to_record keeps the AlphaPoly values, and every read of the
    dict gives the poly records that an eager conversion would hold."""
    seq = fk_sequence_direct(2, 5)
    eager = {"schema": "poly-sequence/v1", "start": 0, "k": 2,
             "values": [poly_to_record(v) for v in seq.values]}
    rec = sequence_to_record(seq)
    assert dict.__getitem__(rec, "values") is seq.values
    assert rec["values"] == rec.get("values") == eager["values"]
    assert rec == eager and not rec != eager and dict(rec) == {**rec} == eager
    assert list(rec.items()) == list(eager.items())
    assert list(rec.values()) == list(eager.values())
    assert json.dumps(rec) == json.dumps(eager)
    # an entry added after the values, and a replaced values list, are
    # written as they stand
    rec["note"] = eager["note"] = "x"
    assert list(record_chunks(rec)) == [json.dumps(eager, indent=2)]
    rec["values"] = eager["values"] = eager["values"][:2]
    assert list(record_chunks(rec)) == [json.dumps(eager, indent=2)]


def test_other_records_are_one_stdlib_chunk():
    op = operator_to_record(builtin_operator(2))
    # a sequence record that sequence_to_record did not build may hold
    # strings JSON must escape
    rec = {"schema": "poly-sequence/v1", "start": 0, "k": None,
           "values": [{"variable": "a", "coeffs": ['"\\\n\u0663']}]}
    for r in (op, rec):
        for indent in ("", "  "):
            assert list(record_chunks(r, indent)) == [
                json.dumps(r, indent=2).replace("\n", "\n" + indent)]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["recurrence-operator/v1", "poly-sequence/v1", "a", "-0", "1e5"])
    # 10^640 and 10^5000, built late: hypothesis prints its strategies
    | st.sampled_from([(1, 640), (-1, 640), (1, 5000)]).map(lambda se: se[0] * 10**se[1]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["schema", "order", "valid_from", "coeffs", "start", "k",
                         "values", "variable"]) | st.text(max_size=3),
        inner, max_size=5),
    max_leaves=12,
)


def _paths(node, path=()):
    """The key path of every value inside a JSON value, its own included."""
    yield path
    if isinstance(node, (list, dict)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, path + (key,))


def _replaced(node, path, value):
    """node with the value at path replaced."""
    if not path:
        return value
    out = list(node) if isinstance(node, list) else dict(node)
    out[path[0]] = _replaced(node[path[0]], path[1:], value)
    return out


_VALID_RECORDS = [
    operator_to_record(builtin_operator(1)),
    sequence_to_record(fk_sequence_direct(2, 3)),
]
_MUTATED = st.sampled_from(
    [(rec, path) for rec in _VALID_RECORDS for path in _paths(rec)]
).flatmap(lambda where: _JSON.map(lambda value: _replaced(*where, value)))


@settings(max_examples=500, deadline=None)
@given(obj=_JSON | _MUTATED)
def test_records_refuse_any_json_with_a_schema_error(obj):
    """Arbitrary JSON, and valid records with one value replaced, either
    parse or raise SchemaError, never another exception."""
    for parse in (operator_from_record, sequence_from_record):
        try:
            parse(obj)
        except SchemaError:
            pass


_BAD_COEFFS = ["1_0", "+5", " 7", "\u0663", "1e5", 5.0, True]


@settings(deadline=None)
@given(data=st.data(), bad=st.sampled_from(_BAD_COEFFS))
def test_a_bad_coefficient_in_a_file_is_named_as_in_a_record(tmp_path_factory, data, bad):
    """load_sequence turns digit strings into ints as it decodes; a
    coefficient that is not one stays, and gets sequence_from_record's
    message at its index."""
    seq = fk_sequence_direct(2, 6)
    i = data.draw(st.sampled_from([i for i, v in enumerate(seq.values) if v.coeffs]))
    j = data.draw(st.integers(0, len(seq.values[i].coeffs) - 1))
    rec = json.loads(json.dumps(sequence_to_record(seq)))
    rec["values"][i]["coeffs"][j] = bad
    path = tmp_path_factory.mktemp("seq") / "s.json"
    path.write_text(json.dumps(rec, indent=2))
    where = f"sequence.values[{i}].coeffs[{j}]: "
    message = where + (f"not a decimal integer: {bad!r}" if isinstance(bad, str)
                       else "expected a decimal string")
    for read in (lambda: load_sequence(path), lambda: sequence_from_record(rec)):
        with pytest.raises(SchemaError) as info:
            read()
        assert str(info.value) == message


def test_sequence_record_accepts_scalar_values():
    seq = sequence_from_record(
        {"schema": "poly-sequence/v1", "start": 0, "values": ["1", 2, "3"]}
    )
    assert seq.values == (AlphaPoly((1,)), AlphaPoly((2,)), AlphaPoly((3,)))


def test_sequence_record_rejects_malformed():
    with pytest.raises(SchemaError):
        sequence_from_record({"schema": "poly-sequence/v1", "values": []})
    with pytest.raises(SchemaError):
        sequence_from_record({"schema": "poly-sequence/v1", "start": "0", "values": ["1"]})
