import pytest

from multiderange.enumerator import fk_value
from multiderange.polys import (
    ALPHA_ONE,
    AlphaPoly,
    BivarPoly,
    InexactDivision,
    SchemaError,
)
from multiderange.recurrence import (
    LeadingCoefficientZero,
    PolySequence,
    RecurrenceOperator,
    UnsupportedK,
    WindowTooShort,
    builtin_operator,
    extend_sequence,
    first_failure,
    fk_sequence_via_recurrence,
    load_operator,
    load_sequence,
    operator_from_record,
    operator_seed,
    operator_to_record,
    save_operator,
    save_sequence,
    sequence_from_record,
    sequence_to_record,
    specialize_alpha,
    verify_operator,
)

ONE = BivarPoly({(0, 0): 1})
SHIFT_MINUS_ONE = RecurrenceOperator((BivarPoly({(0, 0): -1}), ONE))


def const_seq(values, start=0):
    return PolySequence(start=start, values=tuple(AlphaPoly((v,)) for v in values))


def test_builtin_k1_coefficients():
    op = builtin_operator(1)
    assert op.order == 2
    assert op.valid_from == 0
    assert op.coeffs[0] == BivarPoly({(0, 1): -1, (1, 1): -1})  # -a(n + 1)
    assert op.coeffs[1] == BivarPoly({(0, 0): -1, (1, 0): -1})  # -(n + 1)
    assert op.coeffs[2] == ONE


def test_builtin_k2_coefficients():
    op = builtin_operator(2)
    assert builtin_operator(2) is op  # parsed once per process
    assert op.order == 3
    assert op.valid_from == 0
    assert op.coeffs[3] == BivarPoly({(0, 0): 3, (1, 0): 2})  # 2n + 3
    # spot values of the other coefficients at small points
    assert op.coeffs[0].eval_n(0)(1) == 4 * 1 * 5 * 2 * 1 * 4
    assert op.coeffs[2].eval_n(0)(0) == -2 * 2 * 17
    assert op.coeffs[1].eval_n(0)(0) == 2 * 2 * 1 * (-10)
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
        assert all(c.eval_n(n)(a) == f(n, a) for n in range(-4, 5) for a in range(-4, 5))


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
        assert v.coeff(0) == 0
        assert v.degree <= (2 * n) // 2
    # the built-in annihilates its own extension on every window
    assert verify_operator(builtin_operator(2), ext)


def test_specialized_alpha_one_gives_derangement_numbers():
    ints = specialize_alpha(builtin_operator(1), 1)
    ext = extend_sequence(ints, const_seq([1, 0]), 12)
    got = [v(1) for v in ext.values]
    classical = [1, 0]
    for n in range(1, 12):
        classical.append(n * (classical[n] + classical[n - 1]))
    assert got == classical


def test_f1_to_1000_at_alpha_one_gives_derangement_numbers():
    got = [v(1) for v in fk_sequence_via_recurrence(1, 1000).values]
    d = [1]
    for n in range(1, 1001):
        d.append(n * d[-1] + (-1) ** n)
    assert got == d


def test_specialize_alpha_rejects_degenerate():
    op = RecurrenceOperator((BivarPoly({(0, 0): -1}), BivarPoly({(0, 1): 1})))
    with pytest.raises(ValueError):
        specialize_alpha(op, 0)


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


def test_extend_inexact_division():
    halver = RecurrenceOperator((BivarPoly({(0, 0): -1}), BivarPoly({(0, 0): 2})))
    with pytest.raises(InexactDivision):
        extend_sequence(halver, const_seq([1]), 3)


def test_extend_leading_coefficient_zero():
    # (n - 2) F(n+1) = (n - 2) F(n): F(n+1) = F(n), dies at n=2
    op = RecurrenceOperator(
        (BivarPoly({(0, 0): 2, (1, 0): -1}), BivarPoly({(0, 0): -2, (1, 0): 1}))
    )
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
            m = min(max(0, valid_from), last) + order - 1
            assert (seed.start, seed.k) == (0, k)
            assert seed.values == tuple(fk_value(k, n) for n in range(m + 1))


def test_normalization():
    op = builtin_operator(1)
    scaled = RecurrenceOperator(
        tuple(BivarPoly({pq: -6 * v for pq, v in c.terms.items()}) for c in op.coeffs),
        op.valid_from,
    )
    assert scaled == op
    assert RecurrenceOperator(op.coeffs, op.valid_from) == op


def test_operator_requires_nonzero_leading():
    with pytest.raises(ValueError):
        RecurrenceOperator((ONE, BivarPoly()))
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


def test_sequence_file_round_trip(tmp_path):
    seq = PolySequence(0, tuple(fk_value(1, n) for n in range(5)), k=1)
    path = tmp_path / "f1.json"
    save_sequence(seq, path)
    assert load_sequence(path) == seq
    rec = sequence_to_record(seq)
    assert rec["schema"] == "poly-sequence/v1"
    assert sequence_from_record(rec) == seq


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
