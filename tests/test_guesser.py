import logging
from fractions import Fraction

import pytest

from multiderange import guesser
from multiderange.enumerator import fk_value
from multiderange.guesser import (
    GuessSpec,
    InsufficientTerms,
    NotFound,
    guess_operator,
    nullspace_vector,
)
from multiderange.polys import AlphaPoly, BivarPoly
from multiderange.recurrence import (
    PolySequence,
    RecurrenceOperator,
    builtin_operator,
    verify_operator,
)


def const_seq(values, start=0):
    return PolySequence(start=start, values=tuple(AlphaPoly((v,)) for v in values))


def f_seq(k, terms, start=0):
    values = tuple(fk_value(k, n) for n in range(start, start + terms))
    return PolySequence(start, values, k=k)


def test_nullspace_forced_direction():
    v = nullspace_vector([[1, -1]])
    assert v == [Fraction(1), Fraction(1)]


def test_nullspace_trivial_kernel():
    assert nullspace_vector([[1, 0], [0, 1]]) is None


def test_nullspace_underdetermined():
    v = nullspace_vector([[1, 1, -2]])
    assert v is not None and any(v)
    assert v[0] + v[1] - 2 * v[2] == 0


def test_nullspace_accepts_fractions():
    v = nullspace_vector([[Fraction(1, 2), Fraction(-1, 3)]])
    assert v is not None
    assert Fraction(1, 2) * v[0] - Fraction(1, 3) * v[1] == 0


def test_nullspace_all_zero_matrix():
    v = nullspace_vector([[0, 0, 0]])
    assert v is not None and any(v)


def test_guess_constant_sequence():
    res = guess_operator(const_seq([1] * 10), GuessSpec(2, 1, 1))
    want = RecurrenceOperator((BivarPoly.const(-1), BivarPoly.const(1)))
    assert res.operator == want
    assert res.candidate == (1, 0, 0)


def test_guess_geometric_sequence():
    res = guess_operator(const_seq([2**t for t in range(10)]), GuessSpec(2, 1, 1))
    want = RecurrenceOperator((BivarPoly.const(-2), BivarPoly.const(1)))
    assert res.operator == want


def test_rediscovers_k1_operator():
    res = guess_operator(f_seq(1, 15), GuessSpec(2, 1, 1))
    assert res.operator == builtin_operator(1)
    assert res.kernel_dim == 1


def test_soundness_on_full_sequence():
    seq = f_seq(1, 15)
    res = guess_operator(seq, GuessSpec(2, 1, 1))
    assert verify_operator(res.operator, seq)


def test_determinism():
    seq = f_seq(1, 15)
    spec = GuessSpec(2, 1, 1)
    assert guess_operator(seq, spec) == guess_operator(seq, spec)


@pytest.mark.parametrize("scale", [7, -3])
def test_scale_invariance(scale):
    seq = f_seq(1, 15)
    scaled = PolySequence(0, tuple(v * scale for v in seq.values), k=1)
    assert guess_operator(scaled, GuessSpec(2, 1, 1)).operator == builtin_operator(1)


def test_guess_respects_start_index():
    # same data shifted to start at 5 must use the true index in c_j(n, a)
    values = tuple(AlphaPoly((n,)) for n in range(5, 17))  # F(n) = n
    seq = PolySequence(start=5, values=values)
    res = guess_operator(seq, GuessSpec(2, 1, 0))
    assert verify_operator(res.operator, seq)


def test_insufficient_terms():
    with pytest.raises(InsufficientTerms):
        guess_operator(const_seq([1, 1, 1]), GuessSpec(2, 1, 1))


def test_not_found_within_bounds():
    seq = const_seq([2 ** (t * t) for t in range(12)])
    with pytest.raises(NotFound):
        guess_operator(seq, GuessSpec(1, 1, 1))


def test_spec_validation():
    with pytest.raises(ValueError):
        GuessSpec(0, 1, 1)
    with pytest.raises(ValueError):
        GuessSpec(1, -1, 0)
    with pytest.raises(ValueError):
        GuessSpec(1, 0, 0, holdout=0)


def test_rank_filter_keeps_a_matrix_with_a_kernel():
    # last row = 2*first + third, so (1, 1, -1) spans the rational kernel
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1], [3, 4, 7]]
    assert nullspace_vector(rows) is not None
    assert not guesser._full_rank_mod_p(rows, 3)


def test_rank_filter_drops_a_full_rank_matrix():
    assert guesser._full_rank_mod_p([[0, 0, 0], [1, 5, 0], [2, 0, 1], [0, 3, 4]], 3)


def test_rank_filter_passes_multiples_of_p_to_the_exact_path():
    p = guesser._PRIME
    rows = [[p, 0, 2 * p], [0, 3 * p, p], [p, p, 0]]  # det = -7 * p^3 != 0
    assert not guesser._full_rank_mod_p(rows, 3)
    assert nullspace_vector(rows) is None


@pytest.mark.parametrize("prime", [2, 3])
@pytest.mark.parametrize("k, terms", [(1, 15), (2, 16)])
@pytest.mark.parametrize("start", [0, 1])
def test_unlucky_prime_leaves_the_result_unchanged(
    monkeypatch, caplog, prime, k, terms, start
):
    seq = f_seq(k, terms, start)
    spec = GuessSpec(3, 3, 3)
    want = guess_operator(seq, spec)
    monkeypatch.setattr(guesser, "_PRIME", prime)
    with caplog.at_level(logging.DEBUG, logger="multiderange.guesser"):
        got = guess_operator(seq, spec)
    assert got == want
    assert got.operator.coeffs == builtin_operator(k).coeffs
    # the small prime really sent candidates down the exact path
    assert any(m.endswith("no exact kernel") for m in caplog.messages)


def test_each_candidate_is_logged_at_debug(caplog):
    with caplog.at_level(logging.DEBUG, logger="multiderange.guesser"):
        res = guess_operator(f_seq(1, 15), GuessSpec(2, 1, 1))
    assert res.candidate == (2, 1, 1)
    records = [r for r in caplog.records if r.name == "multiderange.guesser"]
    assert all(r.levelno == logging.DEBUG for r in records)
    assert records[-1].getMessage() == (
        f"candidate (2, 1, 1): {res.equations} x {res.unknowns}, accepted"
    )
    # every smaller shape has no operator, and full column rank mod p shows it
    assert len(records) == 8
    assert all(r.getMessage().endswith("rejected mod p") for r in records[:-1])
