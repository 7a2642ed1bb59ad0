import logging
import random
from bisect import insort

import pytest

from multiderange import guesser
from multiderange.enumerator import fk_value
from multiderange.guesser import (
    GuessSpec,
    InsufficientTerms,
    NotFound,
    guess_operator,
)
from multiderange.polys import AlphaPoly, BivarPoly, add_product
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


def fit_rows(seq, r, dn, da, holdout):
    fit = seq.values[: len(seq.values) - holdout]
    return guesser._fit_rows(fit, seq.start, r, dn, da)


def nullspace_vector(rows):
    """Reference: the canonical kernel vector of an elimination on all rows."""
    ncols = len(rows[0])
    echelon, pivots = guesser._echelon(rows)
    free = guesser._free_columns(pivots, ncols)
    if not free:
        return None
    return guesser._kernel_vector(echelon, pivots, ncols, free[0])


def test_nullspace_forced_direction():
    v = nullspace_vector([[1, -1]])
    assert v == [1, 1]


def test_nullspace_trivial_kernel():
    assert nullspace_vector([[1, 0], [0, 1]]) is None


def test_nullspace_underdetermined():
    v = nullspace_vector([[1, 1, -2]])
    assert v is not None and any(v)
    assert v[0] + v[1] - 2 * v[2] == 0


def test_nullspace_all_zero_matrix():
    v = nullspace_vector([[0, 0, 0]])
    assert v is not None and any(v)


def test_guess_constant_sequence():
    res = guess_operator(const_seq([1] * 10), GuessSpec(2, 1, 1))
    want = RecurrenceOperator((BivarPoly({(0, 0): -1}), BivarPoly({(0, 0): 1})))
    assert res.operator == want
    assert res.candidate == (1, 0, 0)


def test_guess_geometric_sequence():
    res = guess_operator(const_seq([2**t for t in range(10)]), GuessSpec(2, 1, 1))
    want = RecurrenceOperator((BivarPoly({(0, 0): -2}), BivarPoly({(0, 0): 1})))
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
    values = tuple(AlphaPoly(c * scale for c in v.coeffs) for v in seq.values)
    scaled = PolySequence(0, values, k=1)
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
    assert guesser._independent_rows_mod_p(rows, 3) == [0, 2]


def test_rank_filter_drops_a_full_rank_matrix():
    rows = [[0, 0, 0], [1, 5, 0], [2, 0, 1], [0, 3, 4]]
    assert guesser._independent_rows_mod_p(rows, 3) == [1, 2, 3]


def test_rank_filter_passes_multiples_of_p_to_the_exact_path():
    p = guesser._PRIME
    rows = [[p, 0, 2 * p], [0, 3 * p, p], [p, p, 0]]  # det = -7 * p^3 != 0
    assert guesser._independent_rows_mod_p(rows, 3) == []
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


@pytest.mark.parametrize("k, terms", [(1, 15), (2, 16)])
@pytest.mark.parametrize("start", [0, 1])
def test_rows_cut_from_the_largest_shape_equal_rows_built_directly(k, terms, start):
    seq = f_seq(k, terms, start)
    for r in range(1, 4):
        largest = fit_rows(seq, r, 3, 3, 2)
        for dn in range(4):
            for da in range(4):
                direct = fit_rows(seq, r, dn, da, 2)
                got = guesser._column_subset(largest, r, dn, da, 3, 3)
                assert got == [tuple(row) for row in direct], (r, dn, da)


def random_seq(seed, terms):
    """F(n+1) = (b + c*n + d*a) F(n) from a random F(0)."""
    rng = random.Random(seed)
    b, c, d = (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3))
    values = [AlphaPoly((rng.randint(1, 3), rng.randint(-3, 3)))]
    for n in range(terms - 1):
        acc = []
        add_product(acc, (b + c * n, d), values[-1].coeffs)
        values.append(AlphaPoly(acc))
    return PolySequence(0, tuple(values))


@pytest.fixture
def echelon_calls(monkeypatch):
    """Row counts of the guesser._echelon calls made while the test runs."""
    calls = []
    echelon = guesser._echelon

    def counted(rows):
        calls.append(len(rows))
        return echelon(rows)

    monkeypatch.setattr(guesser, "_echelon", counted)
    return calls


def proportional(u, v):
    i = next(i for i, x in enumerate(v) if x)
    return all(x * v[i] == y * u[i] for x, y in zip(u, v))


@pytest.mark.parametrize("seq", [f_seq(1, 15), f_seq(2, 12), random_seq(6, 14)],
                         ids=["F1", "F2", "random"])
def test_solve_on_independent_rows_matches_the_full_solve(echelon_calls, seq):
    solved = 0
    for r in range(1, 4):
        for dn in range(4):
            for da in range(4):
                unknowns = (r + 1) * (dn + 1) * (da + 1)
                rows = fit_rows(seq, r, dn, da, 2)
                if len(rows) < unknowns:
                    continue
                echelon_calls.clear()
                got = guesser._solve(rows, unknowns)
                solve_calls = list(echelon_calls)
                want = nullspace_vector(rows)
                if got is None:  # rejected mod p
                    assert want is None
                    continue
                solved += 1
                # one exact elimination, on the rows independent mod p only
                picked = guesser._independent_rows_mod_p(rows, unknowns)
                assert solve_calls == [len(picked)]
                pivots, vec = got
                assert pivots == guesser._echelon(rows)[1]
                if want is None:
                    assert vec is None
                    continue
                assert all(sum(c * x for c, x in zip(row, vec)) == 0 for row in rows)
                assert proportional(vec, want)
    assert solved


def test_unlucky_prime_minor_falls_back_to_all_rows(echelon_calls):
    p = guesser._PRIME
    rows = [[1, 1], [p, 2 * p]]  # rank 2 over Q, rank 1 mod p
    assert guesser._independent_rows_mod_p(rows, 2) == [0]
    assert guesser._solve(rows, 2) == ([0, 1], None)
    assert echelon_calls == [1, 2]  # (-1, 1) fails the second row, so all rows ran
    echelon_calls.clear()
    assert guesser._solve([[1, 1], [2, 2], [3, 3]], 2) == ([0], [-1, 1])
    assert echelon_calls == [1]


def in_order_reducer(rows, ncols, p):
    """Reference: the rank screen reducing each row against an echelon basis
    stored by rows, pivots normalized to 1, stopping at rank ncols."""
    basis = []
    picked = []
    for i, row in enumerate(rows):
        v = [x % p for x in row]
        for col, tail in basis:
            c = v[col] % p
            if c:
                v[col:] = [a - c * b for a, b in zip(v[col:], tail)]
        v = [x % p for x in v]
        lead = next((c for c, x in enumerate(v) if x), -1)
        if lead < 0:
            continue
        inv = pow(v[lead], -1, p)
        insort(basis, (lead, [x * inv % p for x in v[lead:]]))
        picked.append(i)
        if len(picked) == ncols:
            break
    return picked


def planted_rank_matrix(rng, p):
    """Integer combinations of a few random rows, with zero rows, rows and
    entries that are multiples of p, and sometimes 40-digit entries."""
    ncols = rng.randint(1, 9)
    rank = rng.randint(0, ncols)
    bound = 10**40 if rng.random() < 0.3 else 4
    basis = [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(rng.randint(1, 2 * ncols + 3)):
        row = [0] * ncols
        if basis and rng.random() > 0.15:
            for b in basis:
                c = rng.randint(-3, 3)
                row = [x + c * y for x, y in zip(row, b)]
        if rng.random() < 0.2:
            row = [x * p for x in row]
        if rng.random() < 0.2:
            row[rng.randrange(ncols)] += p * rng.randint(-2, 2)
        rows.append(row)
    return rows, ncols


@pytest.mark.parametrize("prime", [guesser._PRIME, 2, 3])
def test_screen_matches_the_in_order_reducer(monkeypatch, prime):
    monkeypatch.setattr(guesser, "_PRIME", prime)
    rng = random.Random(prime)
    for _ in range(300):
        rows, ncols = planted_rank_matrix(rng, prime)
        want = in_order_reducer(rows, ncols, prime)
        assert guesser._independent_rows_mod_p(rows, ncols) == want, rows


def plain_fit_rows(seq, r, dn, da, holdout):
    """Reference: every equation row built entry by entry."""
    fit = seq.values[: len(seq.values) - holdout]
    unknowns = (r + 1) * (dn + 1) * (da + 1)
    rows = []
    for t in range(len(fit) - r):
        n = seq.start + t
        window = fit[t : t + r + 1]
        max_deg = max(v.degree for v in window)
        if max_deg < 0:
            continue
        for s in range(max_deg + da + 1):
            row = [0] * unknowns
            u = 0
            for j in range(r + 1):
                for p in range(dn + 1):
                    for q in range(da + 1):
                        row[u] = n**p * window[j].coeff(s - q) if s >= q else 0
                        u += 1
            if any(row):
                rows.append(row)
    return rows


@pytest.mark.parametrize("holdout", [3, 5, 7])
@pytest.mark.parametrize("start", [0, 1])
@pytest.mark.parametrize("values", [f_seq(1, 16).values, f_seq(2, 14).values,
                                    random_seq(6, 14).values],
                         ids=["F1", "F2", "random"])
def test_fit_rows_match_the_plain_builder(values, start, holdout):
    seq = PolySequence(start, values)
    for r in range(1, 4):
        for dn in range(4):
            for da in range(4):
                want = plain_fit_rows(seq, r, dn, da, holdout)
                assert fit_rows(seq, r, dn, da, holdout) == want, (r, dn, da)


def test_system_budget_admits_the_f3_search():
    # F_3(n) has a-degree floor(3n/2) and F_3(1) = 0: the fitted F_3(1..55)
    # of a 60-term file with holdout 5, at bounds (4, 7, 7)
    fit = [AlphaPoly([1] * (3 * n // 2 + 1) if n > 1 else []) for n in range(1, 56)]
    rows = guesser._fit_rows(fit, 1, 4, 7, 7)
    assert len(rows) * len(rows[0]) <= guesser.MAX_SYSTEM_ENTRIES
    with pytest.raises(ValueError, match="guess system too large"):
        guesser._fit_rows(fit, 1, 4, 15, 15)
