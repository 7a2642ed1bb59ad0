import logging
import random
from bisect import insort
from fractions import Fraction
from itertools import islice
from math import factorial, gcd, lcm
from operator import mul

import pytest

from multiderange import guesser
from multiderange.enumerator import fk_value
from multiderange.guesser import (
    GuessSpec,
    InsufficientTerms,
    NotFound,
    guess_operator,
)
from multiderange.polys import AlphaPoly, add_product
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


def reference_solve(rows, ncols):
    """Reference: the pivots and the canonical kernel vector (None when
    there is none) of a Gauss-Jordan elimination on all rows over Q."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        i = next((i for i in range(len(pivots), len(m)) if m[i][c]), None)
        if i is None:
            continue
        b = len(pivots)
        m[b], m[i] = m[i], m[b]
        m[b] = [x / m[b][c] for x in m[b]]
        m = [row if k == b or not row[c] else [x - row[c] * y for x, y in zip(row, m[b])]
             for k, row in enumerate(m)]
        pivots.append(c)
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return pivots, None
    v = [Fraction(0)] * ncols
    v[free[0]] = Fraction(1)
    for b, q in enumerate(pivots):
        v[q] = -m[b][free[0]]
    den = lcm(*(x.denominator for x in v))
    w = [int(x * den) for x in v]
    g = gcd(*w)
    return pivots, [x // g for x in w]


def nullspace_vector(rows):
    """The canonical kernel vector of guesser._solve, checked against the
    reference."""
    ncols = len(rows[0])
    pivots, want = reference_solve(rows, ncols)
    got = guesser._solve(rows, ncols)
    if got is None:  # rejected mod p
        assert want is None
    else:
        assert got == (len(pivots), want)
    return want


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
    want = RecurrenceOperator((((0, 0, -1),), ((0, 0, 1),)))
    assert res.operator == want
    assert res.candidate == (1, 0, 0)


def test_guess_geometric_sequence():
    res = guess_operator(const_seq([2**t for t in range(10)]), GuessSpec(2, 1, 1))
    want = RecurrenceOperator((((0, 0, -2),), ((0, 0, 1),)))
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
    pivots, cols = guesser._basis_mod_p(rows, 3, guesser._PRIME)
    assert pivots == [0, 1] and list(cols) == [2]


def test_rank_filter_drops_a_full_rank_matrix():
    rows = [[0, 0, 0], [1, 5, 0], [2, 0, 1], [0, 3, 4]]
    assert guesser._basis_mod_p(rows, 3, guesser._PRIME) == ([0, 1, 2], {})
    assert guesser._solve(rows, 3) is None


def test_rank_filter_passes_multiples_of_p_to_the_exact_path():
    p = guesser._PRIME
    rows = [[p, 0, 2 * p], [0, 3 * p, p], [p, p, 0]]  # det = -7 * p^3 != 0
    assert guesser._basis_mod_p(rows, 3, p)[0] == []
    assert nullspace_vector(rows) is None
    assert guesser._solve(rows, 3) == (3, None)


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
def screen_primes(monkeypatch):
    """The prime of each guesser._basis_mod_p call made while the test runs."""
    calls = []
    screen = guesser._basis_mod_p

    def counted(rows, ncols, p):
        calls.append(p)
        return screen(rows, ncols, p)

    monkeypatch.setattr(guesser, "_basis_mod_p", counted)
    return calls


@pytest.mark.parametrize("seq", [f_seq(1, 15), f_seq(2, 12), random_seq(6, 14)],
                         ids=["F1", "F2", "random"])
def test_solve_matches_the_reference_on_every_admissible_candidate(screen_primes, seq):
    solved = 0
    for r in range(1, 4):
        for dn in range(4):
            for da in range(4):
                unknowns = (r + 1) * (dn + 1) * (da + 1)
                rows = fit_rows(seq, r, dn, da, 2)
                if len(rows) < unknowns:
                    continue
                screen_primes.clear()
                got = guesser._solve(rows, unknowns)
                pivots, want = reference_solve(rows, unknowns)
                if got is None:  # rejected mod p
                    assert want is None
                    assert screen_primes == [guesser._PRIME]
                    continue
                solved += 1
                assert got == (len(pivots), want)
                # entries within sqrt(p / 2) lift from the first prime alone
                if want is None or 2 * max(map(abs, want)) ** 2 < guesser._PRIME:
                    assert screen_primes == [guesser._PRIME]
                else:
                    assert len(screen_primes) > 1
    assert solved


def test_unlucky_prime_minor_takes_the_next_prime(screen_primes):
    p = guesser._PRIME
    rows = [[1, 1], [p, 2 * p]]  # rank 2 over Q, rank 1 mod p
    assert guesser._basis_mod_p(rows, 2, p)[0] == [0]
    screen_primes.clear()
    # (-1, 1) fails the second row, and the next prime has full rank
    assert guesser._solve(rows, 2) == (2, None)
    assert screen_primes == [p, next_primes(1)[0]]
    screen_primes.clear()
    assert guesser._solve([[1, 1], [2, 2], [3, 3]], 2) == (1, [-1, 1])
    assert screen_primes == [p]


def next_primes(count):
    """The primes that guesser._solve takes after _PRIME."""
    return list(islice(guesser._primes(), 1, count + 1))


def test_unlucky_prime_with_the_same_rank_is_replaced(screen_primes):
    # mod p the row is (0, 1), so the kernel mod p is (1, 0); over Q the
    # pivot is column 0, and (-1, p) needs two further primes to lift
    p = guesser._PRIME
    assert reference_solve([[p, 1]], 2) == ([0], [-1, p])
    assert guesser._solve([[p, 1]], 2) == (1, [-1, p])
    assert screen_primes == [p, *next_primes(2)]


def test_prime_of_lower_rank_is_dropped(screen_primes):
    # rank 2 over Q and mod p, rank 1 mod the next prime q, which is
    # skipped; the 101-bit kernel needs three more primes with p
    q = next_primes(1)[0]
    x = 2**100 + 7
    rows = [[1, 1, x], [q, 2 * q, 3 * q]]
    assert guesser._basis_mod_p(rows, 3, q)[0] == [0]
    screen_primes.clear()
    assert guesser._solve(rows, 3) == (2, [3 - 2 * x, x - 3, 1])
    assert screen_primes == [guesser._PRIME, *next_primes(4)]


@pytest.mark.parametrize("fake", [lambda w: [0] * len(w), lambda w: [-x for x in w]],
                         ids=["zero", "negated"])
def test_lifted_vector_must_be_positive_at_its_column(monkeypatch, screen_primes, fake):
    # both fakes annihilate every row, but only a vector positive at its
    # non-pivot column proves the kernel's dimension and is canonical
    lift = guesser._rational_lift
    calls = []

    def fake_first(v, m):
        calls.append(m)
        return fake(lift(v, m)) if len(calls) == 1 else lift(v, m)

    monkeypatch.setattr(guesser, "_rational_lift", fake_first)
    assert guesser._solve([[1, 1], [2, 2]], 2) == (1, [-1, 1])
    assert screen_primes == [guesser._PRIME, *next_primes(1)]


def big_kernel_matrix(rng, ncols, rank, digits):
    """2 * ncols integer combinations of rank random rows with entries of
    the given number of digits, so the kernel vectors at the first free
    columns have about rank * digits digits.  With two or more free columns
    the last column copies the first, which adds a small kernel vector."""
    bound = 10**digits
    basis = [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(rank)]
    if ncols - rank > 1:
        for row in basis:
            row[-1] = row[0]
    rows = []
    for _ in range(2 * ncols):
        cs = [rng.randint(-3, 3) for _ in basis]
        rows.append([sum(map(mul, cs, col)) for col in zip(*basis)])
    return rows


@pytest.mark.parametrize("ncols, rank", [(5, 4), (6, 4), (8, 5)])
def test_solve_lifts_planted_kernels_of_over_100_digits(screen_primes, ncols, rank):
    rows = big_kernel_matrix(random.Random(ncols), ncols, rank, 30)
    pivots, want = reference_solve(rows, ncols)
    assert pivots == list(range(rank))
    assert min(map(abs, want[: rank + 1])) > 10**100
    assert not any(want[rank + 1 :])  # zero at the other free columns
    assert guesser._solve(rows, ncols) == (rank, want)
    assert len(screen_primes) > 2


def test_is_prime_is_exact():
    sieve = [True] * 30000
    for i in range(2, 174):
        sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    assert all(guesser._is_prime(n) == sieve[n] for n in range(39, 30000, 2))
    # strong pseudoprimes to bases 2-7 and to the first nine prime bases
    assert not guesser._is_prime(3215031751)
    assert not guesser._is_prime(3825123056546413051)
    # the largest primes below 2^62 (2^62 - 57, -87, -117)
    assert next_primes(3) == [2**62 - 57, 2**62 - 87, 2**62 - 117]


def in_order_reducer(rows, ncols, p):
    """Reference: the rank screen reducing each row against an echelon basis
    stored by rows, pivots normalized to 1, stopping at rank ncols; the
    pivot of each row that raised the rank, in order."""
    basis = []
    pivots = []
    for row in rows:
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
        pivots.append(lead)
        if len(pivots) == ncols:
            break
    return pivots


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
        pivots, cols = guesser._basis_mod_p(rows, ncols, prime)
        assert pivots == in_order_reducer(rows, ncols, prime), rows
        assert sorted(pivots + list(cols)) == list(range(ncols))
        # each non-pivot column's kernel vector, read off cols, is one mod p
        for f, col in cols.items():
            v = [0] * ncols
            v[f] = 1
            for q, y in zip(pivots, col):
                v[q] = -y
            assert all(sum(map(mul, row, v)) % prime == 0 for row in rows)
        # the lift agrees with the exact reference, the small prime first
        want_pivots, want = reference_solve(rows, ncols)
        got = guesser._solve(rows, ncols)
        if got is None:
            assert want is None and len(pivots) == ncols
        else:
            assert got == (len(want_pivots), want), rows


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
                c = window[j].coeffs
                for p in range(dn + 1):
                    for q in range(da + 1):
                        row[u] = n**p * c[s - q] if 0 <= s - q < len(c) else 0
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
    # F_k(n) has a-degree floor(kn/2) and coefficients below (kn)!, and
    # F_k(1) = 0: the fitted F_3(1..55) of a 60-term file with holdout 5
    # at bounds (4, 7, 7), and F_4(0..40) at (5, 10, 14), with every
    # coefficient raised to (kn)!
    def bound(k, n):
        return AlphaPoly([factorial(k * n)] * (k * n // 2 + 1) if n != 1 else [])

    guesser._check_budget([bound(3, n) for n in range(1, 56)], 1, 4, 7, 7)
    guesser._check_budget([bound(4, n) for n in range(41)], 0, 5, 10, 14)
    with pytest.raises(ValueError, match="guess system too large"):
        guesser._check_budget([bound(4, n) for n in range(81)], 0, 5, 10, 14)
    # few entries, but each n^p * c grows with deg_n: 1.9 M entries, 1.6 GB
    f1 = f_seq(1, 35).values
    with pytest.raises(ValueError, match="guess system too large"):
        guesser._check_budget(f1, 0, 1, 2900, 0)
    # zero entries still take a slot: a huge deg_a on small data
    with pytest.raises(ValueError, match="guess system too large"):
        guesser._check_budget(f1[:5], 0, 1, 0, 100_000)
