import logging
import random
from copy import deepcopy
from bisect import insort
from fractions import Fraction
from itertools import islice, takewhile
from math import factorial, gcd, isqrt, lcm
from operator import itemgetter, mul
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from multiderange import guesser
from multiderange.enumerator import fk_sequence_direct, fk_value
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
    extend_sequence,
    operator_seed,
    verify_operator,
)


def const_seq(values, start=0):
    return PolySequence(start=start, values=tuple(AlphaPoly((v,)) for v in values))


def f_seq(k, terms, start=0):
    values = tuple(fk_value(k, n) for n in range(start, start + terms))
    return PolySequence(start, values, k=k)


def fit_rows(seq, r, dn, da, holdout):
    """The rows of _fit_rows, every window read."""
    fit = seq.values[: len(seq.values) - holdout]
    window, windows, _ = guesser._fit_rows(fit, seq.start, r, dn, da)
    return [row for i in range(windows) for row in window(i)]


def no_rows(cols):
    """The basis of no rows at the increasing columns cols."""
    return [], {f: [] for f in cols}


def basis_mod_p(rows, ncols, p):
    """guesser._basis_mod_p of the rows at their columns 0..ncols-1."""
    return guesser._basis_mod_p(rows, p, no_rows(range(ncols)))


def column_subset(rows, cols):
    """Reference: the rows of candidate (r, dn, da) cut from those of its
    order (r, max_dn, max_da) at its columns _columns(r, dn, da, max_dn,
    max_da), numbered 0..len(cols)-1: the nonzero ones, which are
    _fit_rows(fit, start, r, dn, da) in order."""
    return filter(any, map(itemgetter(*cols), rows))


def renumbered(basis, cols):
    """A basis at the columns 0..len(cols)-1 with column i named cols[i]."""
    pivots, free = basis
    return [cols[q] for q in pivots], {cols[f]: col for f, col in free.items()}


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


def annihilates(rows):
    """The certificate of an exact solution of the rows: every dot product is 0."""
    return lambda w: not any(sum(map(mul, row, w)) for row in rows)


def solve(rows, ncols):
    """guesser._solve from a fresh screen of the rows at each prime, certified
    by the rows, or None when the screen mod _PRIME has full rank (rejected
    mod p)."""
    bases = ((p, basis_mod_p(rows, ncols, p)) for p in guesser._primes())
    return guesser._solve(bases, annihilates(rows))


def nullspace_vector(rows):
    """The canonical kernel vector of guesser._solve, checked against the
    reference."""
    ncols = len(rows[0])
    pivots, want = reference_solve(rows, ncols)
    got = solve(rows, ncols)
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


@pytest.mark.parametrize("bad", [True, 2.5, "2"])
@pytest.mark.parametrize("field", ["max_order", "max_deg_n", "max_deg_a", "holdout"])
def test_spec_fields_are_ints(field, bad):
    # GuessSpec(True, 1, 1) used to be accepted, and a float failed deep
    # inside guess_operator
    fields = {"max_order": 2, "max_deg_n": 1, "max_deg_a": 1, "holdout": 5}
    with pytest.raises(TypeError, match=f"{field}: expected an integer"):
        GuessSpec(**{**fields, field: bad})


def test_rank_filter_keeps_a_matrix_with_a_kernel():
    # last row = 2*first + third, so (1, 1, -1) spans the rational kernel
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1], [3, 4, 7]]
    assert nullspace_vector(rows) is not None
    pivots, cols = basis_mod_p(rows, 3, guesser._PRIME)
    assert pivots == [0, 1] and list(cols) == [2]


def test_rank_filter_drops_a_full_rank_matrix():
    rows = [[0, 0, 0], [1, 5, 0], [2, 0, 1], [0, 3, 4]]
    assert basis_mod_p(rows, 3, guesser._PRIME) == ([0, 1, 2], {})
    assert solve(rows, 3) is None


def test_rank_filter_passes_multiples_of_p_to_the_exact_path():
    p = guesser._PRIME
    rows = [[p, 0, 2 * p], [0, 3 * p, p], [p, p, 0]]  # det = -7 * p^3 != 0
    assert basis_mod_p(rows, 3, p)[0] == []
    assert nullspace_vector(rows) is None
    assert solve(rows, 3) == (3, None)


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
    # with the same DEBUG lines as a screen per candidate
    got = assert_guess_matches_the_per_candidate_search(caplog, seq, spec)
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
                cols = guesser._columns(r, dn, da, 3, 3)
                got = list(column_subset(largest, cols))
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

    def counted(rows, p, basis):
        calls.append(p)
        return screen(rows, p, basis)

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
                got = solve(rows, unknowns)
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
    assert basis_mod_p(rows, 2, p)[0] == [0]
    screen_primes.clear()
    # (-1, 1) fails the second row, and the next prime has full rank
    assert solve(rows, 2) == (2, None)
    assert screen_primes == [p, next_primes(1)[0]]
    screen_primes.clear()
    assert solve([[1, 1], [2, 2], [3, 3]], 2) == (1, [-1, 1])
    assert screen_primes == [p]


def next_primes(count):
    """The primes that guesser._solve takes after _PRIME."""
    return list(islice(guesser._primes(), 1, count + 1))


def test_unlucky_prime_with_the_same_rank_is_replaced(screen_primes):
    # mod p the row is (0, 1), so the kernel mod p is (1, 0); over Q the
    # pivot is column 0, and (-1, p) needs three further primes to lift:
    # mod the next prime q = p - 14 it lifts to the wrong (-1, 14), and p
    # is over sqrt(q q' / 2), about 2^23.5, for the one after
    p = guesser._PRIME
    assert reference_solve([[p, 1]], 2) == ([0], [-1, p])
    assert solve([[p, 1]], 2) == (1, [-1, p])
    assert screen_primes == [p, *next_primes(3)]


def test_prime_of_lower_rank_is_dropped(screen_primes):
    # rank 2 over Q and mod p, rank 1 mod the next prime q, which is
    # skipped; the 102-bit kernel entry 3 - 2x lifts within sqrt(m / 2)
    # once m is over 2^203, which takes p and eight more 24-bit primes
    q = next_primes(1)[0]
    x = 2**100 + 7
    rows = [[1, 1, x], [q, 2 * q, 3 * q]]
    assert basis_mod_p(rows, 3, q)[0] == [0]
    screen_primes.clear()
    assert solve(rows, 3) == (2, [3 - 2 * x, x - 3, 1])
    assert screen_primes == [guesser._PRIME, *next_primes(9)]


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
    assert solve([[1, 1], [2, 2]], 2) == (1, [-1, 1])
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
    assert solve(rows, ncols) == (rank, want)
    assert len(screen_primes) > 2


def test_is_prime_is_exact():
    # a sieve of the top of the 2^24 range by every divisor up to 4096 >
    # sqrt(2^24): the later primes are the primes below _PRIME, descending
    lo = 2**24 - 20000
    sieve = [True] * 20000  # sieve[i]: lo + i is prime
    for d in range(2, 4097):
        sieve[-lo % d :: d] = [False] * len(sieve[-lo % d :: d])
    want = [lo + i for i in range(20000 - 4, -1, -1) if sieve[i]]
    assert len(want) > 1000
    assert list(takewhile(lambda n: n >= lo, next_primes(len(want) + 1))) == want
    # the largest primes below _PRIME = 2^24 - 3 (2^24 - 17, -33, -63)
    assert next_primes(3) == [2**24 - 17, 2**24 - 33, 2**24 - 63]


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
        pivots, cols = basis_mod_p(rows, ncols, prime)
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
        got = solve(rows, ncols)
        if got is None:
            assert want is None and len(pivots) == ncols
        else:
            assert got == (len(want_pivots), want), rows


def plain_fit_windows(seq, r, dn, da, holdout):
    """Reference: the rows of each window that has rows, every equation row
    built entry by entry."""
    fit = seq.values[: len(seq.values) - holdout]
    unknowns = (r + 1) * (dn + 1) * (da + 1)
    windows = []
    for t in range(len(fit) - r):
        n = seq.start + t
        window = fit[t : t + r + 1]
        max_deg = max(v.degree for v in window)
        rows = []
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
        if rows:
            windows.append(rows)
    return windows


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
                want = plain_fit_windows(seq, r, dn, da, holdout)
                fit = seq.values[: len(seq.values) - holdout]
                window, windows, _ = guesser._fit_rows(fit, start, r, dn, da)
                assert [window(i) for i in range(windows)] == want, (r, dn, da)


def rows_in(window, windows):
    """The number of rows of window(0), ..., window(windows - 1)."""
    return sum(len(window(i)) for i in range(windows))


def test_orders_build_only_the_rows_they_read(monkeypatch):
    built = []
    fit_rows = guesser._fit_rows

    def kept(*args):
        built.append((args, fit_rows(*args)))
        return built[-1][1]

    monkeypatch.setattr(guesser, "_fit_rows", kept)
    for k, fitted, want in ((1, 35, [(0, 408), (40, 404)]),
                            (2, 25, [(0, 396), (0, 391), (115, 385)])):
        built.clear()
        seq = f_seq(k, fitted + 5, start=1)
        res = guess_operator(seq, GuessSpec(3, 3, 3))
        # every order builds the windows that its slab screens and its
        # candidates' screens read, the first ones; the winner's screen stops
        # at a window that raises no pivot, and its certified kernel needs no
        # more.  K=1's winner (2, 1, 1) is in the slab (2, 1, 3), which stops
        # sooner than a screen of every column of (2, 3, 3).  An order whose
        # candidates the one-point screen rejects, K=1's order 1 and K=2's
        # orders 1 and 2, reads no row
        read = []
        for _, (window, windows, _) in built:
            info = window.cache_info()
            read.append(rows_in(window, info.currsize))
            assert window.cache_info().misses == info.misses
        assert [(n, rows_in(window, windows))
                for n, (_, (window, windows, _)) in zip(read, built)] == want
        *_, (args, (window, windows, _)) = built
        assert res.candidate[0] == args[2]
        # read to the end, the winner's order is the plain builder's
        want = plain_fit_windows(seq, *args[2:], 5)
        assert [window(i) for i in range(windows)] == want


@pytest.fixture
def slabs(monkeypatch):
    """The column count of each slab screen, the _screen calls that start
    from the first window, made while the test runs."""
    calls = []
    screen = guesser._screen

    def counted(window, windows, basis, lo=0):
        if lo == 0:
            cols = list(basis[1])
            assert not basis[0]  # a slab's screen starts from no rows
            calls.append(len(cols))
            # an order's last slab covers all of its columns: a slab that
            # reaches its last column is every column
            width = len(window(0)[0])
            assert cols[-1] < width - 1 or cols == list(range(width))
        return screen(window, windows, basis, lo)

    monkeypatch.setattr(guesser, "_screen", counted)
    return calls


@pytest.mark.parametrize("k, fitted, winner, want", [
    (1, 35, (2, 1, 1), [24]),
    (2, 25, (3, 3, 3), [64]),
], ids=["F1", "F2"])
def test_each_order_is_screened_in_slabs_of_doubling_width(slabs, k, fitted, winner, want):
    # a slab (r, s, max_deg_a) is screened when the search first reaches a
    # deg_n past the slab before it, and s + 1 runs 1, 2, 4, ... up to
    # max_deg_n + 1; the first is the smallest past the first deg_n that the
    # one-point screen does not reject.  K=1's order 1 and order 2 at deg_n
    # 0, and K=2's orders 1 and 2 and order 3 below deg_n 3, are rejected
    # at a = _A0, so K=1's winner (2, 1, 1) is in order 2's first slab, of
    # width 2, and K=2's (3, 3, 3) in order 3's first, of width 4
    res = guess_operator(f_seq(k, fitted + 5, start=1), GuessSpec(3, 3, 3))
    assert res.candidate == winner
    assert slabs == want


def test_screen_arithmetic_stays_in_machine_words():
    # a screen's dot product has one term per pivot, at most the rows or
    # the unknowns of the order, whichever is fewer, and the budget's 64
    # bits per entry admit at most isqrt(MAX_SYSTEM_BITS // 64) of both;
    # each term is a product of two residues, so the sum stays below 2^63
    # and CPython's sum() keeps it in a C long
    terms = isqrt(guesser.MAX_SYSTEM_BITS // 64)
    later = next_primes(5)
    assert later == sorted(later, reverse=True) and later[0] < guesser._PRIME
    for p in (guesser._PRIME, later[0]):
        assert terms * (p - 1) ** 2 < 2**63


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


def test_system_budget_counts_the_tuples_the_rows_are_cut_from():
    # one equation, but the window's (r+1)(dn+1) blocks are one-entry
    # tuples: 6 million of them at deg_n 3 million, over 400 MB
    lone = [AlphaPoly((1,))] + [AlphaPoly()] * 4
    guesser._check_budget(lone, 0, 1, 300_000, 0)
    with pytest.raises(ValueError, match="guess system too large"):
        guesser._check_budget(lone, 0, 1, 3_000_000, 0)
    # few equations, but every fitted value is padded to 2 deg_a + 1
    # entries: 200 001 tuples of 4001 slots, 6.4 GB
    with pytest.raises(ValueError, match="guess system too large"):
        guesser._check_budget(lone[:1] + [AlphaPoly()] * 200_000, 0, 1, 0, 2000)


def test_all_zero_values_build_no_rows(monkeypatch):
    # no window has a row, so no shape is admissible at any bound, and the
    # search says so before it builds rows or visits a shape
    def no_rows(*args):
        raise AssertionError("rows built")

    monkeypatch.setattr(guesser, "_fit_rows", no_rows)
    with pytest.raises(InsufficientTerms) as info:
        guess_operator(const_seq([0] * 10), GuessSpec(3, 10**9, 10**9))
    assert str(info.value) == "not enough terms for any candidate within the bounds"


def test_search_visits_no_shape_past_its_order_rows(monkeypatch):
    # unknowns grow with deg_n and deg_a and no shape has more than
    # counts[-1] rows, so a shape past that is never admissible; each
    # visited shape reads counts[da], and here even (r, 0, 0) has too many
    reads = []

    class Counts(list):
        def __getitem__(self, i):
            reads.append(i)
            return list.__getitem__(self, i)

    fit_rows = guesser._fit_rows

    def counted(*args):
        window, windows, counts = fit_rows(*args)
        return window, windows, Counts(counts)

    monkeypatch.setattr(guesser, "_fit_rows", counted)
    with pytest.raises(InsufficientTerms):
        guess_operator(const_seq([1] + [0] * 9), GuessSpec(2, 10_000, 0))
    assert reads and all(i == -1 for i in reads)


@st.composite
def order_systems(draw):
    """Rows at the columns of a largest shape (r, max_dn, max_da), combined
    from a few random rows (some scaled by the prime), cut into windows;
    with more rows than the planted rank, a slab's screen often stops at a
    quiet window before the last."""
    prime = draw(st.sampled_from([guesser._PRIME, 2, 3]))
    r, max_dn, max_da = draw(st.tuples(st.integers(1, 2), st.integers(0, 2),
                                       st.integers(0, 2)))
    ncols = (r + 1) * (max_dn + 1) * (max_da + 1)
    rng = random.Random(draw(st.integers(0, 2**32)))
    rank = draw(st.integers(0, ncols))
    basis = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(draw(st.integers(1, 2 * ncols + 8))):
        row = [sum(rng.randint(-2, 2) * b[c] for b in basis) for c in range(ncols)]
        rows.append([x * prime for x in row] if rng.random() < 0.1 else row)
    ends = sorted({*rng.sample(range(1, len(rows) + 1), rng.randint(1, len(rows))),
                   len(rows)})
    return prime, (r, max_dn, max_da), rows, ends


def sorted_basis(basis):
    """A basis (pivots, cols) with its rows in pivot order and its non-pivot
    columns in their stored order; equal for equal reduced echelon bases."""
    pivots, cols = basis
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return sorted(pivots), [(f, [col[b] for b in order]) for f, col in cols.items()]


def cut_basis(rows, cols, p):
    """sorted_basis of the basis mod p of rows cut to the columns cols,
    with column i named cols[i]."""
    return sorted_basis(renumbered(basis_mod_p(rows, len(cols), p), cols))


@settings(max_examples=150, deadline=None)
@given(order_systems(), st.integers(0, 2))
def test_order_screen_decides_like_a_screen_per_candidate(system, s):
    prime, (r, max_dn, max_da), rows, ends = system
    s = min(s, max_dn)  # the slab (r, s, max_da); at s = max_dn the whole order
    at = [0, *ends]  # at[i]: the rows before window i
    window, windows = [rows[a:b] for a, b in zip(at, ends)].__getitem__, len(ends)
    slab = guesser._columns(r, s, max_da, max_dn, max_da)
    with patch.object(guesser, "_PRIME", prime):
        done, basis = guesser._screen(window, windows, no_rows(slab))
        assert 0 < done <= windows
        # the windows the slab screen stopped at, and every window
        full = guesser._basis_mod_p(rows, prime, no_rows(slab))
        for prefix, screened in ((done, basis), (windows, full)):
            before = deepcopy(screened)
            for dn in range(s + 1):
                for da in range(max_da + 1):
                    cols = guesser._columns(r, dn, da, max_dn, max_da)
                    assert set(cols) <= set(slab)
                    sub = [itemgetter(*cols)(row) for row in rows]
                    # the restricted basis is the candidate's own basis of the prefix
                    cut = guesser._restrict(screened, cols)
                    assert sorted_basis(cut) == cut_basis(sub[: at[prefix]], cols, prime), (prefix, dn, da)
                    if len(cut[0]) == len(cols):  # sound: no rational kernel either
                        assert reference_solve(sub, len(cols))[1] is None
                    # screened on window by window, reading the uncut rows,
                    # it is the basis of its rows up to where it stops
                    stop, got = guesser._screen(window, windows, cut, prefix)
                    assert prefix <= stop <= windows
                    assert sorted_basis(got) == cut_basis(sub[: at[stop]], cols, prime), (prefix, dn, da)
                    # which is at full rank, at the end, or after a window
                    # that raised no pivot
                    last = at[max(prefix, stop - 1)]
                    quiet = basis_mod_p(sub[:last], len(cols), prime)
                    assert (len(got[0]) == len(cols) or stop == windows
                            or stop > prefix and len(quiet[0]) == len(got[0])), (prefix, dn, da)
                    # finished over the rest, it is the basis of all its rows
                    guesser._basis_mod_p(rows[at[stop] :], prime, got)
                    assert sorted_basis(got) == cut_basis(sub, cols, prime), (prefix, dn, da)
                    # and the candidate's kernel, lifted from where its screen
                    # stops, is the one lifted from all its rows
                    want = solve(sub, len(cols))
                    got = guesser._kernel(window, windows, (prefix, screened), cols,
                                          annihilates(sub))
                    assert got == want, (prefix, dn, da)
            assert screened == before  # the slab's basis serves every candidate


@st.composite
def column_subsets(draw):
    """A prime, rows of a planted rank, and increasing columns cols within
    more columns wider."""
    prime = draw(st.sampled_from([guesser._PRIME, 2, 3]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows, ncols = planted_rank_matrix(rng, prime)
    wider = sorted(rng.sample(range(ncols), rng.randint(1, ncols)))
    cols = sorted(rng.sample(wider, rng.randint(1, len(wider))))
    return prime, rows, wider, cols


@settings(max_examples=300, deadline=None)
@given(column_subsets())
def test_a_basis_reads_uncut_rows_at_its_columns(system):
    # one numbering: a basis at the columns cols of the uncut rows is the
    # basis of the rows cut to cols, numbered 0..len(cols)-1, renamed by
    # cols; the map keeps the order of the columns, so the pivots and the
    # kernel vector are the same
    prime, rows, wider, cols = system
    cut = [[row[c] for c in cols] for row in rows]
    with patch.object(guesser, "_PRIME", prime):
        uncut = guesser._basis_mod_p(rows, prime, no_rows(cols))
        assert sorted_basis(uncut) == cut_basis(cut, cols, prime)
        # a basis at wider columns, restricted to cols, is the fresh one
        restricted = guesser._restrict(guesser._basis_mod_p(rows, prime, no_rows(wider)), cols)
        assert sorted_basis(restricted) == sorted_basis(uncut)
        # and _solve lifts the same vector from either numbering
        bases = ((p, guesser._basis_mod_p(rows, p, no_rows(cols))) for p in guesser._primes())
        assert guesser._solve(bases, annihilates(cut)) == solve(cut, len(cols))


@st.composite
def point_data(draw):
    """A start and fitted values: random polynomials, or the values of a
    random operator of order 1 or 2 with leading coefficient 1, extended
    from random initial values, which have kernels at its shape."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    start, terms = draw(st.integers(0, 3)), draw(st.integers(6, 16))

    def poly(length):
        return AlphaPoly([rng.randint(-3, 3) for _ in range(length)])

    if draw(st.booleans()):
        return start, [poly(rng.randint(0, 3)) for _ in range(terms)]
    order = rng.randint(1, 2)
    coeffs = [tuple((p, q, rng.choice([-2, -1, 1, 2])) for p in range(2) for q in range(2)
                    if rng.random() < 0.5) for _ in range(order)]
    op = RecurrenceOperator((*coeffs, ((0, 0, 1),)), start)
    seed = PolySequence(start, tuple(poly(rng.randint(1, 2)) for _ in range(order)))
    return start, list(extend_sequence(op, seed, start + terms - 1).values)


@settings(max_examples=150, deadline=None)
@given(point_data(), st.integers(1, 3), st.integers(0, 3), st.integers(0, 2))
def test_a_point_rejected_shape_has_full_rank_at_every_deg_a(data, r, max_dn, max_da):
    # a kernel vector of (r, dn, da) mod p, divided by the gcd in F_p[a] of
    # its coefficients, is a kernel vector that is nonzero at _A0, so full
    # column rank at a = _A0 leaves no kernel at any deg_a
    start, fit = data
    at = [v(guesser._A0) % guesser._PRIME for v in fit]
    rejected = guesser._point_screen(at, start, r, max_dn + 1)
    for dn in range(rejected):
        for da in range(max_da + 1):
            window, windows, _ = guesser._fit_rows(fit, start, r, dn, da)
            rows = [row for i in range(windows) for row in window(i)]
            basis = basis_mod_p(rows, (r + 1) * (dn + 1) * (da + 1), guesser._PRIME)
            assert not basis[1], (r, dn, da)


def candidate_outcome(seq, rows, r, dn, da, unknowns):
    """Reference: the outcome of one candidate from a fresh screen of its
    rows mod _PRIME, with the result when it verifies."""
    found = solve(rows, unknowns)
    if found is None:
        return "rejected mod p", None
    rank, vec = found
    if vec is None:
        return "no exact kernel", None
    op = guesser._operator_from_vector(vec, dn, da, seq.start)
    if op is None:
        return "kernel gives no recurrence", None
    if not verify_operator(op, seq):
        return "verify failed", None
    return "accepted", guesser.GuessResult(op, (r, dn, da), unknowns - rank,
                                           len(rows), unknowns)


def per_candidate_guess(seq, spec, transcript):
    """Reference: the search that visits every shape and screens each
    candidate on its own, cutting its rows from its order's rows; its DEBUG
    lines are appended to transcript."""
    if len(seq.values) < 2 + spec.holdout:
        raise InsufficientTerms(
            f"{len(seq.values)} terms cannot support any search with "
            f"holdout {spec.holdout}"
        )
    max_dn, max_da = spec.max_deg_n, spec.max_deg_a
    fit = seq.values[: len(seq.values) - spec.holdout]
    any_admissible = False
    for r in range(1, min(spec.max_order, len(fit) - 1) + 1):
        order_rows = fit_rows(seq, r, max_dn, max_da, spec.holdout)
        for dn in range(max_dn + 1):
            for da in range(max_da + 1):
                unknowns = (r + 1) * (dn + 1) * (da + 1)
                cols = guesser._columns(r, dn, da, max_dn, max_da)
                rows = list(column_subset(order_rows, cols))
                if len(rows) < unknowns:
                    continue
                any_admissible = True
                outcome, res = candidate_outcome(seq, rows, r, dn, da, unknowns)
                transcript.append(
                    f"candidate ({r}, {dn}, {da}): {len(rows)} x {unknowns}, {outcome}")
                if res is not None:
                    return res
    if any_admissible:
        raise NotFound("no operator within the given bounds fits the data")
    raise InsufficientTerms("not enough terms for any candidate within the bounds")


def assert_guess_matches_the_per_candidate_search(caplog, seq, spec):
    """guess_operator and the reference give the same result, or raise the
    same exception, after the same DEBUG lines."""
    want_lines = []
    try:
        want = per_candidate_guess(seq, spec, want_lines)
    except (NotFound, InsufficientTerms) as exc:
        want = (type(exc), str(exc))
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="multiderange.guesser"):
        try:
            got = guess_operator(seq, spec)
        except (NotFound, InsufficientTerms) as exc:
            got = (type(exc), str(exc))
    assert got == want, (seq.start, spec)
    assert caplog.messages == want_lines, (seq.start, spec)
    return got


@pytest.mark.parametrize("start", [0, 1, 3])
@pytest.mark.parametrize("seq", [f_seq(1, 16), f_seq(2, 16), random_seq(6, 14),
                                 const_seq([3] * 12)],
                         ids=["F1", "F2", "random", "constant"])
def test_guess_matches_the_per_candidate_search(caplog, seq, start):
    # deg_n bounds whose slab widths end at one slab (0), a capped second
    # slab (1, 2), and three and four slabs (3, 5)
    seq = PolySequence(start, seq.values, k=seq.k)
    found = 0
    for max_dn in (0, 1, 2, 3, 5):
        for holdout in range(1, 7):
            got = assert_guess_matches_the_per_candidate_search(
                caplog, seq, GuessSpec(3, max_dn, 3, holdout))
            found += isinstance(got, guesser.GuessResult)
    assert found


@pytest.mark.parametrize("seq, spec, exc", [
    (const_seq([2 ** (t * t) for t in range(12)]), GuessSpec(1, 1, 1), NotFound),
    (const_seq([1, 1, 1]), GuessSpec(2, 1, 1), InsufficientTerms),
    (const_seq([1, 1, 1, 1]), GuessSpec(3, 3, 3, holdout=2), InsufficientTerms),
    (const_seq([0] * 10), GuessSpec(2, 2, 2), InsufficientTerms),
    (const_seq([1] + [0] * 9), GuessSpec(2, 2, 2), InsufficientTerms),
], ids=["not-found", "too-few-for-the-holdout", "no-admissible-candidate",
        "all-zero", "one-nonzero-value"])
def test_failed_guess_matches_the_per_candidate_search(caplog, seq, spec, exc):
    got = assert_guess_matches_the_per_candidate_search(caplog, seq, spec)
    assert got[0] is exc


def changed(seq, i):
    """seq with 1 added to the constant coefficient of its i-th value."""
    values = list(seq.values)
    values[i] = AlphaPoly([values[i](0) + 1, *values[i].coeffs[1:]])
    return PolySequence(seq.start, tuple(values), k=seq.k)


@pytest.fixture
def certificates(monkeypatch):
    """The outcome of each guesser._annihilates call made while the test runs."""
    calls = []
    certify = guesser._annihilates

    def counted(*args):
        calls.append(certify(*args))
        return calls[-1]

    monkeypatch.setattr(guesser, "_annihilates", counted)
    return calls


@pytest.fixture
def lifts(monkeypatch):
    """The modulus and residues of each guesser._rational_lift call made
    while the test runs."""
    calls = []
    lift = guesser._rational_lift

    def counted(v, m):
        calls.append((m, tuple(v)))
        return lift(v, m)

    monkeypatch.setattr(guesser, "_rational_lift", counted)
    return calls


def assert_each_basis_is_lifted_once(lifts):
    # a basis whose lift failed is not lifted again: the finished screen is
    # lifted only when it raised the rank, and then a basis at a later prime
    assert lifts and all(a != b for a, b in zip(lifts, lifts[1:]))


@pytest.mark.parametrize("seq, spec", [(f_seq(1, 20), GuessSpec(3, 3, 3)),
                                       (f_seq(2, 30), GuessSpec(3, 4, 3))],
                         ids=["F1", "F2"])
def test_a_failed_certificate_screens_every_row(caplog, certificates, lifts, seq, spec):
    # the last fitted value is off, so a kernel lifted from a screen that
    # stopped before the last window fails its certificate, and the search
    # reaches the verdicts of a screen of every row.  At deg_n 3 the
    # one-point screen rejects every F2 candidate; at deg_n 4 it leaves
    # order 3's, of 20 point columns on 22 windows, to the bivariate screen
    assert_guess_matches_the_per_candidate_search(
        caplog, changed(seq, len(seq.values) - 6), spec)
    assert False in certificates
    assert_each_basis_is_lifted_once(lifts)


@pytest.mark.parametrize("seq, spec", [(f_seq(1, 20), GuessSpec(2, 1, 1)),
                                       (f_seq(2, 30), GuessSpec(3, 3, 3))],
                         ids=["F1", "F2"])
def test_a_changed_holdout_fails_verification(monkeypatch, caplog, certificates, seq, spec):
    # the winner is certified on the fitted values, then checked on the
    # rest, from the first window the certificate did not cover
    held = []
    verify = guesser.verify_operator

    def kept(op, tail):
        held.append(tail)
        return verify(op, tail)

    monkeypatch.setattr(guesser, "verify_operator", kept)
    seq = changed(seq, len(seq.values) - 5)
    got = assert_guess_matches_the_per_candidate_search(caplog, seq, spec)
    assert got[0] is NotFound
    assert caplog.messages[-1].endswith("verify failed")
    assert certificates[-1]
    r, fit = spec.max_order, len(seq.values) - 5
    assert (held[-1].start, held[-1].values) == (seq.start + fit - r, seq.values[fit - r :])


def test_holdout_of_an_operator_of_lower_order_starts_at_the_fitted_windows(caplog):
    # doubling, except that the last fitted value is 24, not 32; order 1 has
    # no kernel, but order 2 fits (-2, 1, 0), an operator of order 1 whose
    # window at n = 4 holds only fitted values and fails
    seq = const_seq([1, 2, 4, 8, 16, 24, 48, 96, 192])
    got = assert_guess_matches_the_per_candidate_search(caplog, seq, GuessSpec(2, 0, 0, 3))
    assert got[0] is NotFound
    assert caplog.messages == ["candidate (1, 0, 0): 5 x 2, rejected mod p",
                               "candidate (2, 0, 0): 4 x 3, verify failed"]


def test_every_vector_of_a_larger_kernel_is_certified(caplog, certificates):
    seq = PolySequence(0, tuple(map(AlphaPoly, [(2,), (1,), (), (-2, 1), (), (), (), (), ()])))
    got = assert_guess_matches_the_per_candidate_search(caplog, seq, GuessSpec(1, 2, 1, 1))
    assert (got.candidate, got.kernel_dim) == ((1, 2, 0), 2)
    assert certificates[-2:] == [True, True]


def test_guess_from_the_largest_start_verifies_every_window(caplog):
    # the fitted windows end past the 640-digit index rule, so the holdout
    # has no sequence of its own, and the whole sequence is verified again
    seq = const_seq([2**t for t in range(12)], start=10**640 - 3)
    got = assert_guess_matches_the_per_candidate_search(caplog, seq, GuessSpec(2, 1, 1))
    assert got.operator == RecurrenceOperator((((0, 0, -2),), ((0, 0, 1),)), 10**640 - 3)


@pytest.mark.parametrize("start", [0, 1])
@pytest.mark.parametrize("values", [f_seq(1, 16).values, f_seq(2, 14).values,
                                    random_seq(6, 14).values],
                         ids=["F1", "F2", "random"])
def test_equation_counts_match_the_cut_rows(values, start):
    seq = PolySequence(start, values)
    for r in range(1, 4):
        rows = fit_rows(seq, r, 3, 3, 2)
        counts = guesser._fit_rows(seq.values[:-2], start, r, 3, 3)[2]
        for dn in range(4):
            for da in range(4):
                cols = guesser._columns(r, dn, da, 3, 3)
                assert counts[da] == len(list(column_subset(rows, cols)))


def test_a_common_root_at_the_point_leaves_every_shape_to_the_bivariate_screen(
        monkeypatch, caplog, slabs):
    # every value of (a - _A0) F_1(n) is 0 at a = _A0, so the one-point
    # screen rejects no deg_n, and the search is the one without it
    rejected = []
    point_screen = guesser._point_screen

    def counted(*args):
        rejected.append(point_screen(*args))
        return rejected[-1]

    monkeypatch.setattr(guesser, "_point_screen", counted)
    values = []
    for v in f_seq(1, 25).values:
        acc = []
        add_product(acc, (-guesser._A0, 1), v.coeffs)
        values.append(AlphaPoly(acc))
    seq = PolySequence(0, tuple(values))
    got = assert_guess_matches_the_per_candidate_search(caplog, seq, GuessSpec(3, 3, 3))
    assert got.operator == builtin_operator(1)
    assert rejected == [0, 0]
    assert slabs == [8, 16, 32, 12, 24]


def test_guess_finds_the_f3_operator(lifts, slabs):
    res = guess_operator(f_seq(3, 25), GuessSpec(4, 6, 8))
    assert res.candidate == (4, 6, 8)
    # the one-point screen rejects order 1, order 2 below deg_n 6 and order
    # 3 below deg_n 4, whose first slabs are the capped ones, of deg_n 6;
    # order 4, rejected below deg_n 3, opens the slabs of deg_n 3 and 6
    assert slabs == [189, 252, 180, 315]
    assert res.kernel_dim == 1
    assert (res.equations, res.unknowns) == (401, 315)
    assert sum(map(len, res.operator.coeffs)) == 179
    # the lift from _PRIME is not certified, the screen of every row raises
    # no rank, and the next prime's lift is certified
    p, q = guesser._PRIME, next_primes(1)[0]
    assert [m for m, _ in lifts] == [p, p * q]
    assert_each_basis_is_lifted_once(lifts)
    # its leading coefficient c_4 has a-degree 2, so each extension step
    # divides by a polynomial in a, not by a constant
    assert max(q for _, q, _ in res.operator.coeffs[-1]) == 2
    op = res.operator
    assert extend_sequence(op, operator_seed(3, op, 40), 40) == fk_sequence_direct(3, 40)
