"""Acceptance gate: the eight end-to-end criteria, exact tolerances.

Each test prints its own PASS/FAIL line (run with -s to see them all);
every comparison is exact integer/polynomial equality, and the runtime
targets are asserted with the stated generous bounds.
"""

import random
import time
from math import factorial, prod

from multiderange.enumerator import (
    count_derangements,
    fk_sequence_direct,
    fk_value,
    identified_count,
    weighted_derangement_poly,
)
from multiderange.guesser import GuessSpec, guess_operator
from multiderange.oracle import cycle_enumerator_all, enumerate_derangements
from multiderange.polys import AlphaPoly, rising_factorial
from multiderange.recurrence import builtin_operator, fk_sequence_via_recurrence
from multiderange.selftest import (
    DECK_COEFFS,
    DECK_IDENTIFIED_COUNT,
    DECK_SHAPE,
    compositions,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed {suffix}"


DECK_POLY = None  # computed once, reused by criteria 1 and 2


def _deck_poly() -> AlphaPoly:
    global DECK_POLY
    if DECK_POLY is None:
        DECK_POLY = weighted_derangement_poly(DECK_SHAPE)
    return DECK_POLY


def test_criterion_1_deck_of_cards_polynomial():
    t0 = time.perf_counter()
    poly = _deck_poly()
    elapsed = time.perf_counter() - t0
    golden = AlphaPoly(DECK_COEFFS.get(m, 0) for m in range(27))
    ok = poly == golden and poly.degree == 26 and poly.coeffs[0] == 0
    ok = ok and poly.coeffs[26] == 626486325682388256883179081695232
    ok = ok and poly.coeffs[1] == (
        66394948050946830932484058263644488672722608355067055619597926400
    )
    ok = ok and elapsed < 60.0
    _report(1, "deck-of-cards golden polynomial", ok, f"{elapsed:.2f}s")


def test_criterion_2_identified_deck_count():
    labeled = _deck_poly()(1)
    quotient, remainder = divmod(labeled, factorial(4) ** 13)
    ok = remainder == 0 and quotient == DECK_IDENTIFIED_COUNT
    ok = ok and identified_count(DECK_SHAPE) == DECK_IDENTIFIED_COUNT
    _report(2, "identified deck count", ok)


def test_criterion_3_oracle_equivalence_sweep():
    t0 = time.perf_counter()
    checked = 0
    bad = None
    for total in range(9):
        for shape in compositions(total):
            if weighted_derangement_poly(shape) != enumerate_derangements(shape):
                bad = shape
                break
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = bad is None and checked == 256 and elapsed < 300.0
    _report(3, "oracle equivalence sweep (sum <= 8)", ok,
            f"{checked} shapes, {elapsed:.1f}s" + (f", first bad {bad}" if bad else ""))


def test_criterion_4_cycle_identity():
    ok = all(cycle_enumerator_all(n) == rising_factorial(n) for n in range(9))
    _report(4, "cycle identity vs rising factorial (n <= 8)", ok)


def test_criterion_5_recurrence_cross_validation():
    ok = True
    for k, last in ((1, 10), (2, 8)):
        ext = fk_sequence_via_recurrence(k, last)
        ok = ok and all(ext.value_at(n) == fk_value(k, n) for n in range(last + 1))
    counts = [v(1) for v in fk_sequence_via_recurrence(1, 10).values]
    ok = ok and counts[:7] == [1, 0, 1, 2, 9, 44, 265]
    classical = [1, 0]
    for n in range(1, 10):
        classical.append(n * (classical[n] + classical[n - 1]))
    ok = ok and counts == classical
    _report(5, "recurrence cross-validation + derangement numbers", ok)


def test_criterion_6_rediscovery_of_the_operators():
    t0 = time.perf_counter()
    got1 = guess_operator(fk_sequence_direct(1, 14), GuessSpec(2, 1, 1))
    got2 = guess_operator(fk_sequence_direct(2, 24), GuessSpec(3, 3, 3))
    elapsed = time.perf_counter() - t0
    ok = got1.operator == builtin_operator(1)
    ok = ok and got2.operator == builtin_operator(2)
    ok = ok and elapsed < 120.0
    _report(6, "operator rediscovery from 15/25 terms", ok, f"{elapsed:.1f}s")


def test_criterion_7_randomized_property_suite():
    rng = random.Random(1234)
    failures = 0
    shapes = 0
    while shapes < 200:
        total = rng.randint(1, 12)
        shape = []
        rest = total
        while rest:
            part = rng.randint(1, rest)
            shape.append(part)
            rest -= part
        shapes += 1
        poly = weighted_derangement_poly(shape)
        total_sum = sum(shape)
        good = all(c >= 0 for c in poly.coeffs)
        good = good and (not poly.coeffs or poly.coeffs[0] == 0)
        good = good and poly.degree <= total_sum // 2
        shuffled = shape[:]
        rng.shuffle(shuffled)
        good = good and weighted_derangement_poly(shuffled) == poly
        good = good and (
            count_derangements(shape) % prod(factorial(k) for k in shape) == 0
        )
        if not good:
            failures += 1
    _report(7, "randomized property suite (200 shapes, sum <= 12)",
            failures == 0, f"{failures} failures")


def _best_of_3(fn):
    """fn() and the least of three timings of it, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def test_criterion_8_recurrence_speedup():
    rec, t_rec = _best_of_3(lambda: fk_sequence_via_recurrence(2, 40))
    direct, t_direct = _best_of_3(lambda: fk_sequence_direct(2, 40))
    agree = rec == direct
    speedup = t_direct / t_rec if t_rec > 0 else float("inf")
    ok = agree and t_direct >= 5.0 * t_rec
    _report(8, "recurrence engine >= 5x faster for F_2(1..40)", ok,
            f"direct {t_direct * 1000:.0f}ms vs recurrence {t_rec * 1000:.1f}ms, "
            f"{speedup:.0f}x")
