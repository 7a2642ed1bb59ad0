"""Built-in consistency suites behind the ``selftest`` CLI command.

Four independent checks: the small-shape sweep against the brute-force
oracle, the all-permutations cycle identity, the 52-card-deck golden
values, and recurrence-vs-direct cross-validation.  Each check returns
(passed, detail); run_all runs them from one table, in that order, and
times each into a SuiteResult, so the CLI can print one row per suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from . import oracle
from .enumerator import fk_sequence_direct, identified_count, weighted_derangement_poly
from .polys import AlphaPoly, rising_factorial
from .recurrence import fk_sequence_via_recurrence

# Weight enumerator for the derangements of a standard 52-card deck grouped
# into 13 rank blocks of 4 cards: coefficient of a^m is the number of
# derangements with m cycles, cards labeled.  The identified count (divide
# the a=1 value by (4!)^13) is the classic 49-digit deck-derangement number.
DECK_SHAPE = (4,) * 13

DECK_COEFFS: dict[int, int] = {
    26: 626486325682388256883179081695232,
    25: 3948815860811007759557670403206807552,
    24: 4226160446928101410675933447042193424384,
    23: 1829313185198525509532452983498671376039936,
    22: 425955227133577312273392421310068029118218240,
    21: 61568711382255715699343414832865761752795578368,
    20: 6015599331237497842549834616372527226200006852608,
    19: 420030513102996289545618495318355347968579239673856,
    18: 21779385529606788308065066752435641655566027030790144,
    17: 861931009463580565142515454351924475556603802576486400,
    16: 26556926811772603306934511893782498309330811792400580608,
    15: 646219419386602045907824228576682527851206056554484727808,
    14: 12544166147808400841334081628081554018739662394272604225536,
    13: 195525408546538912690378251287680488219792943092212919435264,
    12: 2455695605166443718371007842011087818790955115435503879454720,
    11: 24867048146672227309345666989913796704728810126752820020379648,
    10: 202569793911613274182929019082185092261014157201085369153486848,
    9: 1320388339665569428585764027609539765653334771119656423470923776,
    8: 6825167923093955037138102373992833000704975000443998456569135104,
    7: 27602809328921835313793682068121303712142304270099611821308641280,
    6: 85647342705993322148148235777401007447932223607159691210985046016,
    5: 198159663830900044042641789039253865122617020230065397080602443776,
    4: 327547473685724687587188995032714624999930689030717701980120154112,
    3: 361148215004517312493645900517444844168859774724070502768740139008,
    2: 234426065400514976953417524798811902707109969381695319447196139520,
    1: 66394948050946830932484058263644488672722608355067055619597926400,
}

DECK_IDENTIFIED_COUNT = 1493804444499093354916284290188948031229880469556

# Largest ground set the oracle suites check; cap can only lower it.  Within
# oracle.DEFAULT_CAP, so those suites call the oracle with its own cap.
ORACLE_BOUND = 8


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    ms: float


def _timed(name: str, check, *args) -> SuiteResult:
    t0 = time.perf_counter()
    try:
        passed, detail = check(*args)
    except Exception as exc:  # a crash is a failure, not an abort
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return SuiteResult(name, passed, detail, (time.perf_counter() - t0) * 1000.0)


def compositions(total: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of positive integers summing to total, in
    lexicographic order: (..., y, x) is followed by (..., y + 1) and x - 1 ones."""
    if total < 0:
        return
    parts = [1] * total
    yield tuple(parts)
    while len(parts) > 1:
        last = parts.pop()
        parts[-1] += 1
        parts.extend([1] * (last - 1))
        yield tuple(parts)


def _sweep(bound: int) -> tuple[bool, str]:
    """Laguerre-moment path versus brute force on every small shape."""
    checked = 0
    for total in range(bound + 1):
        for shape in compositions(total):
            got = weighted_derangement_poly(shape)
            want = oracle.enumerate_derangements(shape)
            if got != want:
                return False, f"mismatch at shape {shape}: {got} vs {want}"
            checked += 1
    return True, f"{checked} shapes with total <= {bound}"


def _cycle_identity(bound: int) -> tuple[bool, str]:
    """Sum of a^cycles over all permutations equals the rising factorial."""
    for n in range(bound + 1):
        if oracle.cycle_enumerator_all(n) != rising_factorial(n):
            return False, f"identity fails at n={n}"
    return True, f"n <= {bound}"


def _deck() -> tuple[bool, str]:
    """Golden values for the 52-card deck by rank blocks."""
    poly = weighted_derangement_poly(DECK_SHAPE)
    want = AlphaPoly(DECK_COEFFS.get(m, 0) for m in range(27))
    if poly != want:
        return False, "deck polynomial differs from the golden table"
    if identified_count(DECK_SHAPE) != DECK_IDENTIFIED_COUNT:
        return False, "identified deck count differs"
    return True, "26 coefficients and the identified count"


def _recurrence() -> tuple[bool, str]:
    """Built-in operators against direct evaluation, plus plain counts."""
    for k, last in ((1, 10), (2, 8)):
        if fk_sequence_via_recurrence(k, last) != fk_sequence_direct(k, last):
            return False, f"k={k} diverges from direct evaluation on n <= {last}"
    counts = [v(1) for v in fk_sequence_via_recurrence(1, 10).values]
    classical = [1, 0]
    for n in range(1, 10):
        classical.append(n * (classical[n] + classical[n - 1]))
    if counts != classical:
        return False, "a=1 values are not the derangement numbers"
    return True, "k=1 (n<=10), k=2 (n<=8), derangement numbers"


def run_all(cap: int = oracle.DEFAULT_CAP) -> list[SuiteResult]:
    """Run the four suites in order; cap can only lower the oracle suites' bound."""
    bound = min(ORACLE_BOUND, cap)
    return [_timed(name, check, *args) for name, check, *args in (
        ("oracle-sweep", _sweep, bound),
        ("cycle-identity", _cycle_identity, bound),
        ("deck-of-cards", _deck),
        ("recurrence-cross-validation", _recurrence),
    )]
