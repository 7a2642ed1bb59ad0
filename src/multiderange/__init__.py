"""Exact cycle-count weight enumerators of multiset derangements.

A shape (k_1, ..., k_n) partitions a labeled ground set into blocks; the
library computes, exactly, the polynomial that counts the permutations
sending no element into its own block, weighted by a^(number of cycles).
Alongside the core Laguerre-moment construction there is a brute-force
oracle for small shapes, shift-operator recurrences for fast extension of
the equal-blocks sequences, and an exact-linear-algebra guesser that
discovers such recurrences from data.
"""

from .polys import (
    AlphaPoly,
    InexactDivision,
    PolySequence,
    SchemaError,
    divide_exact,
    poly_from_record,
    poly_to_record,
    rising_factorial,
)
from .laguerre import laguerre_product, moment_functional, scaled_laguerre
from .enumerator import (
    count_derangements,
    fk_value,
    identified_count,
    normalize_shape,
    weighted_derangement_poly,
)
from .oracle import (
    CapExceeded,
    cycle_enumerator_all,
    enumerate_derangements,
)
from .recurrence import (
    LeadingCoefficientZero,
    RecurrenceOperator,
    UnsupportedK,
    WindowTooShort,
    builtin_operator,
    extend_sequence,
    load_operator,
    load_sequence,
    operator_from_record,
    operator_seed,
    operator_to_record,
    save_operator,
    save_sequence,
    sequence_from_record,
    sequence_to_record,
    verify_operator,
)
from .guesser import (
    GuessResult,
    GuessSpec,
    InsufficientTerms,
    NotFound,
    guess_operator,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaPoly",
    "CapExceeded",
    "GuessResult",
    "GuessSpec",
    "InexactDivision",
    "InsufficientTerms",
    "LeadingCoefficientZero",
    "NotFound",
    "PolySequence",
    "RecurrenceOperator",
    "SchemaError",
    "UnsupportedK",
    "WindowTooShort",
    "builtin_operator",
    "count_derangements",
    "cycle_enumerator_all",
    "divide_exact",
    "enumerate_derangements",
    "extend_sequence",
    "fk_value",
    "guess_operator",
    "identified_count",
    "laguerre_product",
    "load_operator",
    "load_sequence",
    "moment_functional",
    "normalize_shape",
    "operator_from_record",
    "operator_seed",
    "operator_to_record",
    "poly_from_record",
    "poly_to_record",
    "rising_factorial",
    "save_operator",
    "save_sequence",
    "scaled_laguerre",
    "sequence_from_record",
    "sequence_to_record",
    "verify_operator",
    "weighted_derangement_poly",
]
