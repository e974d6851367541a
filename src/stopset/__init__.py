"""Exact erasure-channel analysis for binary linear block codes.

Stopping-set, dead-end-set, incorrigible-set and weight enumerators for
arbitrary parity-check matrices; peeling and optimal erasure decoders;
parity-check matrix constructions with optimal enumerators; row-count
bounds; and a reproducible Monte Carlo channel harness.

The names below are the documented API (README, section API).  Record
types such as StoppingProfile or DecodeOutcome come back as return
values; they and the GF(2) helpers stay importable from their modules.
"""

from .codes import (
    Enumerator,
    LinearCode,
    catalog,
    direct_sum,
    full_code,
    hamming_7_4,
    repetition,
    rm_8_4_4,
    zero_code,
)
from .construct import (
    bad_matrix,
    complete_matrix,
    minimal_matrix_search,
    redundancy_bounds,
    weight_bounded_dual_matrix,
)
from .decoder import (
    AMBIGUOUS,
    DECODED,
    STALLED,
    ChannelModelViolation,
    ReceivedWord,
    classify_erasure_set,
    iterative_decode,
    optimal_decode,
)
from .gf2 import BitMatrix, format_matrix, mask_from_indices, parse_matrix
from .harness import ChannelConfig, analytic_pud, monte_carlo, table1_report
from .stopsets import (
    dead_end_enumerator,
    incorrigible_enumerator,
    is_incorrigible,
    is_stopping_set,
    minimum_stopping_decomposition,
    optimal_enumerators,
    peel_closure,
    profile,
    stopping_distance,
    stopping_set_enumerator,
)

__all__ = [
    "AMBIGUOUS",
    "BitMatrix",
    "ChannelConfig",
    "ChannelModelViolation",
    "DECODED",
    "Enumerator",
    "LinearCode",
    "ReceivedWord",
    "STALLED",
    "analytic_pud",
    "bad_matrix",
    "catalog",
    "classify_erasure_set",
    "complete_matrix",
    "dead_end_enumerator",
    "direct_sum",
    "format_matrix",
    "full_code",
    "hamming_7_4",
    "incorrigible_enumerator",
    "is_incorrigible",
    "is_stopping_set",
    "iterative_decode",
    "mask_from_indices",
    "minimal_matrix_search",
    "minimum_stopping_decomposition",
    "monte_carlo",
    "optimal_decode",
    "optimal_enumerators",
    "parse_matrix",
    "peel_closure",
    "profile",
    "redundancy_bounds",
    "repetition",
    "rm_8_4_4",
    "stopping_distance",
    "stopping_set_enumerator",
    "table1_report",
    "weight_bounded_dual_matrix",
    "zero_code",
]
