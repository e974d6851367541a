"""Property tests: the lattice kernel against the brute-force oracles.

Random codes with n <= 10 and random dual-spanning parity-check matrices
come from the conftest helpers, seeded by hypothesis.  Examples are
derandomized so the suite stays deterministic.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from stopset.construct import complete_matrix
from stopset.stopsets import (
    dead_end_enumerator,
    incorrigible_enumerator,
    optimal_enumerators,
    profile,
    stopping_set_enumerator,
)

from conftest import (
    oracle_dead_end_enumerator,
    oracle_incorrigible_enumerator,
    oracle_stopping_enumerator,
    random_code,
    random_dual_spanning_matrix,
)

PROPERTY = settings(derandomize=True, max_examples=50, deadline=None, database=None)


@st.composite
def codes(draw):
    n = draw(st.integers(1, 10))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return rng, random_code(rng, n, draw(st.integers(0, n)))


@PROPERTY
@given(codes(), st.integers(0, 3))
def test_stopping_and_dead_end_match_oracles(drawn, extra_rows):
    rng, code = drawn
    h = random_dual_spanning_matrix(rng, code, extra_rows)
    s, d = stopping_set_enumerator(h), dead_end_enumerator(h)
    assert s == oracle_stopping_enumerator(h)
    assert d == oracle_dead_end_enumerator(h)
    p = profile(h)
    assert (p.stopping, p.dead_end) == (s, d)


@PROPERTY
@given(codes())
def test_incorrigible_matches_oracle(drawn):
    _, code = drawn
    assert incorrigible_enumerator(code) == oracle_incorrigible_enumerator(code)


@PROPERTY
@given(codes())
def test_optimal_matches_complete_matrix(drawn):
    _, code = drawn
    star = optimal_enumerators(code)
    h_star = complete_matrix(code)
    assert star.stopping == stopping_set_enumerator(h_star)
    assert star.dead_end == dead_end_enumerator(h_star)
    assert star.dead_end == incorrigible_enumerator(code)  # D*(x) = I(x)
