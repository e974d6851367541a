"""Property tests: the lattice kernel, the batched incorrigibility test
and the minimal-matrix search against the brute-force oracles.

Random codes with n <= 10 (n <= 14 for the incorrigibility test) and
random dual-spanning parity-check matrices come from the conftest
helpers, seeded by hypothesis.  Examples are derandomized so the suite
stays deterministic.
"""

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stopset.codes import _SPAN_BLOCK_BITS, LinearCode, full_code, hamming_7_4, repetition, rm_8_4_4, zero_code
from stopset.construct import PREDICATES, SEARCH_MAX_DUAL_WORDS, complete_matrix, minimal_matrix_search
from stopset.gf2 import rank, row_space_iter, select_columns
from stopset.stopsets import (
    _histogram,
    _incorrigible_flags,
    _optimal_flags,
    _packed,
    _stopping_flags,
    _unpack,
    dead_end_enumerator,
    incorrigible_enumerator,
    is_incorrigible,
    optimal_enumerators,
    profile,
    stopping_set_enumerator,
)

from conftest import (
    contained_supports,
    oracle_dead_end_enumerator,
    oracle_incorrigible_enumerator,
    oracle_is_stopping,
    oracle_minimal_matrix_search,
    oracle_passing_candidates,
    oracle_stopping_enumerator,
    oracle_weight_enumerator,
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


@PROPERTY
@given(codes())
def test_flags_match_oracles_mask_by_mask(drawn):
    # the search reads these flags mask by mask; equal histograms would not show a swap
    _, code = drawn
    h_star = complete_matrix(code)
    everything = range(1 << code.n)
    assert _unpack(_incorrigible_flags(code), code.n).tolist() == [bool(contained_supports(code, m)) for m in everything]
    assert _unpack(_optimal_flags(code), code.n).tolist() == [oracle_is_stopping(h_star, m) for m in everything]


def _check_against_oracles(code, h):
    """A, S, D, I, S* and D* and the complete matrix equal the oracles,
    and no flag lands past bit 2**n - 1."""
    n = code.n
    assert code.weight_enumerator == oracle_weight_enumerator(code)
    assert (stopping_set_enumerator(h), dead_end_enumerator(h)) == (
        oracle_stopping_enumerator(h),
        oracle_dead_end_enumerator(h),
    )
    assert incorrigible_enumerator(code) == oracle_incorrigible_enumerator(code)
    h_star = complete_matrix(code)
    assert h_star.rows == tuple(sorted(row_space_iter(code.parity_basis)))
    star = optimal_enumerators(code)
    assert (star.stopping, star.dead_end) == (oracle_stopping_enumerator(h_star), oracle_dead_end_enumerator(h_star))
    for flags in (_stopping_flags(h), _incorrigible_flags(code), _optimal_flags(code)):
        assert flags.size == 1 << max(n - 6, 0)
        if n < 6:
            assert int(flags[0]) >> (1 << n) == 0


@pytest.mark.parametrize("block_bits", [_SPAN_BLOCK_BITS, 1])
@pytest.mark.parametrize("n", range(1, 9))
def test_word_boundaries_random_codes(n, block_bits, monkeypatch):
    # n < 6 fills part of one word, n = 6 exactly one, n = 7 and 8 two and four;
    # block_bits 1 walks every span (codewords and dual words) over many
    # blocks, as for a span of more than 2**16 words
    monkeypatch.setattr("stopset.codes._SPAN_BLOCK_BITS", block_bits)
    rng = random.Random(n)
    for r in range(n + 1):
        code = random_code(rng, n, r)
        _check_against_oracles(code, random_dual_spanning_matrix(rng, code, rng.randrange(3)))


@pytest.mark.parametrize("make", [full_code, zero_code, repetition])
@pytest.mark.parametrize("n", range(1, 9))
def test_word_boundaries_special_codes(make, n):
    code = make(n)
    _check_against_oracles(code, code.parity_basis)


@pytest.mark.parametrize("n", [1, 5, 6, 7, 20])
def test_histogram_of_all_sets_is_binomial(n):
    assert _histogram(_packed(n, fill=True), n).coefficients == tuple(math.comb(n, i) for i in range(n + 1))


def _check_all_masks(code):
    """Array form == scalar form == contained-support oracle, on every mask."""
    masks = np.arange(1 << code.n, dtype=np.uint64)
    flags = is_incorrigible(code, masks)
    assert flags.dtype == bool and flags.shape == masks.shape
    assert flags.tolist() == [is_incorrigible(code, m) for m in range(1 << code.n)]
    assert flags.tolist() == [bool(contained_supports(code, m)) for m in range(1 << code.n)]


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(st.integers(1, 14), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_incorrigible_array_matches_scalar_and_oracle(n, k, seed):
    # redundancy n - k keeps the oracle's 2^n masks x 2^k codewords small
    code = random_code(random.Random(seed), n, max(n - k, 0))
    _check_all_masks(code)


@pytest.mark.parametrize("make", [full_code, zero_code, repetition])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_incorrigible_array_special_codes(make, n):
    _check_all_masks(make(n))


def test_incorrigible_array_empty():
    flags = is_incorrigible(repetition(5), np.empty(0, dtype=np.uint64))
    assert flags.dtype == bool and flags.shape == (0,)


def test_incorrigible_array_rejects_out_of_range():
    with pytest.raises(IndexError):
        is_incorrigible(repetition(5), np.array([1 << 5], dtype=np.uint64))


def test_incorrigible_array_n64_matches_scalar():
    rng = random.Random(64)
    code = random_code(rng, 64, 40)
    density = [rng.uniform(0.2, 0.9) for _ in range(300)]
    masks = np.array([sum(1 << j for j in range(64) if rng.random() < p) for p in density], dtype=np.uint64)
    flags = is_incorrigible(code, masks)
    assert flags.tolist() == [is_incorrigible(code, int(m)) for m in masks]
    assert 0 < flags.sum() < len(masks)  # both outcomes occur


def _rows(h):
    return None if h is None else h.rows


def _ranked_search(code, predicate, max_rows=None):
    """The search's result and the row tuples it passed to rank, in order."""
    ranked = []

    def recording(h):
        ranked.append(h.rows)
        return rank(h)

    with mock.patch("stopset.construct.rank", recording):
        found = minimal_matrix_search(code, predicate, max_rows)
    return found, ranked


def _check_search_case(code, predicate, max_rows):
    nk = code.n - code.k
    found, ranked = _ranked_search(code, predicate, max_rows)
    assert _rows(found) == _rows(oracle_minimal_matrix_search(code, predicate, max_rows))
    # rank runs only on passing candidates of at least n-k rows, in search
    # order, up to the result
    passing = []
    for h in oracle_passing_candidates(code, predicate, max_rows):
        if h.r < nk:
            continue
        passing.append(h.rows)
        if rank(h) == nk:
            break
    assert ranked == passing


def _check_search(code):
    nk = code.n - code.k
    for predicate in PREDICATES:
        for max_rows in (None, nk, nk + 1):
            _check_search_case(code, predicate, max_rows)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.integers(1, 8), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_minimal_search_matches_oracle(n, redundancy, seed):
    _check_search(random_code(random.Random(seed), n, min(redundancy, n)))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_minimal_search_matches_oracle_distance_3(n):
    # Hamming [7,4,3] and its shortenings: d = 3 with n-k = 3
    h = select_columns(hamming_7_4().parity_basis, range(1, n + 1))
    _check_search(LinearCode.from_parity_check(h))


@pytest.mark.parametrize("predicate", ["s=d", "D=I"])
def test_minimal_search_matches_oracle_rm_8_4_4(predicate):
    # 15 dual words, and answers of 5 and 6 rows, above n-k = 4; the 148
    # forbidden sets of D=I span three 64-bit words.  S=S* is left out
    # only because its oracle takes seconds.
    _check_search_case(rm_8_4_4(), predicate, None)


@pytest.mark.parametrize("make", [full_code, zero_code, repetition])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("predicate", PREDICATES)
def test_minimal_search_special_codes(make, n, predicate):
    code = make(n)
    if (1 << (code.n - code.k)) - 1 > SEARCH_MAX_DUAL_WORDS:  # zero_code(5)
        with pytest.raises(ValueError):
            minimal_matrix_search(code, predicate)
        return
    found = minimal_matrix_search(code, predicate)
    assert _rows(found) == _rows(oracle_minimal_matrix_search(code, predicate))
