"""Property tests: the lattice kernel, the batched incorrigibility test,
the minimal-matrix search and the parity-check test against the
brute-force oracles.

Random codes with n <= 10 (n <= 14 for the incorrigibility test) and
random dual-spanning parity-check matrices come from the conftest
helpers, seeded by hypothesis.  Examples are derandomized so the suite
stays deterministic.
"""

import functools
import math
import operator
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stopset.codes import _SPAN_BLOCK_BITS, Enumerator, LinearCode, full_code, hamming_7_4, repetition, rm_8_4_4, zero_code
from stopset.construct import PREDICATES, SEARCH_MAX_DUAL_WORDS, complete_matrix, minimal_matrix_search
from stopset.decoder import is_parity_check_of
from stopset.gf2 import BitMatrix, permute_columns, rank, row_space_iter, select_columns, syndrome, transpose
from stopset.stopsets import (
    _HAS,
    _SLAB_WORDS,
    _histogram,
    _incorrigible_flags,
    _keep_covered,
    _optimal_flags,
    _packed,
    _profile,
    _stopping_flags,
    _support_flags,
    _unpack,
    _upward_closure,
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
    poly_multiply,
    random_code,
    random_code_where,
    random_dual_spanning_matrix,
    random_parity_matrix,
)

PROPERTY = settings(derandomize=True, max_examples=50, deadline=None, database=None)


@st.composite
def codes(draw, max_n=10):
    n = draw(st.integers(1, max_n))
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
@given(codes(max_n=12), st.integers(0, 3), st.sampled_from([1, 2, 8]))
def test_stopping_flags_do_not_depend_on_the_slab_size(drawn, extra_rows, slab_words):
    rng, code = drawn
    h = random_dual_spanning_matrix(rng, code, extra_rows)
    whole = _stopping_flags(h)
    with mock.patch("stopset.stopsets._SLAB_WORDS", slab_words):
        assert np.array_equal(_stopping_flags(h), whole)
    assert _histogram(whole, h.n) == oracle_stopping_enumerator(h)


SLAB_SIZES = [1, 2, 8, 64]  # words per slab: one word, and from one pair up to several slabs


def _oracle_optimal_stopping(code):
    """S*(x) by definition: a set is stopping for the complete matrix iff
    it is the union of the codeword supports it contains."""
    counts = [0] * (code.n + 1)
    for m in range(1 << code.n):
        if functools.reduce(operator.or_, contained_supports(code, m), 0) == m:
            counts[m.bit_count()] += 1
    return Enumerator(tuple(counts))


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(st.integers(1, 14), st.integers(0, 6), st.integers(0, 2**32 - 1), st.integers(0, 3))
@example(14, 6, 1, 2)
@example(14, 0, 2, 0)
@example(13, 4, 3, 3)
def test_kernels_do_not_depend_on_the_slab_size(n, k, seed, extra_rows):
    # k <= 6 (about) keeps the oracles' 2^n masks x 2^k codewords small at n = 14
    rng = random.Random(seed)
    code = random_code(rng, n, max(n - k, 0))
    h = random_dual_spanning_matrix(rng, code, extra_rows)
    s, d = oracle_stopping_enumerator(h), oracle_dead_end_enumerator(h)
    i, s_star = oracle_incorrigible_enumerator(code), _oracle_optimal_stopping(code)
    for slab_words in SLAB_SIZES:
        with mock.patch("stopset.stopsets._SLAB_WORDS", slab_words):
            flags = _stopping_flags(h)
            assert _histogram(flags, n) == s
            flags[0] &= ~np.uint64(1)  # the empty set
            assert _histogram(_upward_closure(flags, range(n)), n) == d
            p = profile(h)
            assert (p.stopping, p.dead_end) == (s, d)
            assert incorrigible_enumerator(code) == i
            star = optimal_enumerators(code)
            assert (star.stopping, star.dead_end) == (s_star, i), slab_words


def _fold_histogram(words, n):
    # the whole-array histogram the slab histogram replaced, kept as the reference
    low = min(n, 6)
    of_size = [np.uint64(sum(1 << b for b in range(64) if b.bit_count() == k)) for k in range(low + 1)]
    poly = np.stack([np.bitwise_count(words & m) for m in of_size])
    for covered in range(low + 1, n + 1):
        half = poly.reshape(poly.shape[0], 2, -1)
        poly = np.zeros((covered + 1, half.shape[2]), np.min_scalar_type(math.comb(covered, covered // 2)))
        poly[:-1] = half[:, 0]
        poly[1:] += half[:, 1]
    return Enumerator(tuple(int(c) for c in poly[:, 0]))


def _reshape_closure(words, coords):
    # the whole-array closure passes the slab-swept ones replaced, kept as the reference
    for j in coords:
        if j < 6:
            moved = words << np.uint64(1 << j)
            moved &= _HAS[j]
            words |= moved
        else:
            pairs = words.reshape(-1, 2, 1 << (j - 6))
            pairs[:, 1] |= pairs[:, 0]
    return words


@pytest.mark.parametrize("slab_words", SLAB_SIZES)
@pytest.mark.parametrize("n", range(1, 21))
def test_slab_kernels_match_the_whole_array_passes(n, slab_words, monkeypatch):
    rng = np.random.default_rng(n)
    size = 1 << max(n - 6, 0)
    sparse = functools.reduce(operator.and_, rng.integers(0, 2**64, (3, size), dtype=np.uint64))  # 1 bit in 8
    if n < 6:
        sparse &= np.uint64((1 << (1 << n)) - 1)
    monkeypatch.setattr("stopset.stopsets._SLAB_WORDS", slab_words)
    for j in range(n):
        assert np.array_equal(_upward_closure(sparse.copy(), [j]), _reshape_closure(sparse.copy(), [j])), j
    coords = rng.permutation(n)[: rng.integers(1, n + 1)].tolist()
    closed = _upward_closure(sparse.copy(), coords)
    assert np.array_equal(closed, _reshape_closure(sparse.copy(), coords))
    for words in (sparse, closed, _packed(n), _packed(n, fill=True)):
        assert _histogram(words, n) == _fold_histogram(words, n)


def _complement(e):
    # (1+x)^n - E: the sets E does not count
    return Enumerator(tuple(math.comb(e.n, i) - c for i, c in enumerate(e.coefficients)))


@pytest.mark.parametrize("n1, n2, seed", [(12, 12, 1), (12, 12, 2), (13, 13, 3), (13, 13, 4)])
def test_direct_sum_identities_across_slabs(n1, n2, seed):
    # H = diag(H1, H2) with its columns shuffled, at n = 24 and 26 with the
    # real _SLAB_WORDS: the closure passes over coordinates j >= 20 pair
    # words in different slabs, which no oracle reaches.  A set is stopping
    # (not a dead end, not incorrigible; stopping for the complete matrix)
    # iff both its halves are, so S, (1+x)^n - D, (1+x)^n - I and S* are
    # products over the parts; the parts' own values are checked against
    # the oracles at n <= 14 above.
    rng = random.Random(seed)
    parts = []
    for n in (n1, n2):
        code = random_code(rng, n, rng.randrange(4, 7))
        parts.append((code, random_dual_spanning_matrix(rng, code, rng.randrange(4))))
    (code1, h1), (code2, h2) = parts
    perm = rng.sample(range(1, n1 + n2 + 1), n1 + n2)
    h = permute_columns(BitMatrix(h1.rows + tuple(row << n1 for row in h2.rows), n1 + n2), perm)
    code = LinearCode(h)
    assert 1 << (h.n - 6) > _SLAB_WORDS  # more than one slab
    p, p1, p2 = profile(h), profile(h1), profile(h2)
    assert p.stopping == poly_multiply(p1.stopping, p2.stopping)
    assert _complement(p.dead_end) == poly_multiply(_complement(p1.dead_end), _complement(p2.dead_end))
    i = poly_multiply(_complement(incorrigible_enumerator(code1)), _complement(incorrigible_enumerator(code2)))
    assert _complement(incorrigible_enumerator(code)) == i
    star, star1, star2 = optimal_enumerators(code), optimal_enumerators(code1), optimal_enumerators(code2)
    assert star.stopping == poly_multiply(star1.stopping, star2.stopping)
    assert _complement(star.dead_end) == i


def _full_redundancy_code(n, redundancy):
    return random_code_where(random.Random(n), [n], [redundancy], lambda c: c.n - c.k == redundancy)


@pytest.mark.parametrize("n, redundancy", [(24, 6), (26, 5)])
def test_optimal_matches_complete_matrix_across_slabs(n, redundancy):
    # two independent kernels with the real _SLAB_WORDS: the S* recursion
    # against the stopping-flag pass over all 2**(n-k) dual words as rows
    code = _full_redundancy_code(n, redundancy)
    assert 1 << (n - 6) > _SLAB_WORDS  # more than one slab
    star, complete = optimal_enumerators(code), profile(complete_matrix(code))
    assert star.stopping == complete.stopping
    assert star.dead_end == complete.dead_end == incorrigible_enumerator(code)


def _at_most(e, f):
    return all(a <= b for a, b in zip(e.coefficients, f.coefficients, strict=True))


def test_more_dual_rows_never_raise_s_or_d_across_slabs():
    # every stopping set of H plus rows is stopping for H, and every
    # incorrigible set is a dead end for any parity-check matrix
    code = _full_redundancy_code(24, 6)
    basis, more = profile(code.parity_basis), profile(random_dual_spanning_matrix(random.Random(1), code, 6))
    assert _at_most(more.stopping, basis.stopping) and _at_most(more.dead_end, basis.dead_end)
    i = incorrigible_enumerator(code)
    assert _at_most(i, more.dead_end) and _at_most(i, basis.dead_end)


def test_hamming_stopping_enumerator_is_the_same_for_every_full_rank_matrix():
    # Abdel-Ghaffar and Weber, IEEE Trans. IT 2007: every full-rank
    # parity-check matrix of a Hamming code has the same S(x); here the
    # [15,11] code's basis under 20 random invertible row transforms
    columns = BitMatrix(tuple(range(1, 16)), 4)  # column j of H holds j
    h = transpose(columns)
    s = stopping_set_enumerator(h)
    rng = random.Random(15)
    for _ in range(20):
        while rank(t := BitMatrix(tuple(rng.randrange(16) for _ in range(4)), 4)) < 4:
            pass
        g = BitMatrix(tuple(syndrome(columns, a) for a in t.rows), 15)  # row i: the rows of H that t.rows[i] selects
        assert rank(g) == 4
        assert stopping_set_enumerator(g) == s


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


def _check_last_leaf_closes_to_incorrigible(code):
    # _keep_covered leaves the supports closed over all but coordinate n-1,
    # so one more closure gives the I flags, and D*(x) = I(x) rests on that
    n = code.n
    supports = _support_flags(code)
    _keep_covered(_packed(n, fill=True), supports, range(n))
    _upward_closure(supports, [n - 1])
    assert np.array_equal(_unpack(supports, n), _unpack(_incorrigible_flags(code), n))
    d_star = optimal_enumerators(code).dead_end
    assert d_star == incorrigible_enumerator(code) == dead_end_enumerator(complete_matrix(code))


@PROPERTY
@given(codes(max_n=14))
def test_last_leaf_closure_gives_incorrigible_flags(drawn):
    _check_last_leaf_closes_to_incorrigible(drawn[1])


@pytest.mark.parametrize("code", [
    *(f(n) for f in (zero_code, full_code, repetition) for n in (1, 2, 5, 6, 7, 14)),
    hamming_7_4(),
    rm_8_4_4(),
], ids=lambda code: f"n{code.n}-k{code.k}")
def test_last_leaf_closure_gives_incorrigible_flags_at_the_edges(code):
    # k = 0, k = n, one partial word (n < 6), exactly one word (n = 6) and n = 14
    _check_last_leaf_closes_to_incorrigible(code)


def rank_is_parity_check_of(h, code):
    """The rank definition: n columns, rank n - k, and the parity basis
    stacked under H adds no rank."""
    if h.n != code.n:
        return False
    target = code.parity_basis.r
    return rank(h) == target and rank(BitMatrix(h.rows + code.parity_basis.rows, h.n)) == target


@PROPERTY
@given(codes(), st.integers(0, 3))
def test_is_parity_check_of_matches_rank_definition(drawn, extra_rows):
    rng, code = drawn
    n = code.n
    h = random_dual_spanning_matrix(rng, code, extra_rows)
    rows = [*h.rows, 0, *h.rows[:1]]  # a zero row and a duplicate
    rng.shuffle(rows)
    padded = BitMatrix(tuple(rows), n)
    other = random_code(rng, n, rng.randrange(n + 1))
    matrices = [
        h,
        padded,
        BitMatrix(h.rows[1:], n),
        other.parity_basis,
        random_dual_spanning_matrix(rng, other, extra_rows),
        random_parity_matrix(rng, n, rng.randrange(n + 2)),
        random_parity_matrix(rng, n + 1, code.parity_basis.r),
    ]
    for m in matrices:
        assert is_parity_check_of(m, code) == rank_is_parity_check_of(m, code)
    assert is_parity_check_of(h, code) and is_parity_check_of(padded, code)


@PROPERTY
@given(codes())
def test_flags_match_oracles_mask_by_mask(drawn):
    # the search reads these flags mask by mask; equal histograms would not show a swap
    _, code = drawn
    h_star = complete_matrix(code)
    everything = range(1 << code.n)
    assert _unpack(_incorrigible_flags(code), code.n).tolist() == [bool(contained_supports(code, m)) for m in everything]
    assert _unpack(_optimal_flags(code)[0], code.n).tolist() == [oracle_is_stopping(h_star, m) for m in everything]


@PROPERTY
@given(codes(max_n=12), st.integers(0, 3))
def test_incorrigible_sets_are_dead_end_sets(drawn, extra_rows):
    # why monte_carlo counts the iterative-only failures as D minus I
    rng, code = drawn
    h = random_dual_spanning_matrix(rng, code, extra_rows)
    dead_end = _stopping_flags(h)
    _profile(dead_end, code.n)  # closes the stopping flags into the dead-end flags
    assert _histogram(dead_end, code.n) == dead_end_enumerator(h) == profile(h).dead_end
    incorrigible = _unpack(_incorrigible_flags(code), code.n)
    assert not (incorrigible & ~_unpack(dead_end, code.n)).any()


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
    for flags in (_stopping_flags(h), _incorrigible_flags(code), *_optimal_flags(code)):
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
    found, ranked = _ranked_search(code, predicate, max_rows)
    assert _rows(found) == _rows(oracle_minimal_matrix_search(code, predicate, max_rows))
    # rank runs once, on the result, as the search's postcondition
    assert ranked == ([] if found is None else [found.rows])


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


@pytest.mark.parametrize("predicate", ["s=d", "D=I"])
@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_minimal_search_matches_oracle_shortened_hamming(n, predicate):
    # n-k = 4 and d = 3: n of the 15 nonzero 4-bit columns, ascending, as
    # in the search benchmark.  S=S* is left out for its oracle's cost.
    cols = sorted(random.Random(n).sample(range(1, 16), n))
    h = BitMatrix(tuple(sum(1 << j for j, c in enumerate(cols) if c >> i & 1) for i in range(4)), n)
    _check_search_case(LinearCode.from_parity_check(h), predicate, None)


@pytest.mark.parametrize(
    "columns, max_rows, expected",
    [
        ([15, 8, 1, 0, 4], None, (1, 2, 4, 16)),
        ([1, 11, 14, 3, 14], 4, (1, 2, 8, 20)),
        ([6, 0, 3, 4], None, (1, 4, 8)),
    ],
)
def test_minimal_search_skips_rank_deficient_candidates(columns, max_rows, expected):
    # codes of d <= 2 whose first "s=d" candidates of n-k rows pass the
    # predicate but do not span the dual, so only the odd sets skip them
    nk = max(columns).bit_length()
    h = BitMatrix(tuple(sum(1 << j for j, c in enumerate(columns) if c >> i & 1) for i in range(nk)), len(columns))
    code = LinearCode.from_parity_check(h)
    first = next(c for c in oracle_passing_candidates(code, "s=d", max_rows) if c.r == nk)
    assert rank(first) < nk
    _check_search_case(code, "s=d", max_rows)
    assert minimal_matrix_search(code, "s=d", max_rows).rows == expected


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
