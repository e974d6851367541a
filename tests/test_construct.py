import math
import random

import pytest

from stopset.codes import LinearCode, catalog, full_code, repetition, rm_8_4_4, zero_code
from stopset.construct import (
    bad_matrix,
    binary_entropy,
    complete_matrix,
    minimal_matrix_search,
    redundancy_bounds,
    weight_bounded_dual_matrix,
)
from stopset.decoder import is_parity_check_of
from stopset.gf2 import BitMatrix, permute_columns, rank
from stopset.stopsets import (
    dead_end_enumerator,
    incorrigible_enumerator,
    is_stopping_set,
    optimal_enumerators,
    stopping_distance,
    stopping_set_enumerator,
)

from conftest import random_code_where

RM = rm_8_4_4()


def test_complete_matrix_rm():
    h = complete_matrix(RM)
    assert h.r == 16
    assert h.rows[0] == 0  # zero row included
    assert h.rows == tuple(sorted(h.rows))
    assert h.has_distinct_rows
    assert rank(h) == 4


def test_complete_matrix_small():
    assert complete_matrix(full_code(3)).rows == (0,)
    assert complete_matrix(repetition(2)).rows == (0, 0b11)


def test_complete_matrix_guard():
    wide = LinearCode.from_parity_check(BitMatrix(tuple(1 << i for i in range(21)), 22))
    with pytest.raises(ValueError):
        complete_matrix(wide)


def test_zero_row_does_not_affect_predicates():
    h = complete_matrix(RM)
    no_zero = BitMatrix(tuple(r for r in h.rows if r), 8)
    assert stopping_set_enumerator(h) == stopping_set_enumerator(no_zero)
    assert dead_end_enumerator(h) == dead_end_enumerator(no_zero)


def test_weight_bounded_h14():
    h = weight_bounded_dual_matrix(RM, 4)
    assert h.rows == catalog("H_14").rows
    # dual weights are 0, 4, 8 so the k+1 = 5 instance is identical
    assert weight_bounded_dual_matrix(RM, 5).rows == h.rows


def test_weight_bounded_rank_guarantee_at_k_plus_1():
    rng = random.Random(60)
    for _ in range(20):
        code = random_code_where(rng, range(2, 11), range(1, 7), lambda c: c.k < c.n)
        h = weight_bounded_dual_matrix(code, code.k + 1)
        assert rank(h) == code.n - code.k
        assert is_parity_check_of(h, code)
        assert all(0 < w.bit_count() <= code.k + 1 for w in h.rows)


def test_weight_bounded_rank_deficient_raises():
    # the dual of repetition(5) has minimum weight 2
    with pytest.raises(ValueError):
        weight_bounded_dual_matrix(repetition(5), 1)


def test_weight_bounded_repetition_pairs():
    # all weight-2 dual words of the repetition code: D(x) = I(x) = x^n
    for n in range(3, 7):
        h = weight_bounded_dual_matrix(repetition(n), 2)
        assert h.r == math.comb(n, 2)
        assert rank(h) == n - 1
        d_poly = dead_end_enumerator(h)
        assert d_poly == incorrigible_enumerator(repetition(n))
        assert d_poly.poly_str() == f"x^{n}"


def test_weight_bounded_dead_end_optimal():
    rng = random.Random(61)
    for _ in range(10):
        code = random_code_where(rng, range(2, 11), range(1, 7), lambda c: c.k < c.n)
        h = weight_bounded_dual_matrix(code, code.k + 1)
        assert dead_end_enumerator(h) == incorrigible_enumerator(code)


def test_bad_matrix_rm():
    h, perm = bad_matrix(RM)
    assert rank(h) == 4
    assert stopping_distance(h) == 3
    assert is_stopping_set(h, {1, 2, 3})
    permuted = LinearCode.from_parity_check(permute_columns(RM.parity_basis, perm))
    assert is_parity_check_of(h, permuted)
    # top-left block is the published gadget for d = 4
    first3 = [row & 0b1111 for row in h.rows[:3]]
    assert first3 == [0b0011, 0b0110, 0b1111]


def test_bad_matrix_repetition():
    h, _ = bad_matrix(repetition(6))
    assert h.r == 5  # the gadget alone: n-k = d-1 rows
    assert stopping_distance(h) == 3


def test_bad_matrix_rejects_small_distance():
    with pytest.raises(ValueError):
        bad_matrix(catalog("hamming_7_4"))
    with pytest.raises(ValueError):
        bad_matrix(zero_code(5))


def test_bad_matrix_deterministic():
    h1, p1 = bad_matrix(RM)
    h2, p2 = bad_matrix(RM)
    assert h1.rows == h2.rows and p1 == p2


def test_minimal_search_rm_stopping_optimal():
    h = minimal_matrix_search(RM, "S=S*")
    assert h is not None and h.r == 14
    assert set(h.rows) == set(catalog("H_14").rows)
    assert stopping_set_enumerator(h) == optimal_enumerators(RM).stopping


def test_minimal_search_rm_stopping_distance():
    h = minimal_matrix_search(RM, "s=d")
    assert h is not None and h.r <= 5  # the 5-row benchmark witnesses feasibility
    assert stopping_distance(h) == 4
    assert is_parity_check_of(h, RM)


def test_minimal_search_repetition_dead_end():
    h = minimal_matrix_search(repetition(3), "D=I")
    assert h is not None and h.r == 2
    assert dead_end_enumerator(h) == incorrigible_enumerator(repetition(3))


def test_minimal_search_result_verified_by_production_enumerators():
    rng = random.Random(62)
    for _ in range(5):
        code = random_code_where(
            rng, range(3, 9), range(1, 4),
            lambda c: 0 < c.k < c.n and (1 << (c.n - c.k)) - 1 <= 20,
        )
        h = minimal_matrix_search(code, "D=I")
        assert h is not None
        assert is_parity_check_of(h, code)
        assert dead_end_enumerator(h) == incorrigible_enumerator(code)
        holtol = redundancy_bounds(code.n, code.k).holtol_bound
        low_weight = sum(
            1 for w in complete_matrix(code).rows if 0 < w.bit_count() <= code.k + 1
        )
        assert h.r <= min(holtol, low_weight)


def test_minimal_search_max_rows_and_errors():
    assert minimal_matrix_search(RM, "S=S*", max_rows=5) is None
    with pytest.raises(ValueError):
        minimal_matrix_search(RM, "S==S*")
    big = LinearCode.from_parity_check(BitMatrix(tuple(1 << i for i in range(5)), 10))
    with pytest.raises(ValueError):
        minimal_matrix_search(big, "D=I")  # 31 nonzero dual words


def test_minimal_search_shares_enumeration_guard(monkeypatch):
    monkeypatch.delenv("STOPSET_MAX_N", raising=False)
    code = LinearCode.from_parity_check(BitMatrix(tuple(0x7F << (7 * i) for i in range(4)), 29))
    assert (code.n, code.k) == (29, 25)  # 15 nonzero dual words, within the search guard
    with pytest.raises(ValueError, match="subset enumeration guard 28"):
        minimal_matrix_search(code, "D=I")


def test_minimal_search_dual_dimension_guard():
    wide = LinearCode.from_parity_check(BitMatrix(tuple(1 << i for i in range(21)), 22))
    with pytest.raises(ValueError, match="complete-matrix guard"):
        minimal_matrix_search(wide, "s=d")


def test_eq1_row_count_range():
    rng = random.Random(63)
    for _ in range(10):
        code = random_code_where(rng, range(2, 10), range(1, 6), lambda c: c.k < c.n)
        nk = code.n - code.k
        for h in [complete_matrix(code), weight_bounded_dual_matrix(code, code.k + 1)]:
            assert nk <= h.r <= 1 << nk
            assert h.has_distinct_rows
        if code.minimum_distance is not math.inf and code.minimum_distance >= 4:
            h, _ = bad_matrix(code)
            assert nk <= h.r <= 1 << nk
            assert h.has_distinct_rows


def test_binary_entropy():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == binary_entropy(1.0) == 0.0
    assert 0.0 < binary_entropy(0.11) < 0.5
    with pytest.raises(ValueError):
        binary_entropy(-0.1)


def test_bounds_worked_example():
    rep = redundancy_bounds(8, 4, 4, m=4)
    assert rep.sv_bound == 10  # C(4,1) + C(4,2)
    assert rep.hs_bound == 8  # C(4,1) + C(4,3)
    assert rep.ht_bound == 8  # sum_{i<4} C(3,i)
    assert rep.holtol_bound == 8  # 2^3
    assert rep.entropy_bound is None  # k > n/2 - 1


def test_bounds_entropy_case():
    rep = redundancy_bounds(8, 3)
    assert rep.entropy_bound == pytest.approx(256.0)


def test_bounds_entropy_overflow():
    rep = redundancy_bounds(3000, 1000)  # 2**(n H) is past the largest float
    assert rep.entropy_bound is None
    assert "float range" in dict(rep.notes)["entropy_bound"]
    assert rep.holtol_bound == 1 << 1999


def test_bounds_d2_empty_sum():
    rep = redundancy_bounds(8, 4, 2)
    assert rep.sv_bound == 0
    assert rep.hs_bound == 4  # C(4,1)
    notes = dict(rep.notes)
    assert "sv_bound" in notes and "empty sum" in notes["sv_bound"]


def test_bounds_omissions():
    rep = redundancy_bounds(8, 8)
    notes = dict(rep.notes)
    assert rep.holtol_bound is None and "holtol_bound" in notes
    assert rep.sv_bound is None and rep.hs_bound is None
    rep = redundancy_bounds(8, 4, 4, m=9)
    assert rep.ht_bound is None
    with pytest.raises(ValueError):
        redundancy_bounds(4, 5)


def test_bounds_ht_at_full_m_equals_holtol():
    for n, k in [(8, 4), (10, 3), (12, 7)]:
        rep = redundancy_bounds(n, k, d=3, m=n - k)
        assert rep.ht_bound == rep.holtol_bound == 1 << (n - k - 1)
