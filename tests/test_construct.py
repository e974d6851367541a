import hashlib
import json
import math
import random
import re
import sys

import pytest

from stopset.codes import LinearCode, catalog, full_code, repetition, rm_8_4_4, zero_code
from stopset.construct import (
    PREDICATES,
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
    profile,
    stopping_distance,
    stopping_set_enumerator,
)

from conftest import extended_hamming, random_code_where

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
    with pytest.raises(ValueError, match="rank 21 exceeds row-space iteration limit 20"):
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


# sha256 of repr((rows, n, permutation)) of bad_matrix, first 16 hex digits, as
# computed when each dual word a . H' was a loop XORing the rows that a selects:
# 24 seeded codes with n = 8..16 and d >= 4, then the [16,11,4] extended Hamming code
BAD_MATRIX_DIGESTS = [
    "f11b3abb3f567777", "5e4d55b75ea25949", "4e753d2b220ac94d", "422ec4b8f8ff5717", "69034d7b48850d93",
    "d6a17fa0bd1c6491", "e50878010a2fe3ba", "f5b285ef64adfd70", "7de20f19a10db80a", "84aafa6a57c087ff",
    "034ea483bae6f826", "525cdde4a9ecd90f", "74d81494f7a349df", "b5c271c32308cef2", "4675bdf46f57baa8",
    "6cbed441f1c84ba9", "c3332c120ab4f4c0", "d7e81fc5e094aa66", "531ebcc6951499c5", "2e5d375a1f55dee0",
    "2aa6b50f9c9408de", "b800beb5d30aa62e", "5186778bd3c35ad2", "dce7a53cbfa6796e", "c29f385cc580b0d6",
]


def test_bad_matrix_rows_and_permutations_are_pinned():
    rng = random.Random(29)
    codes = [random_code_where(rng, range(8, 17), range(4, 10), lambda c: c.k > 0 and c.minimum_distance >= 4)
             for _ in range(24)]
    digests = []
    for code in [*codes, extended_hamming(4)]:
        h, perm = bad_matrix(code)
        digests.append(hashlib.sha256(repr((h.rows, h.n, perm)).encode()).hexdigest()[:16])
    assert digests == BAD_MATRIX_DIGESTS


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


def test_minimal_search_hamming_15_11():
    # column j of H is the binary expansion of j, for j = 1..15
    code = LinearCode.from_parity_check(
        BitMatrix(tuple(sum(((j >> i) & 1) << (j - 1) for j in range(1, 16)) for i in range(4)), 15)
    )
    assert (code.n, code.k, code.minimum_distance) == (15, 11, 3)
    optimal = optimal_enumerators(code)
    for predicate, rows in (("s=d", 4), ("S=S*", 15), ("D=I", 8)):
        h = minimal_matrix_search(code, predicate)
        assert h is not None and h.r == rows, predicate
        assert rank(h) == 4 and is_parity_check_of(h, code)
        found = profile(h)
        if predicate == "s=d":
            assert found.stopping_distance == 3
        elif predicate == "S=S*":
            assert found.stopping == optimal.stopping
        else:
            assert found.dead_end == incorrigible_enumerator(code)
        assert minimal_matrix_search(code, predicate, max_rows=rows - 1) is None


def test_minimal_search_max_rows_and_errors():
    assert minimal_matrix_search(RM, "S=S*", max_rows=5) is None
    for predicate, rows in (("s=d", 5), ("S=S*", 14), ("D=I", 6)):
        assert minimal_matrix_search(RM, predicate, max_rows=rows - 1) is None
        assert minimal_matrix_search(RM, predicate, max_rows=rows).r == rows
    with pytest.raises(ValueError):
        minimal_matrix_search(RM, "S==S*")
    with pytest.raises(ValueError, match="max_rows must be >= 0"):
        minimal_matrix_search(RM, "D=I", max_rows=-1)
    big = LinearCode.from_parity_check(BitMatrix(tuple(1 << i for i in range(5)), 10))
    with pytest.raises(ValueError):
        minimal_matrix_search(big, "D=I")  # 31 nonzero dual words


@pytest.mark.parametrize("predicate", PREDICATES)
def test_minimal_search_shares_enumeration_guard(monkeypatch, predicate):
    # only "D=I" builds guarded flags; the others would scan 2**29 sets unguarded
    monkeypatch.delenv("STOPSET_MAX_N", raising=False)
    code = LinearCode.from_parity_check(BitMatrix(tuple(0x7F << (7 * i) for i in range(4)), 29))
    assert (code.n, code.k) == (29, 25)  # 15 nonzero dual words, within the search guard
    with pytest.raises(ValueError, match=re.escape("n=29 exceeds enumeration guard 28 (set STOPSET_MAX_N")):
        minimal_matrix_search(code, predicate)


def test_minimal_search_dual_dimension_guard():
    wide = LinearCode.from_parity_check(BitMatrix(tuple(1 << i for i in range(21)), 22))
    with pytest.raises(ValueError, match="2097151 nonzero dual words exceed search guard 20"):
        minimal_matrix_search(wide, "s=d")


def test_minimal_search_refuses_before_listing_dual_words(monkeypatch):
    def listed(rows):
        raise AssertionError("dual words listed before the search guard")

    # codes lists the dual words and construct the pivot sets, each through its own _span_blocks
    for module in ("stopset.codes", "stopset.construct"):
        monkeypatch.setattr(f"{module}._span_blocks", listed)
    code = LinearCode.from_parity_check(BitMatrix(tuple(1 << i for i in range(5)), 10))
    with pytest.raises(ValueError, match="31 nonzero dual words exceed search guard 20"):
        minimal_matrix_search(code, "D=I")


def _four_row_code(family: str, n: int) -> LinearCode:
    """A seeded [n, n-4] code: from four random rows, or from n random
    nonzero 4-bit columns, distinct while n <= 15."""
    rng = random.Random(n)
    if family == "rows":
        return random_code_where(rng, [n], [4], lambda c: c.k == c.n - 4)
    cols = rng.sample(range(1, 16), min(n, 15)) + rng.choices(range(1, 16), k=max(n - 15, 0))
    return LinearCode.from_parity_check(
        BitMatrix(tuple(sum(1 << j for j, c in enumerate(cols) if c >> i & 1) for i in range(4)), n)
    )


# (rows, sha256(repr(h.rows))[:16]) of each search's result, past the
# oracle tests' n <= 12; recorded from the depth-first search that came
# before the lattice pass
SEARCH_PINS = {
    "rows": {
        13: {"s=d": (4, "b318b89782d39ace"), "S=S*": (5, "090d9977bd9bcee9"), "D=I": (4, "c9319466ac17ad37")},
        14: {"s=d": (4, "473d954ca2c704dc"), "S=S*": (10, "7994a77416b0d204"), "D=I": (5, "18e308719dca39ac")},
        15: {"s=d": (4, "a45d0fd5ee7b5d0f"), "S=S*": (7, "72ac72abdf242add"), "D=I": (4, "b6f313bf8d18d9bc")},
        16: {"s=d": (4, "5ce50d82b57f1958"), "S=S*": (10, "9a617c2becf26f7e"), "D=I": (5, "bbfb105c69e62934")},
        17: {"s=d": (4, "006226421658c38d"), "S=S*": (11, "ebe1c70ebd355f5e"), "D=I": (5, "c1f8ad2a0bfc2849")},
        18: {"s=d": (4, "1a5c4095085d40c7"), "S=S*": (7, "38e7447e01d1b1af"), "D=I": (4, "2450937b428e2a7d")},
        19: {"s=d": (4, "9312163ebe564d5a"), "S=S*": (14, "e63ca8a3c75be3aa"), "D=I": (6, "7845a65d5175b3e3")},
        20: {"s=d": (4, "876b405366d45008"), "S=S*": (15, "f5ce76c33b1c3cb9"), "D=I": (7, "d078c541ee89992e")},
    },
    "columns": {
        13: {"s=d": (4, "fe21b14ec46149d4"), "S=S*": (15, "25f66dc1e317ef5f"), "D=I": (7, "7dd96253e377796e")},
        14: {"s=d": (4, "8f2a83a158263953"), "S=S*": (15, "2220c02dd2624e41"), "D=I": (7, "1ee6a1a09665470e")},
        15: {"s=d": (4, "e09f6285637c0eec"), "S=S*": (15, "1b5c7a77d7ab7df6"), "D=I": (8, "c6938b700479503e")},
        16: {"s=d": (4, "fc12d4bc96b4bdf7"), "S=S*": (15, "180b2fd097bb0903"), "D=I": (8, "bc0f1cb2d98d7e8e")},
        17: {"s=d": (4, "84874bfe2441ec50"), "S=S*": (15, "9edd96d2c26a5176"), "D=I": (8, "4a7dbfd2a7134ca8")},
        18: {"s=d": (4, "b81ef936d0642032"), "S=S*": (15, "2506e09a14084878"), "D=I": (8, "b582a97bfcfdc18f")},
        19: {"s=d": (4, "c051e10c4a18d1e2"), "S=S*": (15, "56790e4fad08f32a"), "D=I": (8, "8a0be55135e38035")},
        20: {"s=d": (4, "94537d6868076d2f"), "S=S*": (15, "95eb32e77d043f26"), "D=I": (8, "64860e8e05dfd7e5")},
    },
}


@pytest.mark.parametrize("family", SEARCH_PINS)
@pytest.mark.parametrize("n", range(13, 21))
def test_minimal_search_pinned_past_the_oracle(family, n):
    code = _four_row_code(family, n)
    for predicate in PREDICATES:
        rows, digest = SEARCH_PINS[family][n][predicate]
        h = minimal_matrix_search(code, predicate)
        assert (h.r, hashlib.sha256(repr(h.rows).encode()).hexdigest()[:16]) == (rows, digest), predicate
        assert minimal_matrix_search(code, predicate, max_rows=rows - 1) is None, predicate


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


def test_bound_sums_match_the_binomial_formulas():
    rng = random.Random(2007)
    for _ in range(300):
        n = rng.randrange(0, 300)
        k = rng.randrange(0, n + 1)
        d, m = rng.randrange(-1, n + 5), rng.randrange(-1, n + 5)
        r = n - k
        rep = redundancy_bounds(n, k, d, m)
        if d >= 2:
            assert rep.sv_bound == sum(math.comb(r, i) for i in range(1, d - 1))
            assert rep.hs_bound == sum(math.comb(r, 2 * i - 1) for i in range(1, d // 2 + 1))
        if 2 <= m <= r:
            assert rep.ht_bound == sum(math.comb(r - 1, i) for i in range(m))


def test_bounds_refuse_n_k_past_the_integer_output_limit():
    # at a 640-digit limit every bound of n-k = 2126 still prints; n-k = 2127 is refused
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        rep = redundancy_bounds(2126, 0, d=3000, m=2126)
        json.dumps(rep.to_json_obj())
        assert rep.sv_bound == (1 << 2126) - 1
        assert rep.hs_bound == rep.ht_bound == rep.holtol_bound == 1 << 2125
        with pytest.raises(ValueError, match=r"^n-k=2127 too large: .* the 640-digit integer output limit$"):
            redundancy_bounds(2127, 0)
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("d", [0, 1])
def test_bounds_omit_distance_bounds_below_two(d):
    rep = redundancy_bounds(8, 4, d)
    notes = dict(rep.notes)
    assert rep.sv_bound is None and notes["sv_bound"] == f"omitted: stated for d >= 3, got d={d}"
    assert rep.hs_bound is None and notes["hs_bound"] == f"omitted: stated for d >= 2, got d={d}"


def test_bounds_ht_at_full_m_equals_holtol():
    for n, k in [(8, 4), (10, 3), (12, 7)]:
        rep = redundancy_bounds(n, k, d=3, m=n - k)
        assert rep.ht_bound == rep.holtol_bound == 1 << (n - k - 1)
