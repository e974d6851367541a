import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from stopset.codes import (
    LinearCode,
    catalog,
    direct_sum,
    full_code,
    hamming_7_4,
    repetition,
    rm_8_4_4,
    zero_code,
)
from stopset.construct import bad_matrix, complete_matrix
from stopset.gf2 import BitMatrix, mask_from_indices
from stopset.stopsets import (
    _count_flagged,
    _incorrigible_flags,
    _profile,
    _stopping_flags,
    batch_peel_residuals,
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

import numpy as np

from conftest import (
    contained_supports,
    oracle_dead_end_enumerator,
    oracle_incorrigible_enumerator,
    oracle_stopping_enumerator,
    random_code,
    random_code_where,
    random_dual_spanning_matrix,
)

RM = rm_8_4_4()
H8 = catalog("H_8")
H14 = catalog("H_14")
SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------------------
# predicates

def test_codeword_support_examples():
    # RM is the code of H_8
    assert RM.contains(mask_from_indices({1, 2, 7, 8}))
    assert RM.contains(0)
    assert not RM.contains(mask_from_indices({1, 2, 3}))


def test_stopping_set_examples():
    h, _ = bad_matrix(RM)
    assert is_stopping_set(h, {1, 2, 3})
    weight_one = BitMatrix((0b100,), 3)
    assert not is_stopping_set(weight_one, {3})
    # the support of any codeword is a stopping set
    for c in RM.codewords():
        assert is_stopping_set(H8, c)


def test_peel_closure_examples():
    s = mask_from_indices({1, 2, 3, 7, 8})
    assert peel_closure(H14, s) == mask_from_indices({1, 2, 7, 8})
    assert peel_closure(H8, s) == s
    assert peel_closure(H8, 0) == 0


@pytest.mark.parametrize("predicate", [is_stopping_set, peel_closure])
@pytest.mark.parametrize("subset", [[9], 1 << 8, [1, 8, 9]])
def test_scalar_predicates_reject_out_of_range(predicate, subset):
    # H_8 has 8 columns; is_incorrigible and select_columns refuse the same input
    with pytest.raises(IndexError, match="beyond matrix length 8"):
        predicate(H8, subset)
    with pytest.raises(IndexError, match="beyond matrix length 8"):
        is_incorrigible(RM, subset)


def test_peel_closure_is_maximal_stopping_subset():
    rng = random.Random(30)
    for _ in range(200):
        mask = rng.randrange(0, 256)
        closed = peel_closure(H8, mask)
        assert closed & ~mask == 0
        assert is_stopping_set(H8, closed)
        # maximality: every stopping subset of mask lies inside the closure
        sub = mask
        while sub:
            if is_stopping_set(H8, sub):
                assert sub & ~closed == 0
            sub = (sub - 1) & mask


def test_peel_closure_confluence_random_orders():
    rng = random.Random(31)
    for _ in range(50):
        code = random_code(rng, rng.randrange(2, 9), rng.randrange(1, 6))
        h = random_dual_spanning_matrix(rng, code, rng.randrange(0, 3))
        mask = rng.randrange(0, 1 << code.n)
        reference = peel_closure(h, mask)
        for _ in range(5):
            m = mask
            while True:
                candidates = [
                    row & m
                    for row in h.rows
                    if (row & m).bit_count() == 1
                ]
                if not candidates:
                    break
                m ^= rng.choice(candidates)
            assert m == reference


def test_batch_peel_matches_scalar():
    rng = random.Random(32)
    for _ in range(20):
        code = random_code(rng, rng.randrange(2, 10), rng.randrange(1, 7))
        h = random_dual_spanning_matrix(rng, code, rng.randrange(0, 4))
        masks = np.array([rng.randrange(0, 1 << code.n) for _ in range(64)], dtype=np.uint32)
        batched = batch_peel_residuals(h, masks)
        for m, res in zip(masks.tolist(), batched.tolist()):
            assert res == peel_closure(h, m)


@pytest.mark.parametrize("size", [100, 5000])  # fewer and more masks than the 2^10 subsets
def test_count_flagged_matches_scalar_predicates(size):
    rng = random.Random(size)
    code = random_code(rng, 10, 5)
    h = random_dual_spanning_matrix(rng, code, 2)
    dead_end = _stopping_flags(h)
    _profile(dead_end, code.n)  # closes the stopping flags into the dead-end flags
    masks = [rng.randrange(0, 1 << code.n) for _ in range(size)]
    expected = (
        sum(peel_closure(h, m) != 0 for m in masks),
        sum(is_incorrigible(code, m) for m in masks),
    )
    for dtype in (np.uint16, np.uint32, np.uint64):  # the narrowest that holds 10 bits, and wider
        assert _count_flagged(np.array(masks, dtype=dtype), code.n, dead_end, _incorrigible_flags(code)) == expected


def test_is_incorrigible_examples():
    assert is_incorrigible(RM, {1, 2, 3, 7, 8})
    assert not is_incorrigible(RM, 0)
    assert is_incorrigible(RM, range(1, 9))
    # always true beyond n-k erasures
    rng = random.Random(33)
    for _ in range(50):
        code = random_code_where(rng, range(2, 10), range(1, 6), lambda c: c.k >= 1)
        size = code.n - code.k + 1
        if size <= code.n:
            mask = mask_from_indices(range(1, size + 1))
            assert is_incorrigible(code, mask)


# ---------------------------------------------------------------------------
# enumerators against brute force and published values

def test_stopping_enumerator_table_rows():
    assert stopping_set_enumerator(catalog("H_4")).poly_str() == "1+2x^3+24x^4+40x^5+28x^6+8x^7+x^8"
    assert stopping_set_enumerator(catalog("H_5")).poly_str() == "1+18x^4+36x^5+28x^6+8x^7+x^8"


def test_stopping_enumerator_repetition3():
    h = repetition(3).parity_basis
    assert stopping_set_enumerator(h).poly_str() == "1+x^3"
    assert dead_end_enumerator(h).poly_str() == "x^3"


def test_enumerators_match_brute_force():
    rng = random.Random(34)
    for _ in range(15):
        code = random_code(rng, rng.randrange(2, 9), rng.randrange(1, 6))
        h = random_dual_spanning_matrix(rng, code, rng.randrange(0, 4))
        assert stopping_set_enumerator(h) == oracle_stopping_enumerator(h)
        assert dead_end_enumerator(h) == oracle_dead_end_enumerator(h)
        assert incorrigible_enumerator(code) == oracle_incorrigible_enumerator(code)


def test_incorrigible_known_values():
    assert incorrigible_enumerator(RM).poly_str() == "14x^4+56x^5+28x^6+8x^7+x^8"
    assert incorrigible_enumerator(repetition(3)).poly_str() == "x^3"
    assert incorrigible_enumerator(zero_code(5)).poly_str() == "0"


def test_incorrigible_matches_predicate():
    rng = random.Random(35)
    for _ in range(10):
        code = random_code(rng, rng.randrange(1, 8), rng.randrange(0, 5))
        enum = incorrigible_enumerator(code)
        counts = [0] * (code.n + 1)
        for mask in range(1 << code.n):
            if is_incorrigible(code, mask):
                counts[mask.bit_count()] += 1
        assert enum.coefficients == tuple(counts)


def test_stopping_distance_values():
    assert stopping_distance(catalog("H_4")) == 3
    assert stopping_distance(catalog("H_5")) == 4
    assert stopping_distance(H8) == 4
    for n in range(2, 7):
        assert stopping_distance(repetition(n).parity_basis) == n


def test_stopping_distance_d_le_3_rule():
    rng = random.Random(36)
    h74 = hamming_7_4()
    for _ in range(5):
        h = random_dual_spanning_matrix(rng, h74, rng.randrange(0, 4))
        assert stopping_distance(h) == 3


def test_eq_012_small_sizes():
    rng = random.Random(37)
    for _ in range(15):
        code = random_code(rng, rng.randrange(2, 10), rng.randrange(1, 6))
        h = random_dual_spanning_matrix(rng, code, rng.randrange(0, 4))
        s = stopping_set_enumerator(h)
        d_poly = dead_end_enumerator(h)
        a = code.weight_enumerator
        i_poly = incorrigible_enumerator(code)
        for i in range(min(3, code.n + 1)):
            assert s[i] == a[i]
            assert d_poly[i] == i_poly[i]


def test_tail_identities():
    rng = random.Random(38)
    for _ in range(15):
        code = random_code(rng, rng.randrange(2, 10), rng.randrange(1, 6))
        h = random_dual_spanning_matrix(rng, code, rng.randrange(0, 4))
        n, k = code.n, code.k
        s = stopping_set_enumerator(h)
        d_poly = dead_end_enumerator(h)
        i_poly = incorrigible_enumerator(code)
        d_perp = code.dual().minimum_distance
        start = 0 if d_perp is math.inf else max(0, n - int(d_perp) + 2)
        for i in range(start, n + 1):
            assert s[i] == math.comb(n, i)
        for i in range(n - k + 1, n + 1):
            assert d_poly[i] == math.comb(n, i)
            assert i_poly[i] == math.comb(n, i)


def test_monotone_dominance_adding_rows():
    rng = random.Random(39)
    for _ in range(10):
        code = random_code_where(rng, range(3, 9), range(1, 6), lambda c: 1 <= c.k < c.n)
        h_small = code.parity_basis
        h_big = random_dual_spanning_matrix(rng, code, 3)
        s_small, s_big = stopping_set_enumerator(h_small), stopping_set_enumerator(h_big)
        d_small, d_big = dead_end_enumerator(h_small), dead_end_enumerator(h_big)
        star = optimal_enumerators(code)
        a = code.weight_enumerator
        i_poly = incorrigible_enumerator(code)
        for i in range(code.n + 1):
            assert s_small[i] >= s_big[i] >= star.stopping[i] >= a[i]
            assert d_small[i] >= d_big[i] >= star.dead_end[i] >= i_poly[i]


# ---------------------------------------------------------------------------
# optimal enumerators

def test_optimal_enumerators_rm():
    star = optimal_enumerators(RM)
    assert star.stopping.poly_str() == "1+14x^4+28x^6+8x^7+x^8"
    assert star.dead_end.poly_str() == "14x^4+56x^5+28x^6+8x^7+x^8"
    assert star.stopping_distance == 4
    # the prefix equality S*_i = A_i holds through ceil(3d/2)-1 = 5 and is
    # tight here: S*_6 = 28 > 0 = A_6
    a = RM.weight_enumerator
    assert all(star.stopping[i] == a[i] for i in range(6))
    assert star.stopping[6] > a[6]


def test_optimal_matches_complete_matrix():
    rng = random.Random(40)
    for _ in range(10):
        code = random_code(rng, rng.randrange(2, 9), rng.randrange(1, 6))
        star = optimal_enumerators(code)
        h_star = complete_matrix(code)
        assert stopping_set_enumerator(h_star) == star.stopping
        assert dead_end_enumerator(h_star) == star.dead_end


def test_optimal_identities():
    rng = random.Random(41)
    for _ in range(10):
        code = random_code_where(rng, range(2, 10), range(1, 7), lambda c: c.k >= 1)
        star = optimal_enumerators(code)
        d = code.minimum_distance
        assert star.stopping_distance == d  # s* = d
        assert star.stopping[int(d)] == code.weight_enumerator[int(d)]  # S*_d = A_d
        assert star.dead_end == incorrigible_enumerator(code)  # D*(x) = I(x)


def test_optimal_degenerate_codes():
    assert optimal_enumerators(repetition(6)).stopping.poly_str() == "1+x^6"
    z = optimal_enumerators(zero_code(4))
    assert z.stopping.poly_str() == "1"
    assert z.stopping_distance == 5
    f = optimal_enumerators(full_code(3))
    assert f.stopping == full_code(3).weight_enumerator


def test_optimal_stopping_sets_are_unions_of_supports():
    # Verified hypothesis on this corpus: a set is a stopping set of the
    # complete matrix iff it is a union of codeword supports.
    rng = random.Random(42)
    for _ in range(10):
        code = random_code(rng, rng.randrange(2, 9), rng.randrange(1, 6))
        h_star = complete_matrix(code)
        for mask in range(1 << code.n):
            union = 0
            for c in contained_supports(code, mask):
                union |= c
            assert is_stopping_set(h_star, mask) == (union == mask)


def test_optimal_guards():
    # S* and D* share the enumeration guard and have no cap on n-k.
    too_long = LinearCode.from_parity_check(BitMatrix(tuple(1 << i for i in range(29)), 29))
    with pytest.raises(ValueError):
        optimal_enumerators(too_long)
    big_dual = LinearCode.from_parity_check(BitMatrix(tuple(1 << i for i in range(17)), 18))
    star = optimal_enumerators(big_dual)
    assert star.dead_end == incorrigible_enumerator(big_dual)  # D*(x) = I(x)
    assert star.stopping_distance == big_dual.minimum_distance  # s* = d


def test_enumeration_guard_env_override(monkeypatch):
    h = repetition(5).parity_basis
    monkeypatch.setenv("STOPSET_MAX_N", "4")
    with pytest.raises(ValueError):
        stopping_set_enumerator(h)
    monkeypatch.setenv("STOPSET_MAX_N", "6")
    assert stopping_set_enumerator(h).poly_str() == "1+x^5"


# ---------------------------------------------------------------------------
# minimum-stopping decomposition

def test_decomposition_examples():
    assert minimum_stopping_decomposition(RM) is None
    dec = minimum_stopping_decomposition(direct_sum([repetition(3), full_code(2), zero_code(1)]))
    assert dec is not None
    assert dec.repetition_blocks == ((1, 2, 3),)
    assert dec.full_positions == (4, 5)
    assert dec.zero_positions == (6,)


def test_decomposition_r4_f2_z2_is_minimum_stopping():
    code = direct_sum([repetition(4), full_code(2), zero_code(2)])
    assert (code.n, code.k, code.minimum_distance) == (8, 3, 1)
    assert minimum_stopping_decomposition(code) is not None
    assert optimal_enumerators(code).stopping == code.weight_enumerator


def test_decomposition_even_weight_code():
    for n in range(3, 8):
        even = repetition(n).dual()
        assert minimum_stopping_decomposition(even) is None


def test_decomposition_partition_and_dimension():
    dec = minimum_stopping_decomposition(
        direct_sum([repetition(2), repetition(4), full_code(1), zero_code(2)])
    )
    assert dec is not None
    covered = [j for b in dec.repetition_blocks for j in b]
    covered += list(dec.full_positions) + list(dec.zero_positions)
    assert sorted(covered) == list(range(1, 10))
    assert len(dec.repetition_blocks) + len(dec.full_positions) == 3  # = k


def test_decomposition_iff_optimal_equals_weight():
    rng = random.Random(43)
    for _ in range(25):
        code = random_code(rng, rng.randrange(2, 9), rng.randrange(0, 6))
        dec = minimum_stopping_decomposition(code)
        star = optimal_enumerators(code)
        assert (dec is not None) == (star.stopping == code.weight_enumerator)


def test_decomposition_direct_sum_both_directions():
    # a direct sum is minimum stopping iff every part is
    good = [repetition(2), full_code(2), repetition(3)]
    bad = [repetition(2), rm_8_4_4()]
    assert minimum_stopping_decomposition(direct_sum(good)) is not None
    assert minimum_stopping_decomposition(direct_sum(bad)) is None
    for part in good:
        assert minimum_stopping_decomposition(part) is not None
    assert minimum_stopping_decomposition(rm_8_4_4()) is None


def test_profile_bundles_consistent_values():
    p = profile(catalog("H_4"))
    assert p.stopping_distance == 3
    assert p.dead_end[3] == p.stopping[3]  # D_s = S_s


_BOUNDED_CHILD = """
import random
from stopset.gf2 import BitMatrix
from stopset.codes import LinearCode
from stopset.stopsets import incorrigible_enumerator, profile


def peak_mb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024


n = 26
rng = random.Random(26)
h = BitMatrix(tuple(rng.getrandbits(n) for _ in range(13)), n)
code = LinearCode.from_parity_check(h)
before = peak_mb()
p, i = profile(h), incorrigible_enumerator(code)
assert sum(p.stopping.coefficients) >= 1 and i.coefficients[0] == 0
print(peak_mb() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads the peak RSS from /proc")
def test_kernel_memory_is_the_flags_plus_slab_temporaries():
    # At n = 26 the flags take 2**20 words, 8 MB, and every other temporary
    # is slab-sized.  The child reads its own peak RSS (VmHWM): its
    # ru_maxrss would start at the size of the process that started it.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _BOUNDED_CHILD], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    flag_mb = 8
    assert float(proc.stdout) <= 2 * flag_mb + 4
