import math
import random

import pytest

from stopset.codes import (
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
from stopset.gf2 import BitMatrix, rank

from conftest import oracle_minimum_distance, poly_multiply, random_code


def test_from_parity_check_rm():
    code = LinearCode.from_parity_check(catalog("H_8"))
    assert (code.n, code.k, code.d) == (8, 4, 4)
    assert code == rm_8_4_4()


def test_from_parity_check_repetition_literal():
    # rows e1+e_{i+1} form the standard repetition parity-check matrix
    n = 6
    rows = tuple(1 | (1 << i) for i in range(1, n))
    code = LinearCode.from_parity_check(BitMatrix(rows, n))
    assert (code.n, code.k, code.d) == (n, 1, n)


def test_from_parity_check_empty_matrix():
    code = LinearCode.from_parity_check(BitMatrix((), 5))
    assert (code.n, code.k, code.d) == (5, 5, 1)


def test_duplicate_rows_same_code():
    h = catalog("H_4")
    doubled = BitMatrix(h.rows + h.rows, h.n)
    assert LinearCode.from_parity_check(doubled) == LinearCode.from_parity_check(h)


def test_weight_enumerator_values():
    assert rm_8_4_4().weight_enumerator.poly_str() == "1+14x^4+x^8"
    assert repetition(5).weight_enumerator.poly_str() == "1+x^5"
    assert full_code(2).weight_enumerator.poly_str() == "1+2x+x^2"
    assert zero_code(4).weight_enumerator.poly_str() == "1"


def test_weight_enumerator_basics():
    rng = random.Random(20)
    for _ in range(25):
        code = random_code(rng, rng.randrange(1, 12), rng.randrange(0, 8))
        a = code.weight_enumerator
        assert a[0] == 1
        assert sum(a.coefficients) == 1 << code.k
        d = code.minimum_distance
        if d is not math.inf:
            assert all(a[i] == 0 for i in range(1, int(d)))
            assert a[int(d)] > 0
        assert all(a[i] <= math.comb(code.n, i) for i in range(code.n + 1))


def test_minimum_distance():
    assert rm_8_4_4().minimum_distance == 4
    assert zero_code(6).minimum_distance is math.inf
    assert full_code(3).minimum_distance == 1
    assert hamming_7_4().minimum_distance == 3
    rng = random.Random(21)
    for _ in range(20):
        code = random_code(rng, rng.randrange(1, 11), rng.randrange(0, 7))
        assert code.minimum_distance == oracle_minimum_distance(code)


def test_dual_involution_and_known_duals():
    rm = rm_8_4_4()
    assert rm.dual() == rm  # self-dual
    rep = repetition(5)
    even = rep.dual()
    assert (even.n, even.k, even.d) == (5, 4, 2)
    assert full_code(3).dual() == zero_code(3)
    rng = random.Random(22)
    for _ in range(20):
        code = random_code(rng, rng.randrange(1, 11), rng.randrange(0, 7))
        assert code.dual().dual() == code


def test_orthogonality_invariant():
    rng = random.Random(23)
    for _ in range(25):
        code = random_code(rng, rng.randrange(1, 12), rng.randrange(0, 8))
        for g in code.generator_basis.rows:
            assert all((g & h).bit_count() % 2 == 0 for h in code.parity_basis.rows)
        assert code.k + code.parity_basis.r == code.n
        assert rank(code.generator_basis) == code.k


def test_macwilliams_totals():
    rng = random.Random(24)
    for _ in range(15):
        code = random_code(rng, rng.randrange(1, 10), rng.randrange(0, 6))
        assert sum(code.weight_enumerator.coefficients) == 1 << code.k
        assert sum(code.dual().weight_enumerator.coefficients) == 1 << (code.n - code.k)


def test_direct_sum_small():
    ds = direct_sum([repetition(2), repetition(2)])
    assert ds.weight_enumerator.poly_str() == "1+2x^2+x^4"
    padded = direct_sum([rm_8_4_4(), zero_code(3)])
    assert (padded.n, padded.k, padded.d) == (11, 4, 4)
    assert all(c >> 8 == 0 for c in padded.codewords())


def test_direct_sum_parameters_and_product():
    parts = [repetition(3), full_code(2), repetition(2)]
    ds = direct_sum(parts)
    assert ds.n == sum(p.n for p in parts)
    assert ds.k == sum(p.k for p in parts)
    assert ds.d == min(p.d for p in parts)
    expected = parts[0].weight_enumerator
    for p in parts[1:]:
        expected = poly_multiply(expected, p.weight_enumerator)
    assert ds.weight_enumerator == expected


def test_direct_sum_rejects_empty():
    with pytest.raises(ValueError):
        direct_sum([])


def test_catalog_codes():
    assert catalog("repetition(4)").weight_enumerator.poly_str() == "1+x^4"
    assert catalog("full(2)").k == 2
    assert catalog("zero(3)").k == 0
    assert catalog("rm_8_4_4").weight_enumerator.poly_str() == "1+14x^4+x^8"
    h74 = catalog("hamming_7_4")
    assert (h74.n, h74.k, h74.d) == (7, 4, 3)


def test_catalog_matrices():
    h4, h5, h8 = catalog("H_4"), catalog("H_5"), catalog("H_8")
    assert h4.rows == h8.rows[:4]
    assert h5.rows == h8.rows[:5]
    h14 = catalog("H_14")
    assert h14.r == 14
    assert all(w.bit_count() == 4 for w in h14.rows)
    rm = rm_8_4_4()
    assert all(rm.contains(w) for w in h14.rows)  # dual = code itself


def test_catalog_unknown():
    with pytest.raises(ValueError):
        catalog("golay_23_12")
    with pytest.raises(ValueError):
        catalog("repetition(x)")


def test_enumerator_rendering():
    assert Enumerator((0, 0, 0)).poly_str() == "0"
    assert Enumerator((1, 2, 1)).poly_str() == "1+2x+x^2"
    assert Enumerator((0, 1)).poly_str() == "x"
    obj = Enumerator((1, 0, 3)).to_json_obj()
    assert obj["coefficients"] == ["1", "0", "3"]
    assert obj["poly"] == "1+3x^2"


def test_codeword_guard():
    big = full_code(30)
    with pytest.raises(ValueError, match=r"k=30 exceeds enumeration guard 28 \(set STOPSET_MAX_N"):
        big.weight_enumerator


def test_inconsistent_bases_refused():
    with pytest.raises(ValueError, match="generator row fails a parity check"):
        LinearCode(BitMatrix((0b11,), 2), BitMatrix((0b01,), 2))
    with pytest.raises(ValueError, match="dependent"):  # parity rows
        LinearCode(BitMatrix((0b011, 0b011), 3), BitMatrix((0b100,), 3))
    with pytest.raises(ValueError, match="dependent"):  # generator rows
        LinearCode(BitMatrix((0b111,), 3), BitMatrix((0b011, 0b011), 3))
    # a self-dual pair shares its rows and is one code
    code = LinearCode(BitMatrix((0b11,), 2), BitMatrix((0b11,), 2))
    assert list(code.codewords()) == [0, 0b11] and code.weight_enumerator.coefficients == (1, 0, 1)


def test_equal_codes_from_different_parity_bases():
    # both are {000, 111}; the constructor is given a basis that is not reduced
    h = BitMatrix((0b011, 0b110), 3)
    code = LinearCode(h, BitMatrix((0b111,), 3))
    twin = LinearCode.from_parity_check(h)
    assert code == twin
    assert hash(code) == hash(twin)
