import math
import random

import pytest

from stopset.codes import (
    Enumerator,
    LinearCode,
    UnknownCatalogName,
    catalog,
    direct_sum,
    full_code,
    hamming_7_4,
    repetition,
    rm_8_4_4,
    zero_code,
)
from stopset import gf2
from stopset.gf2 import BitMatrix, null_space_basis, rank, rref

from conftest import oracle_minimum_distance, poly_multiply, random_code


def test_from_parity_check_rm():
    code = LinearCode.from_parity_check(catalog("H_8"))
    assert (code.n, code.k, code.minimum_distance) == (8, 4, 4)
    assert code == rm_8_4_4()


def test_from_parity_check_repetition_literal():
    # rows e1+e_{i+1} form the standard repetition parity-check matrix
    n = 6
    rows = tuple(1 | (1 << i) for i in range(1, n))
    code = LinearCode.from_parity_check(BitMatrix(rows, n))
    assert (code.n, code.k, code.minimum_distance) == (n, 1, n)


def test_from_parity_check_empty_matrix():
    code = LinearCode.from_parity_check(BitMatrix((), 5))
    assert (code.n, code.k, code.minimum_distance) == (5, 5, 1)


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
    assert (even.n, even.k, even.minimum_distance) == (5, 4, 2)
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
    assert (padded.n, padded.k, padded.minimum_distance) == (11, 4, 4)
    assert all(c >> 8 == 0 for c in padded.codewords())


def test_direct_sum_parameters_and_product():
    parts = [repetition(3), full_code(2), repetition(2)]
    ds = direct_sum(parts)
    assert ds.n == sum(p.n for p in parts)
    assert ds.k == sum(p.k for p in parts)
    assert ds.minimum_distance == min(p.minimum_distance for p in parts)
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
    assert (h74.n, h74.k, h74.minimum_distance) == (7, 4, 3)
    # the parity bases, as rows over coordinates 1..n
    assert catalog("hamming_7_4").parity_basis.row_strings() == ["1010101", "0110011", "0001111"]
    assert catalog("rm_8_4_4").parity_basis.row_strings() == ["10010110", "01010101", "00110011", "00001111"]


H8_ROWS = ["10101010", "01010101", "00110011", "00001111", "11110000", "11001100", "01101001", "10010110"]
H14_ROWS = [
    "11110000", "11001100", "00111100", "10101010", "01011010", "01100110", "10010110",
    "01101001", "10011001", "10100101", "01010101", "11000011", "00110011", "00001111",
]


def test_catalog_matrices():
    for name, rows in [("H_4", H8_ROWS[:4]), ("H_5", H8_ROWS[:5]), ("H_8", H8_ROWS), ("H_14", H14_ROWS)]:
        assert catalog(name).row_strings() == rows, name
    h4, h5, h8 = catalog("H_4"), catalog("H_5"), catalog("H_8")
    assert h4.rows == h8.rows[:4]
    assert h5.rows == h8.rows[:5]
    h14 = catalog("H_14")
    assert h14.r == 14
    assert all(w.bit_count() == 4 for w in h14.rows)
    rm = rm_8_4_4()
    assert all(rm.contains(w) for w in h14.rows)  # dual = code itself


def test_catalog_unknown():
    # a parameter is an optional '-' and ASCII digits: no other script, padding, '+' or '_'
    for name in ("golay_23_12", "repetition(x)", "H_6", "foo(3)", "repetition(\u0663)", "full(\uff10\uff13)",
                 "zero(+3)", "repetition( 3)", "repetition(1_0)", "repetition()", "repetition(--1)"):
        with pytest.raises(UnknownCatalogName) as exc:
            catalog(name)
        assert str(exc.value) == f"unknown catalog name {name!r}"


def test_contains_agrees_with_codewords():
    rng = random.Random(41)
    for _ in range(40):
        code = random_code(rng, rng.randrange(1, 10), rng.randrange(0, 7))
        words = set(code.codewords())
        assert [code.contains(w) for w in range(1 << code.n)] == [w in words for w in range(1 << code.n)]


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


def test_self_dual_code_from_one_row():
    # {00, 11} is its own dual: one row is both its parity and its generator basis
    code = LinearCode(BitMatrix((0b11,), 2))
    assert list(code.codewords()) == [0, 0b11] and code.weight_enumerator.coefficients == (1, 0, 1)
    assert code.generator_basis == code.parity_basis and code.dual() == code


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LinearCode(BitMatrix((), 0)), "length must be positive"),
        (lambda: full_code(0), "full code length must be >= 1"),
        (lambda: zero_code(0), "zero code length must be >= 1"),
    ],
    ids=["empty-length", "full-code-0", "zero-code-0"],
)
def test_malformed_codes_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_equal_codes_from_different_parity_bases():
    # both are {000, 111}: one matrix is not reduced, the other adds a duplicate and a zero row
    code = LinearCode(BitMatrix((0b011, 0b110), 3))
    twin = LinearCode.from_parity_check(BitMatrix((0b101, 0b011, 0b101, 0), 3))
    assert code == twin
    assert hash(code) == hash(twin)


CATALOG_CODES = ["rm_8_4_4", "hamming_7_4", "repetition(1)", "repetition(9)", "full(1)", "full(6)", "zero(1)", "zero(7)"]


def _parity_check_matrices():
    """Seeded random matrices with dependent, duplicate and zero rows, n <= 16;
    then each catalog code's parity basis with a duplicate and a zero row
    appended, and the catalog matrices."""
    rng = random.Random(2306)
    for _ in range(300):
        n = rng.randrange(1, 17)
        rows = [rng.randrange(1 << n) for _ in range(rng.randrange(n + 3))]
        if len(rows) >= 2 and rng.randrange(2):
            rows.append(rows[0] ^ rows[1])
        if rows and rng.randrange(2):
            rows.append(rng.choice(rows))
        if rng.randrange(3) == 0:
            rows.append(0)
        rng.shuffle(rows)
        yield BitMatrix(tuple(rows), n)
    for name in CATALOG_CODES:
        basis = catalog(name).parity_basis
        yield BitMatrix(basis.rows + basis.rows[:1] + (0,), basis.n)
    for name in ("H_4", "H_5", "H_8", "H_14"):
        yield catalog(name)


def test_bases_are_the_reduced_matrix_and_its_null_space():
    for h in _parity_check_matrices():
        code = LinearCode(h)
        assert code.parity_basis == rref(h)[0]
        assert code.generator_basis == null_space_basis(h)
        dual, double = code.dual(), code.dual().dual()
        assert (dual.parity_basis, dual.generator_basis) == (code.generator_basis, code.parity_basis)
        assert (double.parity_basis, double.generator_basis) == (code.parity_basis, code.generator_basis)


def test_each_code_costs_two_eliminations(monkeypatch):
    runs = []
    original = gf2._rref_rows

    def counted(rows, ncols):
        runs.append(len(rows))
        return original(rows, ncols)

    monkeypatch.setattr(gf2, "_rref_rows", counted)
    for h in _parity_check_matrices():
        runs.clear()
        LinearCode.from_parity_check(h)
        assert len(runs) == 2, h
    for name in CATALOG_CODES:
        runs.clear()
        catalog(name)
        assert len(runs) == 2, name


def test_code_repr_and_foreign_equality():
    code = rm_8_4_4()
    assert repr(code) == "LinearCode(n=8, k=4)"
    assert code.__eq__(code.parity_basis) is NotImplemented
    assert code != code.parity_basis
