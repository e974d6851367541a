import random
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stopset.codes import catalog, repetition
from stopset.gf2 import (
    BitMatrix,
    format_matrix,
    indices_from_mask,
    int_from_string,
    mask_from_indices,
    null_space_basis,
    parse_matrix,
    permute_columns,
    rank,
    row_space_iter,
    rref,
    select_columns,
    solve,
    syndrome,
    transpose,
    vector_from_string,
    vector_to_string,
)

from conftest import random_parity_matrix

H8 = catalog("H_8")


def test_rank_h8():
    assert rank(H8) == 4


def test_rank_zero_matrix():
    assert rank(BitMatrix((0, 0, 0), 5)) == 0


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_rank_repetition_parity(d):
    assert rank(repetition(d).parity_basis) == d - 1


def test_null_space_h8_spans_code():
    basis = null_space_basis(H8)
    assert basis.r == 4
    for v in basis.rows:
        assert all((v & row).bit_count() % 2 == 0 for row in H8.rows)


def test_null_space_identity_empty():
    eye = BitMatrix(tuple(1 << i for i in range(6)), 6)
    assert null_space_basis(eye).r == 0


def test_null_space_zero_row_is_unit_vectors():
    basis = null_space_basis(BitMatrix((0,), 4))
    assert basis.rows == (1, 2, 4, 8)


def test_rank_plus_nullity():
    rng = random.Random(101)
    for _ in range(50):
        n = rng.randrange(1, 14)
        m = random_parity_matrix(rng, n, rng.randrange(0, n + 3))
        assert rank(m) + null_space_basis(m).r == n


def _loop_from_string(s):
    # the per-character parser these functions replaced, kept as the reference
    v = 0
    for i, ch in enumerate(s):
        if ch == "1":
            v |= 1 << i
        elif ch != "0":
            raise ValueError(f"invalid character {ch!r} in vector string")
    return v


def _loop_to_string(v, n):
    return "".join("1" if (v >> i) & 1 else "0" for i in range(n))


def test_vector_strings_match_the_character_loops():
    rng = random.Random(5)
    for _ in range(2000):
        n = rng.randrange(0, 80)
        s = "".join(rng.choice("01") for _ in range(n))
        assert vector_from_string(s) == _loop_from_string(s)
        # bits at or above n, and negative words, are accepted and cut at n
        for v in (rng.getrandbits(n), rng.getrandbits(n + 20), -rng.getrandbits(70) - 1):
            assert vector_to_string(v, n) == _loop_to_string(v, n)
            assert vector_from_string(vector_to_string(v, n)) == v & ((1 << n) - 1)
    for v, n in [(0, 0), (5, 0), (-1, 0), (7, -3), (True, 2), (np.uint64(2**63 + 5), 64), (np.uint64(6), np.int64(70))]:
        assert vector_to_string(v, n) == _loop_to_string(v, n)
    assert vector_from_string("") == 0


@pytest.mark.parametrize("s", ["1_0", "+1", "-1", " 1", "1 ", "10\t", "0b1", "12", "1x0", "\u0661", "0\u0660", "1\uff11", "1\u00b9"])
def test_vector_from_string_refuses_what_int_would_accept(s):
    with pytest.raises(ValueError) as exc:
        _loop_from_string(s)
    with pytest.raises(ValueError, match="invalid character .* in vector string") as new:
        vector_from_string(s)
    assert str(new.value) == str(exc.value)  # names the first bad character


@pytest.mark.parametrize("s, value", [("0", 0), ("7", 7), ("-1", -1), ("-0", 0), ("007", 7), ("10" * 20, int("10" * 20))])
def test_int_from_string_reads_a_sign_and_ascii_digits(s, value):
    assert int_from_string(s) == value


# each of these int() would accept, or reject with Python's own message
@pytest.mark.parametrize("s", ["", "-", "--1", "+5", " 7", "7 ", "1_0", "\u0661", "\u0663\u0660", "\uff10\uff13",
                               "\u00b2", "1.0", "0x1", "1e3", "\n1"])
def test_int_from_string_refuses_everything_else(s):
    assert int_from_string(s) is None


def test_int_from_string_refuses_more_digits_than_int_reads():
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert int_from_string("9" * 640) == int("9" * 640)
        assert int_from_string("9" * 641) is None and int_from_string("-" + "9" * 641) is None
        sys.set_int_max_str_digits(0)  # no limit
        assert int_from_string("9" * 641) == int("9" * 641)
    finally:
        sys.set_int_max_str_digits(old)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 2**32 - 1))
def test_syndrome_is_the_row_parities_and_transposed_a_row_combination(r, n, seed):
    rng = random.Random(seed)
    m = random_parity_matrix(rng, n, r)
    v, a = rng.randrange(1 << n), rng.randrange(1 << r)
    s = syndrome(m, v)
    assert s >> r == 0
    assert [s >> i & 1 for i in range(r)] == [(row & v).bit_count() % 2 for row in m.rows]
    selected = 0
    for i, row in enumerate(m.rows):
        if a >> i & 1:
            selected ^= row
    assert syndrome(transpose(m), a) == selected


def test_select_columns_h8():
    sub = select_columns(H8, {1, 2, 3})
    assert sub.n == 3
    assert sub.rows[0] == vector_from_string("101")


def test_select_columns_empty_and_all():
    assert select_columns(H8, 0).n == 0
    assert select_columns(H8, range(1, 9)).rows == H8.rows
    with pytest.raises(IndexError):
        select_columns(H8, {9})


def test_select_columns_commutes_with_rref():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(2, 12)
        m = random_parity_matrix(rng, n, rng.randrange(1, n + 2))
        s = rng.randrange(0, 1 << n)
        assert rank(select_columns(rref(m)[0], s)) == rank(select_columns(m, s))


def test_solve_identity():
    eye = BitMatrix(tuple(1 << i for i in range(5)), 5)
    assert solve(eye, 0b10110) == 0b10110
    assert null_space_basis(eye).r == 0


def test_solve_inconsistent():
    assert solve(BitMatrix((0,), 4), 1) is None


@pytest.mark.parametrize("rhs", [1 << 3, (1 << 3) | 1, 1 << 10])
def test_solve_rejects_rhs_beyond_rows(rhs):
    with pytest.raises(ValueError, match="rhs has bits beyond row count 3"):
        solve(BitMatrix((0b001, 0b010, 0b100), 3), rhs)


def test_solve_dependent_columns_of_h8():
    cols = select_columns(H8, {1, 2, 7, 8})
    assert solve(cols, 0) == 0
    assert null_space_basis(cols).r > 0  # {1,2,7,8} is a codeword support, so the columns are dependent


def test_solve_random_consistency():
    rng = random.Random(55)
    for _ in range(100):
        n = rng.randrange(1, 10)
        m = random_parity_matrix(rng, n, rng.randrange(1, 8))
        x_true = rng.randrange(0, 1 << n)
        b = 0
        for i, row in enumerate(m.rows):
            if (row & x_true).bit_count() % 2:
                b |= 1 << i
        x = solve(m, b)
        assert x is not None
        for i, row in enumerate(m.rows):
            assert (row & x).bit_count() % 2 == (b >> i) & 1
        for v in null_space_basis(m).rows:
            assert all((row & v).bit_count() % 2 == 0 for row in m.rows)


def test_row_space_iter_h8():
    words = list(row_space_iter(H8))
    assert len(words) == 16
    assert len(set(words)) == 16
    assert 0 in words
    for w in words:
        assert rank(BitMatrix(H8.rows + (w,), 8)) == rank(H8)


def test_row_space_iter_degenerate():
    assert list(row_space_iter(BitMatrix((0, 0), 5))) == [0]
    assert sorted(row_space_iter(BitMatrix((0b101,), 3))) == [0, 0b101]


def test_row_space_iter_guard():
    wide = BitMatrix(tuple(1 << i for i in range(21)), 21)
    with pytest.raises(ValueError, match="rank 21 exceeds row-space iteration limit 20"):
        next(row_space_iter(wide))  # refused before the first word


def test_rref_canonical_for_row_space():
    # the reduced form depends only on the row space, not the presentation
    rng = random.Random(77)
    for _ in range(30):
        n = rng.randrange(2, 12)
        m = random_parity_matrix(rng, n, rng.randrange(1, n + 2))
        reference = rref(m)[0].rows
        rows = list(m.rows)
        rng.shuffle(rows)
        # mix random row combinations into the presentation
        for _ in range(5):
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
            if i != j:
                rows[i] ^= rows[j]
        rows.append(rows[rng.randrange(len(rows))])  # duplicate row
        assert rref(BitMatrix(tuple(rows), n))[0].rows == reference
        assert null_space_basis(BitMatrix(tuple(rows), n)).rows == null_space_basis(m).rows


def test_row_space_iter_deterministic():
    assert list(row_space_iter(H8)) == list(row_space_iter(H8))


def test_transpose_involution():
    rng = random.Random(3)
    m = random_parity_matrix(rng, 9, 5)
    assert transpose(transpose(m)).rows == m.rows


def test_permute_columns_roundtrip():
    rng = random.Random(4)
    m = random_parity_matrix(rng, 8, 4)
    perm = list(range(1, 9))
    rng.shuffle(perm)
    p = permute_columns(m, perm)
    inverse = [0] * 8
    for new_pos, old in enumerate(perm):
        inverse[old - 1] = new_pos + 1
    assert permute_columns(p, inverse).rows == m.rows
    with pytest.raises(ValueError):
        permute_columns(m, [1] * 8)


def test_mask_index_roundtrip():
    assert indices_from_mask(mask_from_indices({1, 2, 7, 8})) == (1, 2, 7, 8)
    assert mask_from_indices([]) == 0
    with pytest.raises(ValueError):
        mask_from_indices([0])


def test_matrix_text_roundtrip():
    text = format_matrix(H8)
    again = parse_matrix(text)
    assert again.rows == H8.rows and again.n == H8.n
    # no header
    assert parse_matrix(str(H8)).rows == H8.rows


def test_matrix_text_comments_and_errors():
    assert parse_matrix("# comment\n101\n010\n").rows == (0b101, 0b010)
    with pytest.raises(ValueError):
        parse_matrix("101\n01\n")
    with pytest.raises(ValueError):
        parse_matrix("8 3\n10101010\n")  # header promises 3 rows
    with pytest.raises(ValueError):
        parse_matrix("10102010\n")
    with pytest.raises(ValueError):
        parse_matrix("")


@pytest.mark.parametrize("header", ["\u0663 1", "\u00b2 1", "+3 1", "3 \uff11", "3_0 1"])
def test_matrix_header_is_two_ascii_integers(header):
    # not a header, so the line is read as a row and refused by its first character
    with pytest.raises(ValueError, match=re.escape(f"invalid character {header[0]!r} in vector string")):
        parse_matrix(f"{header}\n101\n")


@pytest.mark.parametrize("header", ["-1 1", "65 1", "99999999999 1"])
def test_matrix_header_column_count_is_checked_first(header):
    with pytest.raises(ValueError, match=re.escape(f"column count {header.split()[0]} outside 0..64")):
        parse_matrix(f"{header}\n101\n")


def test_matrix_validation():
    with pytest.raises(ValueError):
        BitMatrix((4,), 2)  # bit beyond length
    with pytest.raises(ValueError):
        BitMatrix((), 65)
