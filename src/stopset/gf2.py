"""Exact GF(2) linear algebra on bit-packed vectors and matrices.

Vectors are plain Python ints: coordinate j (1-based) lives at bit j-1,
so the word 10100000 of length 8 is the int 0b101 = 5.  Matrices are
immutable tuples of such row words plus an explicit column count.
Everything here is a pure function; values are safe to share across
threads.

Two size caps live here: MAX_BITS bounds both matrix dimensions, and
ROW_SPACE_RANK_LIMIT bounds every row space listed in full as Python
ints, 2**rank of them (row_space_iter here, the dual words of
construct).  _check_row_space_rank refuses before any listing starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

MAX_BITS = 64  # desk-scale cap on both dimensions
ROW_SPACE_RANK_LIMIT = 20  # a listed row space holds 2**rank Python ints


def mask_from_indices(indices: Iterable[int]) -> int:
    """Pack 1-based coordinate indices into a bit mask."""
    m = 0
    for j in indices:
        if j < 1:
            raise ValueError(f"coordinate index {j} is not positive")
        m |= 1 << (j - 1)
    return m


def indices_from_mask(mask: int) -> tuple[int, ...]:
    """Unpack a bit mask into sorted 1-based coordinate indices."""
    out = []
    j = 1
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


def as_mask(subset: int | Iterable[int]) -> int:
    """Coerce a subset given as a mask or as 1-based indices to a mask."""
    if isinstance(subset, int):
        return subset
    return mask_from_indices(subset)


def vector_from_string(s: str) -> int:
    """Parse a 0/1 string (leftmost char = coordinate 1) into a word."""
    v = 0
    for i, ch in enumerate(s):
        if ch == "1":
            v |= 1 << i
        elif ch != "0":
            raise ValueError(f"invalid character {ch!r} in vector string")
    return v


def vector_to_string(v: int, n: int) -> str:
    return "".join("1" if (v >> i) & 1 else "0" for i in range(n))


@dataclass(frozen=True)
class BitMatrix:
    """Dense GF(2) matrix with bit-packed rows, all of length ``n``."""

    rows: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_BITS:
            raise ValueError(f"column count {self.n} outside 0..{MAX_BITS}")
        limit = 1 << self.n
        for v in self.rows:
            if not 0 <= v < limit:
                raise ValueError(f"row {v:#x} has bits beyond length {self.n}")

    @property
    def r(self) -> int:
        return len(self.rows)

    @property
    def has_distinct_rows(self) -> bool:
        return len(set(self.rows)) == len(self.rows)

    def row_strings(self) -> list[str]:
        return [vector_to_string(v, self.n) for v in self.rows]

    def __str__(self) -> str:
        return "\n".join(self.row_strings())


def parse_matrix(text: str) -> BitMatrix:
    """Parse the repo matrix text format.

    Format: optional header line ``n r``, then r lines of exactly n
    characters from {0,1}.  Lines starting with ``#`` are comments.
    Ragged rows are rejected.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty matrix text")
    n: Optional[int] = None
    expect_rows: Optional[int] = None
    first = lines[0].split()
    if len(first) == 2 and all(tok.isdigit() for tok in first) and not set(lines[0]) <= {"0", "1"}:
        n, expect_rows = int(first[0]), int(first[1])
        lines = lines[1:]
    rows = []
    for ln in lines:
        if n is None:
            n = len(ln)
        if len(ln) != n:
            raise ValueError(f"ragged row {ln!r}: expected {n} columns")
        rows.append(vector_from_string(ln))
    if expect_rows is not None and len(rows) != expect_rows:
        raise ValueError(f"header promised {expect_rows} rows, got {len(rows)}")
    assert n is not None
    return BitMatrix(tuple(rows), n)


def format_matrix(m: BitMatrix, header: bool = True) -> str:
    """Render a matrix in the repo text format."""
    body = m.row_strings()
    if header:
        return "\n".join([f"{m.n} {m.r}", *body]) + "\n"
    return "\n".join(body) + "\n"


def _rref_rows(rows: list[int], ncols: int) -> tuple[list[int], tuple[int, ...]]:
    """In-place reduced row echelon form on raw row words."""
    pivots = []
    row = 0
    for col in range(ncols):
        bit = 1 << col
        pivot = next((i for i in range(row, len(rows)) if rows[i] & bit), None)
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        for i in range(len(rows)):
            if i != row and rows[i] & bit:
                rows[i] ^= rows[row]
        pivots.append(col)
        row += 1
        if row == len(rows):
            break
    return rows[: len(pivots)], tuple(pivots)


def rref(m: BitMatrix) -> tuple[BitMatrix, tuple[int, ...]]:
    """Reduced row echelon form with deterministic lowest-index pivoting.

    Returns the reduced matrix (zero rows dropped) and the pivot columns
    as 0-based bit positions.
    """
    work, pivots = _rref_rows(list(m.rows), m.n)
    return BitMatrix(tuple(work), m.n), pivots


def rank(m: BitMatrix) -> int:
    """Dimension of the row space."""
    return len(rref(m)[1])


def null_space_basis(m: BitMatrix) -> BitMatrix:
    """Basis of {v : M v^T = 0}, normalized to reduced echelon form.

    Returns n - rank(M) vectors; canonical for the row space of M.
    """
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.n) if c not in pivot_set]
    basis = []
    for f in free_cols:
        v = 1 << f
        fbit = 1 << f
        for i, p in enumerate(pivots):
            if reduced.rows[i] & fbit:
                v |= 1 << p
        basis.append(v)
    return rref(BitMatrix(tuple(basis), m.n))[0]


def _pack_columns(m: BitMatrix, cols: Sequence[int]) -> tuple[int, ...]:
    """Rows of M rebuilt from the given 1-based columns, in that order."""
    rows = []
    for v in m.rows:
        packed = 0
        for new_pos, j in enumerate(cols):
            if v & (1 << (j - 1)):
                packed |= 1 << new_pos
        rows.append(packed)
    return tuple(rows)


def _column_mask(m: BitMatrix, subset: int | Iterable[int]) -> int:
    """as_mask(subset), refusing coordinates beyond the columns of M."""
    mask = as_mask(subset)
    if mask >> m.n:
        raise IndexError(f"column index beyond matrix length {m.n}")
    return mask


def select_columns(m: BitMatrix, subset: int | Iterable[int]) -> BitMatrix:
    """Submatrix of the columns in ``subset``, ascending, row order kept."""
    cols = indices_from_mask(_column_mask(m, subset))
    return BitMatrix(_pack_columns(m, cols), len(cols))


def permute_columns(m: BitMatrix, perm: Iterable[int]) -> BitMatrix:
    """Reorder columns: new column i is old column perm[i-1] (1-based)."""
    order = tuple(perm)
    if sorted(order) != list(range(1, m.n + 1)):
        raise ValueError("perm must be a permutation of 1..n")
    return BitMatrix(_pack_columns(m, order), m.n)


def transpose(m: BitMatrix) -> BitMatrix:
    rows = []
    for col in range(m.n):
        bit = 1 << col
        packed = 0
        for i, v in enumerate(m.rows):
            if v & bit:
                packed |= 1 << i
        rows.append(packed)
    return BitMatrix(tuple(rows), m.r)


def solve(m: BitMatrix, b: int) -> Optional[tuple[int, BitMatrix]]:
    """Solve M x^T = b^T for a row vector x of length n.

    ``b`` is a packed vector of length r (bit i = right-hand side of row
    i).  Returns None if inconsistent, else (particular solution, basis
    of the homogeneous space).  Deterministic: free variables are zero
    in the particular solution.
    """
    if b >> m.r:
        raise ValueError(f"rhs has bits beyond row count {m.r}")
    # Augment each row with its rhs bit at position n, then reduce.
    aug_rows = [v | (((b >> i) & 1) << m.n) for i, v in enumerate(m.rows)]
    reduced, pivots = _rref_rows(aug_rows, m.n + 1)
    if m.n in pivots:
        return None  # pivot in the rhs column: inconsistent
    x = 0
    for i, p in enumerate(pivots):
        if reduced[i] >> m.n:
            x |= 1 << p
    return x, null_space_basis(m)


def _gray_iter(basis_rows: Sequence[int]) -> Iterator[int]:
    """All GF(2) combinations of independent rows, Gray-code order."""
    v = 0
    yield v
    for c in range(1, 1 << len(basis_rows)):
        # Gray code flips bit index of the lowest set bit of c.
        v ^= basis_rows[(c & -c).bit_length() - 1]
        yield v


def _check_row_space_rank(t: int) -> None:
    """Refuse to list a row space of rank t above ROW_SPACE_RANK_LIMIT."""
    if t > ROW_SPACE_RANK_LIMIT:
        raise ValueError(f"rank {t} exceeds row-space iteration limit {ROW_SPACE_RANK_LIMIT}")


def row_space_iter(m: BitMatrix) -> Iterator[int]:
    """Yield all 2**rank(M) row-space elements exactly once.

    Order: Gray-code walk over the reduced basis, so consecutive values
    differ by one basis vector; starts at the zero vector.  Deterministic.
    """
    basis = rref(m)[0].rows
    _check_row_space_rank(len(basis))
    yield from _gray_iter(basis)
