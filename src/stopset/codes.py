"""Binary linear [n,k,d] block codes, each the code of a parity-check matrix h.

A code is the null space of the row space of h; the row space itself
is the dual code.  Values are immutable after construction and all
operations are pure.

One enumeration guard bounds every walk over 2**bits objects: the 2**n
erasure subsets of the stopping-set kernels and the 2**k codewords of
codewords() and A(x).  It is n, k <= 28 by default, overridden by the
STOPSET_MAX_N env var; _enumeration_limit is the one reader of that
variable and _enumeration_refusal writes every refusal.  Since k <= n,
a code under the guard in n is under it in k too.

The dual codewords are listed in one place, _dual_words: the sorted
dual code, built from _span_blocks, that H_14 and construct's matrices
start from.  It refuses a dual of rank above gf2.ROW_SPACE_RANK_LIMIT
before it lists anything.

catalog looks up every name without a parameter (the paper's codes
and its H_4, H_5, H_8 and H_14 matrices) in one table, and every
``name(n)`` in _PARAM_CODES, n read by gf2.int_from_string.
"""

from __future__ import annotations

import functools
import math
import os
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .gf2 import (
    BitMatrix,
    _check_column_count,
    _check_row_space_rank,
    _gray_iter,
    _null_space_of_reduced,
    int_from_string,
    parse_matrix,
    rref,
    syndrome,
    transpose,
)

_DEFAULT_ENUMERATION_LIMIT = 28  # 2**n subsets or 2**k codewords
_SPAN_BLOCK_BITS = 16  # span words per block: 2**16, 0.5 MB


@dataclass(frozen=True)
class Enumerator:
    """Exact integer coefficient vector of a set-size enumerator.

    coefficients[i] counts objects of size i; length is n+1.
    """

    coefficients: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, i: int) -> int:
        return self.coefficients[i]

    def poly_str(self) -> str:
        """Render in the conventional polynomial style, e.g. 1+14x^4+x^8."""
        terms = []
        for i, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                coef = "" if c == 1 else str(c)
                power = "x" if i == 1 else f"x^{i}"
                terms.append(coef + power)
        return "+".join(terms) if terms else "0"

    def to_json_obj(self) -> dict:
        return {
            "coefficients": [str(c) for c in self.coefficients],
            "poly": self.poly_str(),
        }


def _first_nonempty(s: Enumerator) -> int:
    """Smallest positive size with a nonzero count; n+1 if none."""
    return next((i for i in range(1, s.n + 1) if s[i] > 0), s.n + 1)


def _span_blocks(rows: Sequence[int]) -> Iterator[np.ndarray]:
    """All 2**len(rows) GF(2) combinations of independent rows, as uint64 blocks.

    The first _SPAN_BLOCK_BITS rows span one block, built by repeated
    doubling; each block yielded is that sub-span shifted by one coset
    of the remaining rows, the cosets taken in Gray-code order.
    """
    block = np.zeros(1, dtype=np.uint64)
    for row in rows[:_SPAN_BLOCK_BITS]:
        block = np.concatenate([block, block ^ np.uint64(row)])
    for coset in _gray_iter(rows[_SPAN_BLOCK_BITS:]):
        yield block ^ np.uint64(coset)


def _dual_words(code: LinearCode) -> list[int]:
    """All 2**(n-k) dual codewords, ascending as integers (zero first)."""
    _check_row_space_rank(code.n - code.k)
    return np.sort(np.concatenate(list(_span_blocks(code.parity_basis.rows)))).tolist()


def _enumeration_limit() -> int:
    """The enumeration guard: STOPSET_MAX_N, else the default."""
    env = os.environ.get("STOPSET_MAX_N") or str(_DEFAULT_ENUMERATION_LIMIT)
    if (limit := int_from_string(env) or 0) < 1:
        raise ValueError(f"STOPSET_MAX_N={env!r} is not a positive integer")
    return limit


def _enumeration_refusal(name: str, bits: int) -> Optional[str]:
    """Why the 2**bits objects counted by name (n or k) may not be walked; None if they may."""
    limit = _enumeration_limit()
    if bits > limit:
        return f"{name}={bits} exceeds enumeration guard {limit} (set STOPSET_MAX_N to override)"
    return None


class LinearCode:
    """The [n,k,d] binary linear code of the parity-check matrix h.

    The code is the null space of h; dependent, duplicate and zero rows
    of h are legal and do not change it.  The parity basis is h in
    reduced echelon form, which the code fixes, so equal codes compare
    and hash equal whatever matrices they were built from; the generator
    basis is the null space of h, reduced the same way.
    """

    def __init__(self, h: BitMatrix):
        if h.n < 1:
            raise ValueError("code length must be positive")
        self.parity_basis, pivots = rref(h)
        self.generator_basis = _null_space_of_reduced(self.parity_basis, pivots)
        self.n = h.n
        self.k = self.generator_basis.r

    @classmethod
    def from_parity_check(cls, h: BitMatrix) -> "LinearCode":
        """The code of the parity-check matrix h, as LinearCode(h) builds it."""
        return cls(h)

    def __repr__(self) -> str:
        return f"LinearCode(n={self.n}, k={self.k})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self.parity_basis == other.parity_basis

    def __hash__(self) -> int:
        return hash(self.parity_basis)

    def contains(self, word: int) -> bool:
        """Codeword membership: word satisfies every parity check."""
        return not syndrome(self.parity_basis, word)

    def codewords(self) -> Iterator[int]:
        """All 2**k codewords (Gray-code order, starts at zero)."""
        if refusal := _enumeration_refusal("k", self.k):
            raise ValueError(refusal)
        return _gray_iter(self.generator_basis.rows)

    @cached_property
    def weight_enumerator(self) -> Enumerator:
        """A(x): A_i = number of codewords of weight i.

        Counted block by block over _span_blocks of the generator rows,
        so the guard on k bounds time, not memory.
        """
        if refusal := _enumeration_refusal("k", self.k):
            raise ValueError(refusal)
        blocks = _span_blocks(self.generator_basis.rows)
        counts = sum(np.bincount(np.bitwise_count(b), minlength=self.n + 1) for b in blocks)
        return Enumerator(tuple(int(c) for c in counts))

    @cached_property
    def minimum_distance(self) -> int | float:
        """Least nonzero-codeword weight; math.inf for the zero code."""
        d = _first_nonempty(self.weight_enumerator)
        return math.inf if d > self.n else d

    def dual(self) -> "LinearCode":
        """The [n, n-k] dual code: generator and parity roles swap."""
        return LinearCode(self.generator_basis)


def direct_sum(parts: Sequence[LinearCode]) -> LinearCode:
    """Juxtaposition code: block-diagonal parity-check structure."""
    if not parts:
        raise ValueError("direct_sum needs at least one part")
    n = sum(p.n for p in parts)
    rows: list[int] = []
    offset = 0
    for p in parts:
        rows.extend(row << offset for row in p.parity_basis.rows)
        offset += p.n
    return LinearCode.from_parity_check(BitMatrix(tuple(rows), n))


def repetition(n: int) -> LinearCode:
    """The [n,1,n] repetition code {all-zero, all-one}."""
    if n < 1:
        raise ValueError("repetition length must be >= 1")
    _check_column_count(n)  # before any row is built
    rows = tuple(1 | (1 << i) for i in range(1, n))
    return LinearCode.from_parity_check(BitMatrix(rows, n))


def full_code(n: int) -> LinearCode:
    """The [n,n,1] code of all binary words."""
    if n < 1:
        raise ValueError("full code length must be >= 1")
    return LinearCode.from_parity_check(BitMatrix((), n))


def zero_code(n: int) -> LinearCode:
    """The [n,0,inf] code containing only the zero word."""
    if n < 1:
        raise ValueError("zero code length must be >= 1")
    _check_column_count(n)  # before any row is built
    return LinearCode.from_parity_check(BitMatrix(tuple(1 << i for i in range(n)), n))


# The standard 8x8 parity-check matrix for the [8,4,4] Reed-Muller code,
# embedded verbatim; its first 4, 5 and 8 rows are the paper's H_4, H_5
# and H_8 benchmark matrices.
_H8_TEXT = """
10101010
01010101
00110011
00001111
11110000
11001100
01101001
10010110
"""


def _h8_rows(r: int) -> BitMatrix:
    """The first r rows of H_8."""
    return BitMatrix(parse_matrix(_H8_TEXT).rows[:r], 8)


def rm_8_4_4() -> LinearCode:
    """The self-dual [8,4,4] Reed-Muller code."""
    return LinearCode.from_parity_check(_h8_rows(8))


def hamming_7_4() -> LinearCode:
    """The [7,4,3] Hamming code: the columns of its parity-check matrix
    are the seven nonzero 3-bit words, column j holding j."""
    return LinearCode.from_parity_check(transpose(BitMatrix(tuple(range(1, 8)), 3)))


def _h14_matrix() -> BitMatrix:
    """H_14: the fourteen weight-4 words of rm_8_4_4's dual, ascending."""
    return BitMatrix(tuple(w for w in _dual_words(rm_8_4_4()) if w.bit_count() == 4), 8)


# every catalog name without a parameter, code or matrix
_NAMED = {
    "rm_8_4_4": rm_8_4_4,
    "hamming_7_4": hamming_7_4,
    **{f"H_{r}": functools.partial(_h8_rows, r) for r in (4, 5, 8)},
    "H_14": _h14_matrix,
}

_PARAM_CODES = {"repetition": repetition, "full": full_code, "zero": zero_code}


class UnknownCatalogName(ValueError):
    """The name matches no catalog entry (as opposed to a bad parameter)."""


def catalog(name: str) -> LinearCode | BitMatrix:
    """Look up a named code or benchmark matrix.

    Codes: ``repetition(n)``, ``full(n)``, ``zero(n)``, ``rm_8_4_4``,
    ``hamming_7_4``.  Matrices: ``H_4``, ``H_5``, ``H_8``, ``H_14``.
    A name without a parameter is a key of one table; ``name(n)`` is
    a function of _PARAM_CODES applied to n, an optional '-' and ASCII
    digits.
    """
    name = name.strip()
    if name in _NAMED:
        return _NAMED[name]()
    m = re.fullmatch(r"(\w+)\((.*)\)", name)
    if m and m[1] in _PARAM_CODES and (n := int_from_string(m[2])) is not None:
        return _PARAM_CODES[m[1]](n)
    raise UnknownCatalogName(f"unknown catalog name {name!r}")
