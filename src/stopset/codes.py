"""Binary linear [n,k,d] block codes given by parity-check matrices.

A code is the null space of the row space of its parity-check matrix;
the row space itself is the dual code.  Values are immutable after
construction and all operations are pure.

One enumeration guard bounds every walk over 2**bits objects: the 2**n
erasure subsets of the stopping-set kernels and the 2**k codewords of
codewords() and A(x).  It is n, k <= 28 by default, overridden by the
STOPSET_MAX_N env var; _enumeration_limit is the one reader of that
variable and _enumeration_refusal writes every refusal.  Since k <= n,
a code under the guard in n is under it in k too.
"""

from __future__ import annotations

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
    _gray_iter,
    _null_space_of_reduced,
    parse_matrix,
    rank,
    row_space_iter,
    rref,
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


def _enumeration_limit() -> int:
    """The enumeration guard: STOPSET_MAX_N, else the default."""
    env = os.environ.get("STOPSET_MAX_N") or str(_DEFAULT_ENUMERATION_LIMIT)
    if not env.strip().isdecimal() or int(env) < 1:
        raise ValueError(f"STOPSET_MAX_N={env!r} is not a positive integer")
    return int(env)


def _enumeration_refusal(name: str, bits: int) -> Optional[str]:
    """Why the 2**bits objects counted by name (n or k) may not be walked; None if they may."""
    limit = _enumeration_limit()
    if bits > limit:
        return f"{name}={bits} exceeds enumeration guard {limit} (set STOPSET_MAX_N to override)"
    return None


class LinearCode:
    """An [n,k,d] binary linear code given by a parity and a generator basis.

    The constructor refuses a pair of bases that is not one code: either
    basis with dependent rows, or a generator row failing a parity check.
    It keeps the parity basis in reduced echelon form, which the dual
    code fixes, so equal codes compare and hash equal whatever bases
    they were built from.
    """

    def __init__(self, parity_basis: BitMatrix, generator_basis: BitMatrix):
        if parity_basis.n != generator_basis.n:
            raise ValueError("parity and generator lengths disagree")
        if parity_basis.n < 1:
            raise ValueError("code length must be positive")
        self.parity_basis = rref(parity_basis)[0]
        self.generator_basis = generator_basis
        self.n = parity_basis.n
        self.k = generator_basis.r
        if parity_basis.r + self.k != self.n:
            raise ValueError("basis ranks do not add up to n")
        if self.parity_basis.r < parity_basis.r or rank(generator_basis) < self.k:
            raise ValueError("basis rows are dependent")
        if not all(map(self.contains, generator_basis.rows)):
            raise ValueError("a generator row fails a parity check")

    @classmethod
    def from_parity_check(cls, h: BitMatrix) -> "LinearCode":
        """Build the code defined by any parity-check matrix.

        Dependent or duplicate rows are legal and do not change the code.
        """
        reduced, pivots = rref(h)
        return cls(reduced, _null_space_of_reduced(reduced, pivots))

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
        return all((row & word).bit_count() % 2 == 0 for row in self.parity_basis.rows)

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
        return LinearCode(self.generator_basis, self.parity_basis)


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
# embedded verbatim; first 4 or 5 rows are the H_4 / H_5 benchmarks.
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

_HAMMING_7_4_TEXT = """
1010101
0110011
0001111
"""


def _h8_matrix() -> BitMatrix:
    return parse_matrix(_H8_TEXT)


def rm_8_4_4() -> LinearCode:
    """The self-dual [8,4,4] Reed-Muller code."""
    return LinearCode.from_parity_check(_h8_matrix())


def hamming_7_4() -> LinearCode:
    """The [7,4,3] Hamming code (columns are all nonzero triples)."""
    return LinearCode.from_parity_check(parse_matrix(_HAMMING_7_4_TEXT))


def _h14_matrix() -> BitMatrix:
    code = rm_8_4_4()
    words = sorted(w for w in row_space_iter(code.parity_basis) if w.bit_count() == 4)
    return BitMatrix(tuple(words), 8)


_NAMED_CODES = {
    "rm_8_4_4": rm_8_4_4,
    "hamming_7_4": hamming_7_4,
}

_PARAM_CODES = {
    "repetition": repetition,
    "full": full_code,
    "zero": zero_code,
}


class UnknownCatalogName(ValueError):
    """The name matches no catalog entry (as opposed to a bad parameter)."""


def catalog(name: str) -> LinearCode | BitMatrix:
    """Look up a named code or benchmark matrix.

    Codes: ``repetition(n)``, ``full(n)``, ``zero(n)``, ``rm_8_4_4``,
    ``hamming_7_4``.  Matrices: ``H_4``, ``H_5``, ``H_8``, ``H_14``.
    """
    name = name.strip()
    if name in _NAMED_CODES:
        return _NAMED_CODES[name]()
    m = re.fullmatch(r"(repetition|full|zero)\((\d+)\)", name)
    if m:
        return _PARAM_CODES[m.group(1)](int(m.group(2)))
    m = re.fullmatch(r"H_(4|5|8)", name)
    if m:
        h8 = _h8_matrix()
        return BitMatrix(h8.rows[: int(m.group(1))], 8)
    if name == "H_14":
        return _h14_matrix()
    raise UnknownCatalogName(f"unknown catalog name {name!r}")
