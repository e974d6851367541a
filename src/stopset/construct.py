"""Parity-check matrix constructions and row-count bounds.

Covers the complete (all dual codewords) matrix, low-weight dual-row
matrices, the adversarial construction that forces stopping distance 3,
the exact minimal-matrix search over dual-row subsets, and the known
closed-form bounds on the rows needed for optimal iterative decoding.
The search needs no walk over row subsets and no rank test per
candidate: each forbidden subset has a covering set, the dual words that
meet it exactly once, and each nonzero functional on the dual an odd
set, the dual words it maps to 1.  A candidate passes and spans the dual
iff the words it leaves out hold neither kind of set, so one upward
closure over the subsets of the dual words flags every failing or
rank-deficient candidate, and the first unflagged one in search order
is the result.
The dual words come from codes._dual_words, which is capped by
gf2.ROW_SPACE_RANK_LIMIT on n-k; the search is also capped by
SEARCH_MAX_DUAL_WORDS, checked from n-k before anything is listed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from itertools import islice
from typing import Iterator, Optional

import numpy as np

from .codes import LinearCode, _dual_words, _enumeration_refusal, _span_blocks
from .gf2 import (
    BitMatrix,
    indices_from_mask,
    null_space_basis,
    permute_columns,
    rank,
    solve,
    syndrome,
    transpose,
)
from .stopsets import _by_popcount, _incorrigible_flags, _pack_subsets, _unpack, _upward_closure
# unused here, but perfbench/tracing.py wraps both names in this module
from .stopsets import incorrigible_enumerator, optimal_enumerators  # noqa: F401

SEARCH_MAX_DUAL_WORDS = 20


def complete_matrix(code: LinearCode) -> BitMatrix:
    """All 2**(n-k) dual codewords as rows, ascending as integers.

    Includes the zero row, which no stopping or dead-end predicate ever
    reacts to; it is kept so the row count matches 2**(n-k).
    """
    return BitMatrix(tuple(_dual_words(code)), code.n)


def weight_bounded_dual_matrix(code: LinearCode, w: int) -> BitMatrix:
    """All nonzero dual codewords of weight <= w, ascending as integers.

    For w >= k+1 the result is guaranteed to be a parity-check matrix of
    the code with dead-end enumerator equal to the incorrigible set
    enumerator.  For smaller w the rows may fail to span the dual; that
    is reported as an error since the result would not represent the
    code.
    """
    rows = [v for v in _dual_words(code) if 0 < v.bit_count() <= w]
    m = BitMatrix(tuple(rows), code.n)
    r = rank(m)
    if r < code.n - code.k:
        raise ValueError(
            f"dual words of weight <= {w} have rank {r} < {code.n - code.k}: "
            "not a parity-check matrix of the code"
        )
    return m


def _gadget_rows(d: int) -> list[int]:
    """The (d-1) x d block that leaves {1,2,3} unchecked by weight-one rows."""
    rows = [0b11, 0b110, 0b1111]
    for i in range(4, d):
        rows.append((1 << (i - 1)) | (1 << i))
    return rows[: d - 1]


def bad_matrix(code: LinearCode) -> tuple[BitMatrix, tuple[int, ...]]:
    """A full-rank parity-check matrix with stopping distance 3.

    Exists for every code with finite minimum distance d >= 4.  Returns
    the matrix together with the coordinate permutation used: entry i of
    the permutation is the original 1-based coordinate now at position
    i+1 (the support of the chosen minimum-weight codeword moves to the
    first d positions, everything else keeps its relative order).
    """
    d = code.minimum_distance
    if d is math.inf or d < 4:
        raise ValueError(f"construction needs minimum distance >= 4, got d={d}")
    d = int(d)

    support = min((w for w in code.codewords() if w.bit_count() == d), key=indices_from_mask)
    perm = indices_from_mask(support) + indices_from_mask(~support & ((1 << code.n) - 1))

    # the columns of the permuted parity basis H'; a . H' = syndrome(columns, a)
    columns = transpose(permute_columns(code.parity_basis, perm))
    t = BitMatrix(columns.rows[:d], columns.n)  # d x (n-k); a . H' starts with g  <=>  t . a^T = g^T

    # the gadget rows on top, then a basis of the dual words zero on the first d
    coeffs = [solve(t, g) for g in _gadget_rows(d)]
    if None in coeffs:  # impossible: the restriction space is the even-weight space
        raise AssertionError("gadget row not realizable as a dual restriction")
    coeffs += null_space_basis(t).rows
    h = BitMatrix(tuple(syndrome(columns, a) for a in coeffs), code.n)
    if rank(h) != code.n - code.k:
        raise AssertionError("constructed matrix lost rank")
    return h, perm


PREDICATES = ("s=d", "S=S*", "D=I")  # the order of the CLI's --predicate choices


def minimal_matrix_search(
    code: LinearCode, predicate: str, max_rows: Optional[int] = None
) -> Optional[BitMatrix]:
    """Fewest-row parity-check matrix of distinct nonzero dual codewords
    satisfying the predicate; None if nothing qualifies within max_rows.

    Predicates: "s=d" (stopping distance equals minimum distance),
    "S=S*" (stopping set enumerator is optimal), "D=I" (dead-end set
    enumerator is optimal).  Candidates are taken by increasing row
    count, then lexicographically on the sorted row list, so the result
    is deterministic.

    A predicate holds iff no forbidden set is stopping for the
    candidate: for "s=d" the nonempty sets of size below d, for "S=S*"
    the sets that are not S* sets, for "D=I" the nonempty sets that are
    not incorrigible.  (Every row is a dual word, so every S* set is
    stopping and every incorrigible set dead-end for every candidate,
    and a dead-end set outside I holds a nonempty stopping set, which is
    outside I too.)  A set is non-stopping iff a row meets it exactly
    once; the dual words that do are the set's covering set.  The sets
    no dual word covers are the S* sets, by definition, the empty set
    among them, and no forbidden set is one: a nonempty set f of size
    below d, or outside I, holds no nonzero codeword, so the dual words
    restricted to f give every vector on f, a unit vector among them.
    So the search reads all sets below size d, all sets, or all sets
    outside I, and drops the uncovered ones; that removes the S* sets
    for "S=S*" and only the empty set otherwise.  Every set left has a
    covering word, so no forbidden set makes every candidate fail.

    With the m nonzero dual words as bits, word i at bit m-1-i, a
    candidate fails iff the words it leaves out hold a covering set, so
    the failing candidates are the upward closure of the covering sets
    over the 2**m words.  The forbidden sets are read in pieces of at
    most 2**12, the "D=I" ones from the packed incorrigible flags, and
    the guard on n (n <= 28 by default) refuses every predicate, as the
    enumerators do.  For r rows the left-out words have m-r bits, and
    ascending left-out words give the r-subsets in lexicographic order.

    A passing candidate may still be rank-deficient (for "s=d" this
    happens: its rows can cover every small set without spanning the
    dual), so the closure also starts from the 2**(n-k) - 1 odd sets.
    The odd set of a nonzero functional a on the dual holds the words x
    with a.x = 1.  A candidate spans the dual iff it lies in no
    hyperplane {x : a.x = 0}, that is iff it keeps a word of every odd
    set, so it is deficient iff its left-out words hold an odd set, and
    the closure flags exactly the failing and the deficient candidates.
    parity_basis is in reduced row echelon form, so row t's pivot is its
    lowest set bit and a word's coefficient on row t is its bit at that
    pivot: a.x is the parity of x on the pivots of the rows a takes, and
    the span of the pivot bits lists those pivot sets.  The result is
    the first unflagged candidate of at least n-k rows, and one rank
    check of it is the search's postcondition.  The 2**(n-k) - 1 nonzero
    dual words are counted against SEARCH_MAX_DUAL_WORDS before any of
    them is listed.
    """
    if predicate not in PREDICATES:
        raise ValueError(f"predicate must be one of {PREDICATES}")
    if max_rows is not None and max_rows < 0:
        raise ValueError(f"max_rows must be >= 0, got {max_rows}")
    if (nonzero := (1 << (code.n - code.k)) - 1) > SEARCH_MAX_DUAL_WORDS:
        raise ValueError(f"{nonzero} nonzero dual words exceed search guard {SEARCH_MAX_DUAL_WORDS}")
    if refusal := _enumeration_refusal("n", code.n):
        raise ValueError(refusal)
    duals = _dual_words(code)[1:]

    n, m = code.n, len(duals)
    piece = min(n, 12)
    low = np.arange(1 << piece, dtype=np.uint16)  # piece q holds the sets q * low.size + low
    lows = np.bitwise_count(np.array([w % low.size for w in duals], np.uint16)[:, None] & low)  # [i, b]: |duals[i] & b|
    bits = np.arange(m - 1, -1, -1, dtype=np.uint16)[:, None]  # word i at bit m-1-i
    incorrigible = _incorrigible_flags(code) if predicate == "D=I" else None
    covering = np.zeros(1 << m, bool)  # [c]: c is a forbidden set's covering set
    for start in range(0, 1 << n, low.size):
        highs = np.array([(start & w).bit_count() for w in duals], np.uint8)[:, None]  # [i]: |duals[i] & start|
        covers = np.bitwise_or.reduce((lows + highs == 1) << bits, axis=0)  # [b]: the covering set of start + b
        if predicate == "s=d":
            covers = covers[np.bitwise_count(low) + start.bit_count() < code.minimum_distance]
        elif predicate == "D=I":
            covers = covers[~_unpack(incorrigible, piece, start)]
        covering[covers] = True
    covering[0] = False  # the uncovered sets: the empty set and the S* sets
    pivots = np.concatenate(list(_span_blocks([row & -row for row in code.parity_basis.rows])))  # [a]: a's pivots
    odd = (np.bitwise_count(np.array(duals, np.uint64)[:, None] & pivots) & 1) << bits  # [i, a]: a . duals[i] at bit m-1-i
    covering[np.bitwise_or.reduce(odd, axis=0)[pivots != 0]] = True  # the odd sets of the nonzero a
    failing = _unpack(_upward_closure(_pack_subsets(covering), range(m)), m)

    order, starts = _by_popcount(m)
    limit = m if max_rows is None else min(max_rows, m)
    for r in range(n - code.k, limit + 1):
        left_out = order[starts[m - r] :][: math.comb(m, r)]  # the words with m-r bits, ascending
        if (passing := left_out[~failing[left_out]]).size:
            left = int(passing[0])
            h = BitMatrix(tuple(w for i, w in enumerate(duals) if not left >> (m - 1 - i) & 1), n)
            if rank(h) != n - code.k:
                raise AssertionError("search result lost rank")
            return h
    return None


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2 (1-x), with H(0) = H(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument {x} outside [0,1]")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _binomials(n: int, top: int) -> Iterator[int]:
    """C(n, 0), C(n, 1), ..., C(n, min(top, n)), each from the one before."""
    c = 1
    for i in range(min(top, n) + 1):
        yield c
        c = c * (n - i) // (i + 1)


@dataclass(frozen=True)
class BoundReport:
    """Closed-form row-count bounds for a given (n, k, d, m).

    Bounds that do not apply to the parameters are None, with the reason
    recorded in notes; empty-sum conventions are flagged the same way.
    """

    n: int
    k: int
    d: Optional[int] = None
    m: Optional[int] = None
    sv_bound: Optional[int] = None
    hs_bound: Optional[int] = None
    ht_bound: Optional[int] = None
    holtol_bound: Optional[int] = None
    entropy_bound: Optional[float] = None
    notes: tuple[tuple[str, str], ...] = field(default=())

    def to_json_obj(self) -> dict:
        return {**asdict(self), "notes": dict(self.notes)}


def redundancy_bounds(
    n: int, k: int, d: Optional[int] = None, m: Optional[int] = None
) -> BoundReport:
    """Evaluate the known row-count bounds exactly.

    sv_bound: rows sufficient for s = d.  hs_bound: alternative bound for
    the same goal.  ht_bound(m): rows sufficient for D_i = I_i up to
    size m.  holtol_bound: 2**(n-k-1) rows suffice for D(x) = I(x).
    entropy_bound: 2**(n H((k+1)/n)) rows suffice when k <= n/2 - 1.
    Refuses an n-k whose 2**(n-k) has more digits than Python prints
    as one int (sys.get_int_max_str_digits()).
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    r = n - k
    # every bound is below 2**r; refuse before summing what JSON cannot print
    digits = sys.get_int_max_str_digits()
    if digits and r >= (10**digits).bit_length():
        raise ValueError(f"n-k={r} too large: bounds up to 2**{r} exceed the {digits}-digit integer output limit")
    notes: list[tuple[str, str]] = []

    sv = hs = None
    if d is None or d < 2:
        for name, stated in (("sv_bound", 3), ("hs_bound", 2)):
            notes.append((name, "omitted: d not supplied" if d is None else f"omitted: stated for d >= {stated}, got d={d}"))
    else:
        sv = sum(_binomials(r, d - 2)) - 1  # sizes 1 .. d-2
        if d == 2:
            notes.append(("sv_bound", "empty sum: the formula's range starts at d >= 3"))
        # the odd sizes 1, 3, ..., 2*(d//2) - 1: ceil((d-1)/2) terms
        hs = sum(islice(_binomials(r, 2 * (d // 2) - 1), 1, None, 2))

    ht = None
    if m is None:
        notes.append(("ht_bound", "omitted: m not supplied"))
    elif not 2 <= m <= r:
        notes.append(("ht_bound", f"omitted: need 2 <= m <= n-k, got m={m}"))
    else:
        ht = sum(_binomials(r - 1, m - 1))

    holtol = None
    if k < n:
        holtol = 1 << (r - 1)
    else:
        notes.append(("holtol_bound", "omitted: requires k < n"))

    entropy = None
    if k <= n / 2 - 1:
        try:
            entropy = 2.0 ** (n * binary_entropy((k + 1) / n))
        except OverflowError:
            notes.append(("entropy_bound", "omitted: 2**(n H((k+1)/n)) exceeds the float range"))
    else:
        notes.append(("entropy_bound", "omitted: requires k <= n/2 - 1"))

    return BoundReport(
        n=n, k=k, d=d, m=m,
        sv_bound=sv, hs_bound=hs, ht_bound=ht,
        holtol_bound=holtol, entropy_bound=entropy,
        notes=tuple(notes),
    )
