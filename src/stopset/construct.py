"""Parity-check matrix constructions and row-count bounds.

Covers the complete (all dual codewords) matrix, low-weight dual-row
matrices, the adversarial construction that forces stopping distance 3,
the exact minimal-matrix search over dual-row subsets, and the known
closed-form bounds on the rows needed for optimal iterative decoding.
The search is a depth-first walk over row subsets in lexicographic
order on Python-int bitsets over the forbidden subsets.  It starts at
the forced-row bound: a forbidden subset that only one dual word covers
puts that word in every passing subset, so no subset with fewer rows
than there are such words can pass.  A row is skipped before the walk
descends to it when the covered sets joined with the suffix union
(every set a later row can still cover) miss a forbidden subset, and
the last row is a scan rather than a descent.  Both only drop failing
subsets, so the walk returns the first full-rank passing subset, as a
plain scan would.
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

from .codes import LinearCode, _dual_words
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
from .stopsets import _incorrigible_flags, _optimal_flags, _unpack
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

    Each predicate is a set of forbidden subsets that the candidate must
    leave non-stopping: for "s=d" the sets of size 1..d-1, for "S=S*"
    the sets that are not S* sets, for "D=I" the nonempty sets that are
    not incorrigible.  Every candidate row is a dual codeword, so every
    S* set is a stopping set of the candidate and every incorrigible set
    a dead-end set of it; the predicate therefore holds exactly when no
    forbidden set is stopping (a dead-end set outside I holds a nonempty
    stopping set, which is outside I too).  The S* and I flags come from
    the enumerator kernels, and the sets below size d are the small sets
    outside I, so the search shares their enumeration guard (n <= 28 by
    default).  A candidate passes iff every forbidden set meets one of
    its rows exactly once (is covered).

    Each dual word's covered sets are one Python int with a bit per
    forbidden set (hits), and alive[s] is the OR of those ints from index
    s on.  Row counts start at max(n-k, forced).  A forbidden set that
    only one dual word covers is covered by that word or not at all, so
    every passing candidate holds the word.  One pass over hits
    (twice |= seen & h; seen |= h) finds the sets that two or more words
    cover; every other set has exactly one covering word, since
    alive[0] == full, and forced counts the words that cover one.  No
    candidate with fewer rows passes, so the skipped row counts would
    have called rank on nothing.

    For each row count r the search is a depth-first walk that appends
    dual-word indices in increasing order, so it reaches the r-subsets
    in the same lexicographic order as a plain scan.  The walk carries
    the covered sets of the prefix down as one OR per step.  Before it
    descends to index i it forms c = covered | hits[i] and skips i iff
    c | alive[i+1] misses a forbidden set: that set is covered by no row
    of the prefix plus i and by no row the subtree may add.  No leaf
    below i can pass, so skipping i drops only failing leaves, and the
    passing ones are still reached in lexicographic order.  With one row
    left the walk does not descend: it scans i upward from the next
    free index and tests in place whether hits[i] covers every set the
    prefix misses, which visits the same leaves in the same order.  Each
    node costs a few int operations and no numpy call.  The GF(2) rank
    runs only on passing leaves, in that order; it is needed because a
    passing candidate may be rank-deficient (for "s=d" this happens:
    its rows can cover every small set without spanning the dual).
    The 2**(n-k) - 1 nonzero dual words are counted against
    SEARCH_MAX_DUAL_WORDS before any of them is listed.
    """
    if predicate not in PREDICATES:
        raise ValueError(f"predicate must be one of {PREDICATES}")
    if max_rows is not None and max_rows < 0:
        raise ValueError(f"max_rows must be >= 0, got {max_rows}")
    if (nonzero := (1 << (code.n - code.k)) - 1) > SEARCH_MAX_DUAL_WORDS:
        raise ValueError(f"{nonzero} nonzero dual words exceed search guard {SEARCH_MAX_DUAL_WORDS}")
    duals = _dual_words(code)[1:]

    n = code.n
    need_rank = code.n - code.k
    if predicate == "S=S*":
        forbidden = np.flatnonzero(~_unpack(_optimal_flags(code)[0], n))
    else:
        forbidden = np.flatnonzero(~_unpack(_incorrigible_flags(code), n))[1:]  # [0] is the empty set
        if predicate == "s=d":
            forbidden = forbidden[np.bitwise_count(forbidden) < code.minimum_distance]
    # bit f of hits[i]: dual word i meets forbidden set f exactly once;
    # alive[s]: the union of hits[s:], the sets a row at index >= s can cover
    packed = (np.packbits(np.bitwise_count(forbidden & w) == 1, bitorder="little") for w in duals)
    hits = [int.from_bytes(p, "little") for p in packed]
    alive = [0] * (len(duals) + 1)
    for s in reversed(range(len(duals))):
        alive[s] = hits[s] | alive[s + 1]
    full = (1 << forbidden.size) - 1
    if alive[0] != full:  # some forbidden set meets no dual word exactly once
        return None
    # twice: the sets that two or more words cover; each other set has one
    # covering word, which every passing candidate holds
    seen = twice = 0
    for h in hits:
        twice |= seen & h
        seen |= h
    forced = sum(1 for h in hits if h & ~twice)

    def ranked(rows: tuple[int, ...]) -> Optional[BitMatrix]:
        h = BitMatrix(rows, n)
        return h if rank(h) == need_rank else None

    def first_leaf(r: int, prefix: tuple[int, ...], start: int, covered: int) -> Optional[BitMatrix]:
        # callers keep covered | alive[start] == full
        if len(prefix) < r - 1:
            for i in range(start, len(duals) - (r - len(prefix)) + 1):
                c = covered | hits[i]
                if c | alive[i + 1] == full and (h := first_leaf(r, prefix + (duals[i],), i + 1, c)) is not None:
                    return h
            return None
        missing = full & ~covered
        for i in range(start, len(duals)):
            if hits[i] & missing == missing and (h := ranked(prefix + (duals[i],))) is not None:
                return h
        return None

    if need_rank == 0:  # the full code: no dual words, so nothing is forbidden
        return ranked(())
    limit = len(duals) if max_rows is None else min(max_rows, len(duals))
    for r in range(max(need_rank, forced), limit + 1):
        if (h := first_leaf(r, (), 0, 0)) is not None:
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

    sv = None
    if d is None:
        notes.append(("sv_bound", "omitted: d not supplied"))
    elif d < 2:
        notes.append(("sv_bound", f"omitted: stated for d >= 3, got d={d}"))
    else:
        sv = sum(_binomials(r, d - 2)) - 1  # sizes 1 .. d-2
        if d == 2:
            notes.append(("sv_bound", "empty sum: the formula's range starts at d >= 3"))

    hs = None
    if d is None:
        notes.append(("hs_bound", "omitted: d not supplied"))
    elif d < 2:
        notes.append(("hs_bound", f"omitted: stated for d >= 2, got d={d}"))
    else:
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
