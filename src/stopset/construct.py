"""Parity-check matrix constructions and row-count bounds.

Covers the complete (all dual codewords) matrix, low-weight dual-row
matrices, the adversarial construction that forces stopping distance 3,
the exact minimal-matrix search over dual-row subsets, and the known
closed-form bounds on the rows needed for optimal iterative decoding.
The search is a depth-first walk over row subsets in lexicographic
order on Python-int bitsets over the forbidden subsets.  A node is cut
when its covered sets joined with the suffix union (every set a row not
yet passed over can still cover) miss a forbidden subset; the walk
returns the first full-rank passing subset, as a plain scan would.
Every dual-word listing is capped by gf2.ROW_SPACE_RANK_LIMIT on n-k,
and the search also by SEARCH_MAX_DUAL_WORDS, checked from n-k before
anything is listed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .codes import LinearCode, _span_blocks
from .gf2 import (
    BitMatrix,
    _check_row_space_rank,
    null_space_basis,
    permute_columns,
    rank,
    select_columns,
    solve,
    transpose,
)
from .stopsets import _incorrigible_flags, _optimal_flags, _unpack
# unused here, but perfbench/tracing.py wraps both names in this module
from .stopsets import incorrigible_enumerator, optimal_enumerators  # noqa: F401

SEARCH_MAX_DUAL_WORDS = 20


def _dual_words(code: LinearCode) -> list[int]:
    """All 2**(n-k) dual codewords, ascending as integers (zero first)."""
    _check_row_space_rank(code.n - code.k)
    return np.sort(np.concatenate(list(_span_blocks(code.parity_basis.rows)))).tolist()


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
    if rank(m) < code.n - code.k:
        raise ValueError(
            f"dual words of weight <= {w} have rank {rank(m)} < {code.n - code.k}: "
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

    support = min(
        (w for w in code.codewords() if w.bit_count() == d),
        key=lambda w: sorted(j for j in range(code.n) if (w >> j) & 1),
    )
    sup = [j + 1 for j in range(code.n) if (support >> j) & 1]
    rest = [j for j in range(1, code.n + 1) if j not in set(sup)]
    perm = tuple(sup + rest)

    hp = permute_columns(code.parity_basis, perm)
    first_d = select_columns(hp, range(1, d + 1))  # (n-k) x d
    t = transpose(first_d)  # d x (n-k); a . first_d = g  <=>  t . a^T = g^T

    def dual_word(coeffs: int) -> int:
        w = 0
        for i, row in enumerate(hp.rows):
            if (coeffs >> i) & 1:
                w ^= row
        return w

    top = []
    for g in _gadget_rows(d):
        solution = solve(t, g)
        if solution is None:  # impossible: the restriction space is the even-weight space
            raise AssertionError("gadget row not realizable as a dual restriction")
        top.append(dual_word(solution[0]))
    bottom = [dual_word(a) for a in null_space_basis(t).rows]

    h = BitMatrix(tuple(top + bottom), code.n)
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

    For each row count r the search is a depth-first walk that appends
    dual-word indices in increasing order, so it reaches the r-subsets
    in the same lexicographic order as a plain scan.  Each dual word's
    covered sets are one Python int with a bit per forbidden set, and
    alive[s] is the OR of those ints from index s on.  The walk carries
    the covered sets of the prefix down as one OR per step, and cuts a
    subtree iff covered | alive[start] misses a forbidden set (start is
    the next index the subtree may use): that set is covered by no row
    of the prefix and by no row the subtree may add.  No leaf below such
    a node can pass, so every passing leaf is still reached, in
    lexicographic order; a leaf passes iff its covered sets are all of
    them.  Each node costs a few int operations and no numpy call.  The
    GF(2) rank runs only on passing leaves; it is needed because a
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
        forbidden = np.flatnonzero(~_unpack(_optimal_flags(code), n))
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

    def first_leaf(r: int, prefix: list[int], start: int, covered: int) -> Optional[BitMatrix]:
        if covered | alive[start] != full:
            return None
        if len(prefix) == r:
            if covered == full:
                h = BitMatrix(tuple(duals[i] for i in prefix), n)
                if rank(h) == need_rank:
                    return h
            return None
        for i in range(start, len(duals) - (r - len(prefix)) + 1):
            if (h := first_leaf(r, prefix + [i], i + 1, covered | hits[i])) is not None:
                return h
        return None

    limit = len(duals) if max_rows is None else min(max_rows, len(duals))
    for r in range(need_rank, limit + 1):
        if (h := first_leaf(r, [], 0, 0)) is not None:
            return h
    return None


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2 (1-x), with H(0) = H(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument {x} outside [0,1]")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


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
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    notes: list[tuple[str, str]] = []
    r = n - k

    sv = None
    if d is None:
        notes.append(("sv_bound", "omitted: d not supplied"))
    elif d < 2:
        notes.append(("sv_bound", f"omitted: stated for d >= 3, got d={d}"))
    else:
        sv = sum(math.comb(r, i) for i in range(1, d - 1))
        if d == 2:
            notes.append(("sv_bound", "empty sum: the formula's range starts at d >= 3"))

    hs = None
    if d is None:
        notes.append(("hs_bound", "omitted: d not supplied"))
    elif d < 2:
        notes.append(("hs_bound", f"omitted: stated for d >= 2, got d={d}"))
    else:
        # ceil((d-1)/2) terms
        hs = sum(math.comb(r, 2 * i - 1) for i in range(1, d // 2 + 1))

    ht = None
    if m is None:
        notes.append(("ht_bound", "omitted: m not supplied"))
    elif not 2 <= m <= r:
        notes.append(("ht_bound", f"omitted: need 2 <= m <= n-k, got m={m}"))
    else:
        ht = sum(math.comb(r - 1, i) for i in range(m))

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
