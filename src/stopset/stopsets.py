"""Stopping sets, dead-end sets, incorrigible sets and their enumerators.

Stopping and dead-end sets are properties of a parity-check matrix;
incorrigible sets are properties of the code alone.  All five
enumerators count sets over the 2**n erasure subsets with one kernel:
a bool flag per subset, its upward closure over the subset lattice (an
OR-zeta transform), and a size histogram.  D(x) is the closure of the
nonempty stopping sets, since a set's peel closure is the largest
stopping set inside it; I(x) is the closure of the nonzero codeword
supports.  Subset enumeration is capped at n <= 28 by default (override
with the STOPSET_MAX_N env var).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .codes import Enumerator, LinearCode, _span_array
from .gf2 import BitMatrix, as_mask, rank, select_columns, transpose

_DEFAULT_MAX_N = 28
_CHUNK = 1 << 20


def _enumeration_limit() -> int:
    env = os.environ.get("STOPSET_MAX_N")
    return int(env) if env else _DEFAULT_MAX_N


def _check_enumeration_guard(n: int) -> None:
    limit = _enumeration_limit()
    if n > limit:
        raise ValueError(f"n={n} exceeds subset enumeration guard {limit} (set STOPSET_MAX_N to override)")


def _mask_dtype(n: int):
    return np.uint32 if n <= 32 else np.uint64


def _lattice(n: int, dtype=bool) -> np.ndarray:
    """A zeroed array indexed by all 2**n subset masks, behind the guard."""
    _check_enumeration_guard(n)
    return np.zeros(1 << n, dtype=dtype)


def _chunks(n: int) -> Iterator[tuple[slice, np.ndarray]]:
    """Consecutive (index slice, subset masks) pieces covering all 2**n masks."""
    dtype = _mask_dtype(n)
    total = 1 << n
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        yield slice(start, stop), np.arange(start, stop, dtype=dtype)


def _upward_closure(g: np.ndarray, n: int) -> np.ndarray:
    """In place, g[m] becomes the OR of g[s] over all subsets s of m.

    On bool flags this marks every superset of a marked subset; on mask
    arrays it ORs together the masks stored at the subsets.
    """
    for j in range(n):
        view = g.reshape(-1, 2, 1 << j)
        view[:, 1, :] |= view[:, 0, :]
    return g


def _histogram(flags: np.ndarray, n: int) -> Enumerator:
    """Number of flagged subsets of each size."""
    counts = np.zeros(n + 1, dtype=np.int64)
    for part, masks in _chunks(n):
        counts += np.bincount(np.bitwise_count(masks[flags[part]]), minlength=n + 1)
    return Enumerator(tuple(int(c) for c in counts))


# ---------------------------------------------------------------------------
# predicates

def is_codeword_support(h: BitMatrix, subset: int | Iterable[int]) -> bool:
    """True iff every row of H restricted to the subset has even weight."""
    m = as_mask(subset)
    return all((row & m).bit_count() % 2 == 0 for row in h.rows)


def is_stopping_set(h: BitMatrix, subset: int | Iterable[int]) -> bool:
    """True iff no row of H restricted to the subset has weight one."""
    m = as_mask(subset)
    return all((row & m).bit_count() != 1 for row in h.rows)


def peel_closure(h: BitMatrix, subset: int | Iterable[int]) -> int:
    """Remove coordinates checked alone by some row, until fixpoint.

    The result is the unique maximal stopping set inside the subset;
    empty iff the subset contains no nonempty stopping set.  Removal
    order does not affect the fixpoint.
    """
    m = as_mask(subset)
    changed = True
    while changed and m:
        changed = False
        for row in h.rows:
            t = row & m
            if t and t.bit_count() == 1:
                m ^= t
                changed = True
    return m


def is_incorrigible(code: LinearCode, subset: int | Iterable[int] | np.ndarray) -> bool | np.ndarray:
    """True iff the subset contains the support of a nonzero codeword.

    Tested as linear dependence of the parity-check columns indexed by
    the subset.  Given a numpy array of masks instead of one subset,
    returns a bool array with one flag per mask, from one Gaussian
    elimination vectorised across the masks (any n <= 64).
    """
    if isinstance(subset, np.ndarray):
        return _incorrigible_masks(code.parity_basis, subset)
    m = as_mask(subset)
    cols = select_columns(code.parity_basis, m)
    return rank(cols) < cols.n


def _incorrigible_masks(h: BitMatrix, masks: np.ndarray) -> np.ndarray:
    """Per mask: are the columns of H indexed by the mask dependent?

    Each column c_j of H is an r-bit word.  Every mask keeps its own XOR
    basis, basis[p] holding the reduced column whose leading bit is p (0
    if none yet).  Column j, when in the mask, is reduced from the top
    bit down and stored at the first empty leading position it reaches,
    or reduces to 0.  The columns are dependent iff fewer than |mask| of
    them were stored, i.e. the basis rank falls short of the mask size.
    """
    masks = np.asarray(masks, dtype=np.uint64)
    if h.n < 64 and np.any(masks >> np.uint64(h.n)):
        raise IndexError(f"column index beyond matrix length {h.n}")
    word = _mask_dtype(h.r)
    basis = np.zeros((h.r, *masks.shape), dtype=word)
    for j, col in enumerate(transpose(h).rows):
        v = ((masks >> np.uint64(j)) & np.uint64(1)).astype(word) * word(col)
        for p in range(h.r - 1, -1, -1):
            # 0/1 words used as per-mask selectors, so no branch per mask
            hit = (v >> word(p)) & word(1)
            b = basis[p]
            v ^= b * hit  # reduce by the stored row, a no-op where it is 0
            new = hit * (b == 0)
            b |= v * new  # store where the leading position was empty
            v ^= v * new  # a stored column reduces no further
    return np.count_nonzero(basis, axis=0) < np.bitwise_count(masks)


def batch_peel_residuals(h: BitMatrix, masks: np.ndarray) -> np.ndarray:
    """Peel closure of every mask in the array, as one batched fixpoint.

    Equivalent to calling peel_closure per mask; the fixpoint does not
    depend on sweep order.
    """
    rows = [masks.dtype.type(r) for r in h.rows]
    residual = masks.copy()
    changed = True
    while changed:
        changed = False
        for row in rows:
            t = residual & row
            single = np.bitwise_count(t) == 1
            if single.any():
                residual[single] ^= t[single]
                changed = True
    return residual


# ---------------------------------------------------------------------------
# enumerators

@dataclass(frozen=True)
class StoppingProfile:
    """Stopping and dead-end enumerators of one parity-check matrix."""

    stopping: Enumerator
    dead_end: Enumerator
    stopping_distance: int

    @property
    def no_nonempty_stopping_set(self) -> bool:
        return self.stopping_distance > self.stopping.n


def _stopping_flags(h: BitMatrix) -> np.ndarray:
    """flags[m] is True iff no row of H meets the subset m exactly once."""
    rows = [_mask_dtype(h.n)(r) for r in h.rows]
    flags = _lattice(h.n)
    for part, masks in _chunks(h.n):
        ok = flags[part]
        ok[:] = True
        for row in rows:
            ok &= np.bitwise_count(masks & row) != 1
    return flags


def _dead_end(stop_flags: np.ndarray, n: int) -> Enumerator:
    """D(x) from stopping flags: sets holding a nonempty stopping set.

    Overwrites the flags with their closure.
    """
    stop_flags[0] = False
    return _histogram(_upward_closure(stop_flags, n), n)


def _first_nonempty(s: Enumerator) -> int:
    """Smallest positive size with a nonzero count; n+1 if none."""
    return next((i for i in range(1, s.n + 1) if s[i] > 0), s.n + 1)


def _profile(stop_flags: np.ndarray, n: int) -> StoppingProfile:
    s_poly = _histogram(stop_flags, n)
    return StoppingProfile(s_poly, _dead_end(stop_flags, n), _first_nonempty(s_poly))


def stopping_set_enumerator(h: BitMatrix) -> Enumerator:
    """S(x): S_i = number of stopping sets of size i for H."""
    return _histogram(_stopping_flags(h), h.n)


def dead_end_enumerator(h: BitMatrix) -> Enumerator:
    """D(x): D_i = number of size-i sets whose peel closure is nonempty.

    The peel closure of a set is the largest stopping set inside it, so
    the dead-end sets are the upward closure of the nonempty stopping
    sets: one OR-zeta pass over the stopping flags, no peeling.
    """
    return _dead_end(_stopping_flags(h), h.n)


def incorrigible_enumerator(code: LinearCode) -> Enumerator:
    """I(x): I_i = number of size-i sets containing a nonzero-codeword support."""
    n = code.n
    flags = _lattice(n)
    flags[_span_array(code.generator_basis.rows, _mask_dtype(n))] = True
    flags[0] = False  # the zero codeword does not count
    return _histogram(_upward_closure(flags, n), n)


def stopping_distance(h: BitMatrix) -> int:
    """Smallest size of a nonempty stopping set; n+1 if none exists."""
    return _first_nonempty(stopping_set_enumerator(h))


def profile(h: BitMatrix) -> StoppingProfile:
    """S(x), D(x) and s for an explicit parity-check matrix, from one flag pass."""
    return _profile(_stopping_flags(h), h.n)


def optimal_enumerators(code: LinearCode) -> StoppingProfile:
    """S*(x), D*(x), s*: enumerators of the complete parity-check matrix.

    A set is stopping for the complete matrix iff it is the union of the
    codeword supports it contains.  The union of the supports inside
    every subset comes from one OR-zeta transform of the 2**k supports,
    so neither the complete matrix nor its 2**(n-k) rows are ever
    formed.  D*(x) is the upward closure of the nonempty S* sets, as for
    D(x).
    """
    n = code.n
    union = _lattice(n, _mask_dtype(n))
    supports = _span_array(code.generator_basis.rows, union.dtype.type)
    union[supports] = supports
    _upward_closure(union, n)
    flags = _lattice(n)
    for part, masks in _chunks(n):
        flags[part] = union[part] == masks
    return _profile(flags, n)


# ---------------------------------------------------------------------------
# minimum-stopping characterization

@dataclass(frozen=True)
class Decomposition:
    """Coordinate split witnessing S*(x) = A(x).

    The code is, up to the identity permutation implied by the listed
    coordinate sets, a direct sum of repetition codes on the blocks, a
    full code on full_positions, and a zero code on zero_positions.
    """

    repetition_blocks: tuple[tuple[int, ...], ...]
    full_positions: tuple[int, ...]
    zero_positions: tuple[int, ...]


def minimum_stopping_decomposition(code: LinearCode) -> Optional[Decomposition]:
    """Structural minimum-stopping test, without computing S*(x).

    Returns the repetition/full/zero coordinate split iff the optimal
    stopping set enumerator equals the weight enumerator; None otherwise.
    """
    n = code.n
    gen_rows = code.generator_basis.rows
    par_rows = code.parity_basis.rows

    zero_positions = []
    full_positions = []
    remaining = []
    for j in range(1, n + 1):
        bit = 1 << (j - 1)
        if all(row & bit == 0 for row in gen_rows):
            zero_positions.append(j)
        elif all(row & bit == 0 for row in par_rows):
            full_positions.append(j)  # the unit vector e_j is a codeword
        else:
            remaining.append(j)

    # Group remaining coordinates by equality of generator columns
    # (column equality holds iff c_i = c_j for every codeword, so the
    # grouping does not depend on the basis choice).
    groups: dict[int, list[int]] = {}
    for j in remaining:
        bit = 1 << (j - 1)
        col = 0
        for i, row in enumerate(gen_rows):
            if row & bit:
                col |= 1 << i
        groups.setdefault(col, []).append(j)

    blocks = sorted(groups.values())
    if any(len(b) < 2 for b in blocks):
        return None
    for block in blocks:
        indicator = 0
        for j in block:
            indicator |= 1 << (j - 1)
        if not code.contains(indicator):
            return None
    if code.k != len(blocks) + len(full_positions):
        return None
    return Decomposition(
        tuple(tuple(b) for b in blocks),
        tuple(full_positions),
        tuple(zero_positions),
    )
