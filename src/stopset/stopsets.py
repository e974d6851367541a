"""Stopping sets, dead-end sets, incorrigible sets and their enumerators.

Stopping and dead-end sets are properties of a parity-check matrix;
incorrigible sets are properties of the code alone.  All five
enumerators count sets over the 2**n erasure subsets with one kernel on
packed bits: word q of a flag array holds subsets 64q..64q+63, the low
six coordinates indexing the bit and the rest the word.  Only this
module knows that layout; other modules pass flag arrays back to its
functions (_flagged, _unpack, _histogram) and never index the words.
Flags are built a word at a time, closed upward over the subset lattice
(an OR-zeta transform) and counted by size.  D(x) is the closure of the
nonempty stopping sets, since a set's peel closure is the largest
stopping set inside it; I(x) is the closure of the nonzero codeword
supports.  Every flag array is allocated by _packed, behind the one
enumeration guard of codes._enumeration_refusal (n <= 28 by default,
overridden by the STOPSET_MAX_N env var); the flags then take 2**(n-3)
bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .codes import Enumerator, LinearCode, _enumeration_refusal, _first_nonempty, _span_blocks
from .gf2 import BitMatrix, _column_mask, mask_from_indices, rank, select_columns, transpose


def _mask_dtype(n: int):
    return np.uint32 if n <= 32 else np.uint64


def _pack(bits: np.ndarray) -> np.ndarray:
    """Bool array with a last axis of 64 -> uint64 words, bit b from bits[..., b]."""
    return np.packbits(bits, axis=-1, bitorder="little").view("<u8")[..., 0].astype(np.uint64)


_LOW = np.arange(64)  # the low part b of subset 64q+b, i.e. its coordinates 0..5
_HAS = _pack(_LOW >> np.arange(6)[:, None] & 1 == 1)  # [j]: the low parts holding coordinate j
_OF_SIZE = _pack(np.bitwise_count(_LOW) == np.arange(7)[:, None])  # [k]: the low parts of size k
_MEETS = np.bitwise_count(_LOW[:, None] & _LOW)  # [t, b]: |t & b|
# [t, c]: the low parts b with |t & b| + c != 1, for c = 0, 1 and c >= 2
_MISSES = np.stack([_pack(_MEETS != 1), _pack(_MEETS != 0), np.full(64, ~np.uint64(0))], axis=1)


def _packed(n: int, fill: bool = False) -> np.ndarray:
    """Flags of all 2**n subsets, all clear or all set, behind the guard.

    For n < 6 the one word is partial: no kernel pass sets bit 2**n or above.
    """
    if refusal := _enumeration_refusal("n", n):
        raise ValueError(refusal)
    return np.full(1 << max(n - 6, 0), (1 << (1 << min(n, 6))) - 1 if fill else 0, dtype=np.uint64)


def _locate(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each subset mask m lives in packed flags: word m >> 6, bit m & 63."""
    return masks >> np.uint64(6), np.uint64(1) << (masks & np.uint64(63))


def _flagged(flags: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Whether each subset mask is flagged in packed flags."""
    words, bits = _locate(masks)
    return flags[words] & bits != 0


def _unpack(words: np.ndarray, n: int) -> np.ndarray:
    """Packed flags -> one bool per subset mask, 2**n of them."""
    bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), bitorder="little")
    return bits[: 1 << n].view(bool)


def _upward_closure(words: np.ndarray, coords: Iterable[int]) -> np.ndarray:
    """In place, flag m + {j} wherever m is flagged, for each j in coords.

    Over range(n) this flags every superset of a flagged subset (an
    OR-zeta transform).  Coordinate j < 6 lives inside the word: a shift
    by 2**j moves each subset onto the subset with j added.  Coordinate
    j >= 6 pairs whole words: those whose index holds j take the OR of
    their partner.
    """
    for j in coords:
        if j < 6:
            moved = words << np.uint64(1 << j)
            moved &= _HAS[j]
            words |= moved
            del moved  # before the next pass allocates its own
        else:
            pairs = words.reshape(-1, 2, 1 << (j - 6))
            pairs[:, 1] |= pairs[:, 0]
    return words


def _histogram(words: np.ndarray, n: int) -> Enumerator:
    """Number of flagged subsets of each size, in exact integers.

    poly[i, q] counts the flagged subsets of size i in words q.  Folding
    in the top bit of the word index adds the upper half, one size up,
    to the lower half.
    """
    low = min(n, 6)
    poly = np.stack([np.bitwise_count(words & m) for m in _OF_SIZE[: low + 1]])
    for covered in range(low + 1, n + 1):
        half = poly.reshape(poly.shape[0], 2, -1)
        poly = np.zeros((covered + 1, half.shape[2]), np.min_scalar_type(math.comb(covered, covered // 2)))
        poly[:-1] = half[:, 0]
        poly[1:] += half[:, 1]
    return Enumerator(tuple(int(c) for c in poly[:, 0]))


# ---------------------------------------------------------------------------
# predicates

def is_stopping_set(h: BitMatrix, subset: int | Iterable[int]) -> bool:
    """True iff no row of H restricted to the subset has weight one."""
    m = _column_mask(h, subset)
    return all((row & m).bit_count() != 1 for row in h.rows)


def peel_closure(h: BitMatrix, subset: int | Iterable[int]) -> int:
    """Remove coordinates checked alone by some row, until fixpoint.

    The result is the unique maximal stopping set inside the subset;
    empty iff the subset contains no nonempty stopping set.  Removal
    order does not affect the fixpoint.  A one-mask batch_peel_residuals.
    """
    masks = np.array([_column_mask(h, subset)], dtype=np.uint64)
    return int(batch_peel_residuals(h, masks)[0])


def is_incorrigible(code: LinearCode, subset: int | Iterable[int] | np.ndarray) -> bool | np.ndarray:
    """True iff the subset contains the support of a nonzero codeword.

    Tested as linear dependence of the parity-check columns indexed by
    the subset.  Given a numpy array of masks instead of one subset,
    returns a bool array with one flag per mask, from one Gaussian
    elimination vectorised across the masks (any n <= 64).
    """
    if isinstance(subset, np.ndarray):
        return _incorrigible_masks(code.parity_basis, subset)
    cols = select_columns(code.parity_basis, subset)
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

    Each sweep removes, from every mask at once, the coordinates a row
    checks alone; the fixpoint does not depend on sweep order.
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
    stopping_distance: int  # n+1 when no nonempty stopping set exists


def _stopping_flags(h: BitMatrix) -> np.ndarray:
    """Packed flags of the subsets that no row of H meets exactly once.

    A row meets subset 64q+b in |q & row_high| + |b & row_low| places,
    so per word it clears one of three fixed 64-bit masks of low parts,
    picked by c = min(|q & row_high|, 2).
    """
    flags = _packed(h.n, fill=True)
    high = _mask_dtype(max(h.n - 6, 0))
    words = np.arange(flags.size, dtype=high)
    for row in h.rows:
        c = np.bitwise_count(words & high(row >> 6))
        flags &= _MISSES[row & 63][np.minimum(c, 2, out=c)]
    return flags


def _dead_end(stop_flags: np.ndarray, n: int) -> Enumerator:
    """D(x) from stopping flags: sets holding a nonempty stopping set.

    Overwrites the flags with their closure.
    """
    stop_flags[0] &= ~np.uint64(1)  # the empty set
    return _histogram(_upward_closure(stop_flags, range(n)), n)


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


def _support_flags(code: LinearCode) -> np.ndarray:
    """Packed flags of the nonzero-codeword supports.

    The codewords are set one block of codes._span_blocks at a time, so
    memory stays bounded for any k.
    """
    flags = _packed(code.n)
    for words in _span_blocks(code.generator_basis.rows):
        np.bitwise_or.at(flags, *_locate(words))
    flags[0] &= ~np.uint64(1)  # the zero codeword
    return flags


def _incorrigible_flags(code: LinearCode) -> np.ndarray:
    """Packed flags of the subsets that contain a nonzero-codeword support."""
    return _upward_closure(_support_flags(code), range(code.n))


def incorrigible_enumerator(code: LinearCode) -> Enumerator:
    """I(x): I_i = number of size-i sets containing a nonzero-codeword support."""
    return _histogram(_incorrigible_flags(code), code.n)


def stopping_distance(h: BitMatrix) -> int:
    """Smallest size of a nonempty stopping set; n+1 if none exists."""
    return _first_nonempty(stopping_set_enumerator(h))


def profile(h: BitMatrix) -> StoppingProfile:
    """S(x), D(x) and s for an explicit parity-check matrix, from one flag pass."""
    return _profile(_stopping_flags(h), h.n)


def _optimal_flags(code: LinearCode) -> np.ndarray:
    """Packed flags of the subsets that are stopping for the complete matrix.

    That holds iff m is the union of the codeword supports it contains:
    every coordinate j of m lies in a support s inside m.  Such an s
    agrees with m on j, so m holds one iff the closure of all supports
    over every coordinate but j flags m.  Neither the complete matrix
    nor a mask word per subset is ever formed.
    """
    flags = _packed(code.n, fill=True)
    _keep_covered(flags, _support_flags(code), range(code.n))
    return flags


def _keep_covered(flags: np.ndarray, words: np.ndarray, coords: range) -> None:
    """Clear the flag of each set holding a j in coords that words,
    closed over every coordinate but j, does not flag.

    words arrive closed over every coordinate outside coords.  Each half
    of coords is closed over the other half and recursed into, so the n
    leave-one-out closures take about n*log2(n) passes, with one copy of
    words live per level.
    """
    if len(coords) == 1:
        j = coords[0]
        if j < 6:
            flags &= words | ~_HAS[j]
        else:  # only the words whose index holds j
            flags.reshape(-1, 2, 1 << (j - 6))[:, 1] &= words.reshape(-1, 2, 1 << (j - 6))[:, 1]
        return
    first, second = coords[: len(coords) // 2], coords[len(coords) // 2 :]
    _keep_covered(flags, _upward_closure(words.copy(), second), first)
    _keep_covered(flags, _upward_closure(words, first), second)


def optimal_enumerators(code: LinearCode) -> StoppingProfile:
    """S*(x), D*(x), s*: enumerators of the complete parity-check matrix.

    S*(x) counts the flags of _optimal_flags; D*(x) is the upward
    closure of the nonempty S* sets, as for D(x).
    """
    return _profile(_optimal_flags(code), code.n)


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
    # column j of each basis as a word; equal generator columns mean
    # c_i = c_j for every codeword, whatever basis is chosen
    gen_cols = transpose(code.generator_basis).rows
    par_cols = transpose(code.parity_basis).rows
    zero_positions, full_positions = [], []
    groups: dict[int, list[int]] = {}
    for j, (g, p) in enumerate(zip(gen_cols, par_cols), start=1):
        if not g:
            zero_positions.append(j)
        elif not p:
            full_positions.append(j)  # the unit vector e_j is a codeword
        else:
            groups.setdefault(g, []).append(j)

    blocks = sorted(groups.values())
    if any(len(b) < 2 or not code.contains(mask_from_indices(b)) for b in blocks):
        return None
    if code.k != len(blocks) + len(full_positions):
        return None
    return Decomposition(
        tuple(tuple(b) for b in blocks),
        tuple(full_positions),
        tuple(zero_positions),
    )
