"""Stopping sets, dead-end sets, incorrigible sets and their enumerators.

Stopping and dead-end sets are properties of a parity-check matrix;
incorrigible sets are properties of the code alone.  All five
enumerators count sets over the 2**n erasure subsets with one kernel on
packed bits: word q of a flag array holds subsets 64q..64q+63, the low
six coordinates indexing the bit and the rest the word.  Only this
module knows that layout; other modules pass flag arrays back to its
functions (_count_flagged, _unpack, _histogram, _upward_closure) and never
index the words.  construct's search packs its own flags, over the
subsets of the dual words, with _pack_subsets.  _unpack's start rule (0,
or a multiple of both 64 and 2**n) is part of that interface: the search
reads the incorrigible flags through it one piece of at most 2**12
subsets at a time.
Flags are built a word at a time, closed upward over the subset lattice
(an OR-zeta transform) and counted by size.  D(x) is the closure of the
nonempty stopping sets, since a set's peel closure is the largest
stopping set inside it; I(x) is the closure of the nonzero codeword
supports.  For the complete matrix D*(x) = I(x): its nonempty stopping
sets are the nonempty unions of supports, and a set holds a nonempty
union of supports iff it holds a nonzero support.  So the S* kernel
yields the I flags too: its last leaf leaves the supports closed over
every coordinate but n-1, and one more pass closes them.  Every flag
array is allocated by _packed, behind the one enumeration guard of
codes._enumeration_refusal (n <= 28 by default, overridden by the
STOPSET_MAX_N env var); the flags then take 2**(n-3) bytes.  The flag
build, the closure and the histogram sweep the words in slabs of
_SLAB_WORDS, so their temporaries are slab-sized: only the closure
passes over coordinates whose word pairs span slabs run over the whole
array, and those work in place.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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
_UP_TO = _pack(np.bitwise_count(_LOW) <= np.arange(7)[:, None])  # [k]: the low parts of size at most k
_MEETS = np.bitwise_count(_LOW[:, None] & _LOW)  # [t, b]: |t & b|
# [t, c]: the low parts b with |t & b| + c != 1, for c = 0, 1 and c >= 2
_MISSES = np.stack([_pack(_MEETS != 1), _pack(_MEETS != 0), np.full(64, ~np.uint64(0))], axis=1)
_SLAB_WORDS = 1 << 14  # per slab of the kernel passes; a power of two, so slabs tile the words


def _packed(n: int, fill: bool = False) -> np.ndarray:
    """Flags of all 2**n subsets, all clear or all set, behind the guard.

    For n < 6 the one word is partial: no kernel pass sets bit 2**n or above.
    """
    if refusal := _enumeration_refusal("n", n):
        raise ValueError(refusal)
    return np.full(1 << max(n - 6, 0), (1 << (1 << min(n, 6))) - 1 if fill else 0, dtype=np.uint64)


def _locate(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each subset mask m lives in packed flags: word m >> 6, bit m & 63."""
    return masks >> 6, np.uint64(1) << (masks & 63)  # word indices keep the masks' width


def _count_flagged(masks: np.ndarray, n: int, *flag_arrays: np.ndarray) -> tuple[int, ...]:
    """How many of the unsigned subset masks each packed flag array flags.

    The masks may be of any unsigned width that holds n bits, such as
    the narrow words of the erasure draw; they are read as they are,
    with no widened copy made here.  Each mask is read once, whatever
    the number of flag arrays.  While the 2**n subsets are fewer than
    the masks, the masks are tallied per subset and each array's flags
    select from the tally, which costs less than locating every mask;
    otherwise each mask is located in the packed words.
    """
    if 1 << n < masks.size:
        # bincount reads unsigned words of up to 32 bits directly; every
        # mask is below 2**n < masks.size, so a uint64 mask's int64 view is exact
        tally = np.bincount(masks.view(np.int64) if masks.dtype == np.uint64 else masks, minlength=1 << n)
        return tuple(int(tally @ _unpack(flags, n)) for flags in flag_arrays)
    words, bits = _locate(masks)
    return tuple(int(np.count_nonzero(flags[words] & bits)) for flags in flag_arrays)


def _unpack(words: np.ndarray, n: int, start: int = 0) -> np.ndarray:
    """Packed flags -> one bool per subset mask start..start + 2**n - 1,
    for a start of 0 or a multiple of both 64 and 2**n."""
    words = words[start >> 6 :][: max(1 << n >> 6, 1)]
    bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), bitorder="little")
    return bits[: 1 << n].view(bool)


def _pack_subsets(bits: np.ndarray) -> np.ndarray:
    """One bool per subset mask, 2**n of them -> packed flags; the inverse of _unpack."""
    if bits.size % 64:
        bits = np.pad(bits, (0, -bits.size % 64))
    return _pack(bits.reshape(-1, 64))


def _pair_pass(ufunc: np.ufunc, target: np.ndarray, source: np.ndarray, j: int, half: int) -> None:
    """In place, apply ufunc to each word of target whose index holds
    j >= 6 and the word of source in the same place (half 1) or at its
    partner without j (half 0).

    Such words come in blocks of 2**(j-6), alternating with their
    partners.  A block shorter than a cache line (8 words) would make
    the ufunc's inner loop that short, so when there are more blocks
    than that the loop runs across the blocks instead.
    """
    block = 1 << (j - 6)
    out = target.reshape(-1, 2, block)[:, 1]
    operand = source.reshape(-1, 2, block)[:, half]
    if block < 8 < len(out):
        ufunc(out.T, operand.T, out=out.T, order="C")
    else:
        ufunc(out, operand, out=out)


def _upward_closure(words: np.ndarray, coords: Sequence[int]) -> np.ndarray:
    """In place, flag m + {j} wherever m is flagged, for each j in coords.

    Over range(n) this flags every superset of a flagged subset (an
    OR-zeta transform); the passes commute, so their order is free.
    Coordinate j < 6 lives inside the word: a shift by 2**j moves each
    subset onto the subset with j added.  Coordinate j >= 6 pairs whole
    words: those whose index holds j take the OR of their partner.
    Every coordinate whose pairs lie inside one slab of _SLAB_WORDS is
    swept slab by slab, all of them over one slab before the next, so
    the passes stay in cache; only the coordinates above run over the
    whole array.
    """
    size = min(words.size, _SLAB_WORDS)
    for start in range(0, words.size, size):
        slab = words[start : start + size]
        for j in coords:
            if j < 6:
                moved = slab << np.uint64(1 << j)
                moved &= _HAS[j]
                slab |= moved
            elif 1 << (j - 6) < size:
                _pair_pass(np.bitwise_or, slab, slab, j, 0)
    for j in coords:
        if j >= 6 and 1 << (j - 6) >= size:
            _pair_pass(np.bitwise_or, words, words, j, 0)
    return words


@functools.cache
def _by_popcount(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The indices 0..2**bits - 1 grouped by popcount, and where each group starts.

    A stable argsort of uint8 keys is a radix sort, so this costs about
    as much as one pass over the indices.
    """
    order = np.argsort(np.bitwise_count(np.arange(1 << bits, dtype=np.uint16)), kind="stable")
    return order, np.array([0, *itertools.accumulate(math.comb(bits, p) for p in range(bits))])


def _histogram(words: np.ndarray, n: int) -> Enumerator:
    """Number of flagged subsets of each size, in exact integers.

    The words are read in slabs of _SLAB_WORDS, each gathered in order
    of the popcount p of its in-slab word index.  For k from 6 down, the
    low parts of size at most k are counted per word and summed per p,
    then the class of size k is cleared from the gathered words in
    place; differences give the counts of size exactly k.  A slab whose
    own index has popcount s adds them at size k + p + s.  Only one
    slab of words and one slab of byte counts are formed.
    """
    low = min(n, 6)
    size = min(words.size, _SLAB_WORDS)
    order, starts = _by_popcount(size.bit_length() - 1)
    gathered = np.empty(size, np.uint64)
    counts = np.empty(size, np.uint8)
    grouped = np.empty((low + 1, starts.size), np.min_scalar_type(64 * size))  # [k, p]
    sums = np.zeros((n + 2 - starts.size, starts.size), np.int64)  # [k + s, p]
    for q, start in enumerate(range(0, words.size, size)):
        words[start : start + size].take(order, out=gathered)
        for k in range(low, -1, -1):
            np.add.reduceat(np.bitwise_count(gathered, out=counts), starts, dtype=grouped.dtype, out=grouped[k])
            if k:
                gathered &= _UP_TO[k - 1]
        grouped[1:] -= grouped[:-1]  # size at most k -> size k
        sums[q.bit_count() :][: low + 1] += grouped
    poly = [0] * (n + 1)
    for i, row in enumerate(sums.tolist()):
        for p, c in enumerate(row):
            poly[i + p] += c
    return Enumerator(tuple(poly))


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
    picked by c = min(|q & row_high|, 2): a clipped take does the min.
    The words are swept in slabs of _SLAB_WORDS, every row over one slab
    before the next, so the per-row temporaries stay slab-sized and in
    cache; one count buffer serves the whole call.
    """
    flags = _packed(h.n, fill=True)
    high = _mask_dtype(max(h.n - 6, 0))
    rows = [(high(row >> 6), _MISSES[row & 63]) for row in h.rows]
    c = np.empty(min(flags.size, _SLAB_WORDS), np.uint8)
    for start in range(0, flags.size, c.size):
        slab = flags[start : start + c.size]
        words = np.arange(start, start + c.size, dtype=high)
        for row_high, misses in rows:
            np.bitwise_count(words & row_high, out=c)
            slab &= misses.take(c, mode="clip")
    return flags


def _profile(stop_flags: np.ndarray, n: int) -> StoppingProfile:
    """S(x), D(x) and s from the stopping flags of a matrix.

    Overwrites the flags with the dead-end flags, the sets holding a
    nonempty stopping set: the empty set's flag is cleared and the rest
    closed upward.  monte_carlo reads its dead-end failures from the
    array afterwards.
    """
    s_poly = _histogram(stop_flags, n)
    stop_flags[0] &= ~np.uint64(1)  # the empty set
    d_poly = _histogram(_upward_closure(stop_flags, range(n)), n)
    return StoppingProfile(s_poly, d_poly, _first_nonempty(s_poly))


def stopping_set_enumerator(h: BitMatrix) -> Enumerator:
    """S(x): S_i = number of stopping sets of size i for H."""
    return _histogram(_stopping_flags(h), h.n)


def dead_end_enumerator(h: BitMatrix) -> Enumerator:
    """D(x): D_i = number of size-i sets whose peel closure is nonempty.

    The peel closure of a set is the largest stopping set inside it, so
    the dead-end sets are the upward closure of the nonempty stopping
    sets: one OR-zeta pass over the stopping flags, no peeling.  It is
    profile's D(x), at the cost of one more histogram, for S(x).
    """
    return profile(h).dead_end


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


def _optimal_flags(code: LinearCode) -> tuple[np.ndarray, np.ndarray]:
    """Packed flags of the subsets that are stopping for the complete
    matrix, and the codeword supports closed over every coordinate but
    the last, n-1.

    A set is stopping for the complete matrix iff it is the union of the
    codeword supports it contains: every coordinate j of m lies in a
    support s inside m.  Such an s agrees with m on j, so m holds one iff
    the closure of all supports over every coordinate but j flags m.
    _keep_covered leaves the supports at its last leaf's closure, which
    one more pass over n-1 turns into the incorrigible flags.  Neither
    the complete matrix nor a mask word per subset is ever formed.
    """
    flags = _packed(code.n, fill=True)
    supports = _support_flags(code)
    _keep_covered(flags, supports, range(code.n))
    return flags, supports


def _keep_covered(flags: np.ndarray, words: np.ndarray, coords: range) -> None:
    """Clear the flag of each set holding a j in coords that words,
    closed over every coordinate but j, does not flag.

    words arrive closed over every coordinate outside coords.  Each half
    of coords is closed over the other half and recursed into, so the n
    leave-one-out closures take about n*log2(n) passes, with one copy of
    words live per level.  The second half works on words in place, so
    words leave closed over every coordinate but coords[-1].
    """
    if len(coords) == 1:
        j = coords[0]
        if j < 6:
            flags &= words | ~_HAS[j]
        else:  # only the words whose index holds j
            _pair_pass(np.bitwise_and, flags, words, j, 1)
        return
    first, second = coords[: len(coords) // 2], coords[len(coords) // 2 :]
    _keep_covered(flags, _upward_closure(words.copy(), second), first)
    _keep_covered(flags, _upward_closure(words, first), second)


def optimal_enumerators(code: LinearCode) -> StoppingProfile:
    """S*(x), D*(x), s*: enumerators of the complete parity-check matrix.

    S*(x) counts the flags of _optimal_flags.  D*(x) = I(x): the
    dead-end sets are the sets holding a nonempty S* set, a nonempty
    union of supports, and a set holds one iff it holds a nonzero
    support.  So D*(x) is the histogram of the incorrigible flags, which
    the supports _optimal_flags returns become after one closure over
    the last coordinate; no closure of the S* flags is run.
    """
    n = code.n
    flags, supports = _optimal_flags(code)
    s_poly = _histogram(flags, n)
    del flags  # before the last closure and its histogram
    d_poly = _histogram(_upward_closure(supports, [n - 1]), n)
    return StoppingProfile(s_poly, d_poly, _first_nonempty(s_poly))


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

    # Every codeword is constant on a group and zero on the zero
    # positions, so the split holds iff each group's indicator is a
    # codeword.  That test also refuses a one-column group (its parity
    # column is nonzero, so e_j is no codeword), and once it passes the
    # block indicators and the full positions' e_j are disjoint
    # codewords spanning the code: k = len(blocks) + len(full_positions).
    blocks = sorted(groups.values())
    if not all(code.contains(mask_from_indices(b)) for b in blocks):
        return None
    return Decomposition(
        tuple(tuple(b) for b in blocks),
        tuple(full_positions),
        tuple(zero_positions),
    )
