"""Erasure decoding: iterative peeling over a parity-check matrix,
and optimal (maximum-likelihood) decoding over the code.

Received words are strings over {0,1,?} with ? marking an erasure; the
channel never flips bits, so any parity contradiction on fully known
positions is a channel-model violation and raises rather than being
ignored.  A received word is two GF(2) words, its known values and its
erasures, and its string is parsed and written with gf2's 0/1 vector
codec, one 0/1 string per word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .codes import LinearCode
from .gf2 import (BitMatrix, as_mask, indices_from_mask, rank, rref, select_columns, solve, syndrome,
                  vector_from_string, vector_to_string)
from .stopsets import is_incorrigible, peel_closure

DECODED = "decoded"
STALLED = "stalled"
AMBIGUOUS = "ambiguous"

_NOT_RECEIVED = str.maketrans("", "", "01?")  # str.translate with it keeps the characters other than 0, 1 and ?
_ERASED = str.maketrans("1?", "01")  # a received word -> the 0/1 string of its erasures


class ChannelModelViolation(Exception):
    """The received word is inconsistent with every codeword."""


@dataclass(frozen=True)
class ReceivedWord:
    """Channel output: known values plus an erasure mask."""

    n: int
    values: int
    erasures: int

    def __post_init__(self) -> None:
        if self.values >> self.n or self.erasures >> self.n:
            raise ValueError(f"bits beyond word length {self.n}")
        if self.values & self.erasures:
            raise ValueError("a position cannot be both known-one and erased")

    @classmethod
    def from_string(cls, s: str) -> "ReceivedWord":
        if bad := s.translate(_NOT_RECEIVED):
            raise ValueError(f"invalid received-word character {bad[0]!r}")
        return cls(len(s), vector_from_string(s.replace("?", "0")), vector_from_string(s.translate(_ERASED)))

    @classmethod
    def from_codeword(cls, word: int, n: int, erasures: int | Iterable[int]) -> "ReceivedWord":
        mask = as_mask(erasures)
        return cls(n, word & ~mask, mask)

    def __str__(self) -> str:
        # '?' sorts after '0' and '1', so max puts it at every erased position
        erased = vector_to_string(self.erasures, self.n).replace("1", "?")
        return "".join(map(max, vector_to_string(self.values, self.n), erased))


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of a decode call.

    kind is one of DECODED, STALLED, AMBIGUOUS.  For DECODED the word is
    a full codeword; for STALLED the unresolved positions stay erased and
    residual is the nonempty stopping set the peeler got stuck on; for
    AMBIGUOUS (optimal decoder only) the word is returned unchanged.
    recovered counts the erased positions that were filled in.
    """

    kind: str
    word: ReceivedWord
    residual: int
    recovered: int

    @property
    def residual_set(self) -> tuple[int, ...]:
        return indices_from_mask(self.residual)


def iterative_decode(h: BitMatrix, received: ReceivedWord) -> DecodeOutcome:
    """Peeling decoder: solve any check with exactly one erased position.

    Sweeps the rows in index order until a sweep changes nothing; the
    final erasure set is the peel closure of the initial one regardless
    of schedule.  Parity is checked once, after peeling: values change
    only at the position being filled, so a fully known row keeps its
    parity from then on, and one pass over the rows fully known at the
    end finds every contradiction.
    """
    if received.n != h.n:
        raise ValueError("received word length does not match matrix")
    values = received.values
    erased = received.erasures
    progress = True
    while progress:
        progress = False
        for row in h.rows:
            t = row & erased
            if t.bit_count() == 1:
                if (row & values).bit_count() % 2:
                    values |= t
                erased ^= t
                progress = True
    if any(not row & erased and (row & values).bit_count() % 2 for row in h.rows):
        raise ChannelModelViolation("parity violated on fully known positions")
    word = ReceivedWord(received.n, values, erased)
    recovered = (received.erasures ^ erased).bit_count()
    return DecodeOutcome(STALLED if erased else DECODED, word, erased, recovered)


def optimal_decode(code: LinearCode, received: ReceivedWord) -> DecodeOutcome:
    """Exhaustive-equivalent decoder: unique completion or ambiguity.

    Decodes iff the parity-check columns indexed by the erasure set are
    linearly independent, that is iff their rank equals their number;
    otherwise the erasure set is incorrigible and the result AMBIGUOUS.
    """
    if received.n != code.n:
        raise ValueError("received word length does not match code")
    h = code.parity_basis
    erased_cols = select_columns(h, received.erasures)
    particular = solve(erased_cols, syndrome(h, received.values))
    if particular is None:
        raise ChannelModelViolation("known positions match no codeword")
    if rank(erased_cols) < erased_cols.n:
        return DecodeOutcome(AMBIGUOUS, received, received.erasures, 0)
    values = received.values
    for pos, j in enumerate(indices_from_mask(received.erasures)):
        if (particular >> pos) & 1:
            values |= 1 << (j - 1)
    return DecodeOutcome(
        DECODED, ReceivedWord(received.n, values, 0), 0, received.erasures.bit_count()
    )


class ErasureClass(NamedTuple):
    incorrigible: bool
    stopping: bool
    dead_end: bool


def classify_erasure_set(
    code: LinearCode, h: BitMatrix, subset: int | Iterable[int]
) -> ErasureClass:
    """Label one erasure set: optimal failure, stopping, iterative failure.

    All three labels come from one peel closure, the residual: the set
    is stopping iff it is its own closure, a dead end iff the closure is
    nonempty, and incorrigible iff the closure is, since every codeword
    support is a stopping set of every parity-check matrix of the code.
    """
    if not is_parity_check_of(h, code):
        raise ValueError("matrix is not a parity-check matrix of the code")
    m = as_mask(subset)
    residual = peel_closure(h, m)
    return ErasureClass(is_incorrigible(code, residual), residual == m, residual != 0)


def is_parity_check_of(h: BitMatrix, code: LinearCode) -> bool:
    """True iff the rows of H span exactly the dual code.

    The parity basis is the dual code's canonical reduced echelon form,
    and BitMatrix equality compares lengths too.
    """
    return rref(h)[0] == code.parity_basis
