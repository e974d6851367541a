"""Erasure decoding: iterative peeling over a parity-check matrix,
and optimal (maximum-likelihood) decoding over the code.

Received words are strings over {0,1,?} with ? marking an erasure; the
channel never flips bits, so any parity contradiction on fully known
positions is a channel-model violation and raises rather than being
ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .codes import LinearCode
from .gf2 import BitMatrix, as_mask, indices_from_mask, rank, rref, select_columns, solve
from .stopsets import is_incorrigible, is_stopping_set, peel_closure

DECODED = "decoded"
STALLED = "stalled"
AMBIGUOUS = "ambiguous"


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
        values = 0
        erasures = 0
        for i, ch in enumerate(s):
            if ch == "1":
                values |= 1 << i
            elif ch == "?":
                erasures |= 1 << i
            elif ch != "0":
                raise ValueError(f"invalid received-word character {ch!r}")
        return cls(len(s), values, erasures)

    @classmethod
    def from_codeword(cls, word: int, n: int, erasures: int | Iterable[int]) -> "ReceivedWord":
        mask = as_mask(erasures)
        return cls(n, word & ~mask, mask)

    def __str__(self) -> str:
        out = []
        for i in range(self.n):
            bit = 1 << i
            out.append("?" if self.erasures & bit else ("1" if self.values & bit else "0"))
        return "".join(out)


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
    of schedule.
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
            if t == 0:
                if (row & values).bit_count() % 2:
                    raise ChannelModelViolation("parity violated on fully known positions")
            elif t.bit_count() == 1:
                if (row & values).bit_count() % 2:
                    values |= t
                erased ^= t
                progress = True
    word = ReceivedWord(received.n, values, erased)
    recovered = (received.erasures ^ erased).bit_count()
    if erased == 0:
        return DecodeOutcome(DECODED, word, 0, recovered)
    return DecodeOutcome(STALLED, word, erased, recovered)


def optimal_decode(code: LinearCode, received: ReceivedWord) -> DecodeOutcome:
    """Exhaustive-equivalent decoder: unique completion or ambiguity.

    Decodes iff the parity-check columns indexed by the erasure set are
    linearly independent, that is iff their rank equals their number;
    otherwise the erasure set is incorrigible and the result AMBIGUOUS.
    """
    if received.n != code.n:
        raise ValueError("received word length does not match code")
    h = code.parity_basis
    syndrome = 0
    for i, row in enumerate(h.rows):
        if (row & received.values).bit_count() % 2:
            syndrome |= 1 << i
    erased_cols = select_columns(h, received.erasures)
    particular = solve(erased_cols, syndrome)
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
    """Label one erasure set: optimal failure, stopping, iterative failure."""
    if not is_parity_check_of(h, code):
        raise ValueError("matrix is not a parity-check matrix of the code")
    m = as_mask(subset)
    return ErasureClass(
        incorrigible=is_incorrigible(code, m),
        stopping=is_stopping_set(h, m),
        dead_end=peel_closure(h, m) != 0,
    )


def is_parity_check_of(h: BitMatrix, code: LinearCode) -> bool:
    """True iff the rows of H span exactly the dual code.

    The parity basis is the dual code's canonical reduced echelon form,
    and BitMatrix equality compares lengths too.
    """
    return rref(h)[0] == code.parity_basis
