"""Shared helpers: seeded random codes and brute-force oracles.

The oracles here deliberately avoid the library's vectorized paths:
stopping sets are tested row by row from the definition, dead-end sets
by scanning submasks for a nonempty stopping subset, incorrigible sets
by scanning codeword supports.  They are the independent reference the
fast implementations are checked against.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

import numpy as np
from numpy.random import Generator, Philox

from stopset.codes import Enumerator, LinearCode
from stopset.gf2 import BitMatrix, rank, row_space_iter
from stopset.stopsets import dead_end_enumerator, stopping_distance, stopping_set_enumerator


def random_parity_matrix(rng: random.Random, n: int, rows: int) -> BitMatrix:
    return BitMatrix(tuple(rng.randrange(0, 1 << n) for _ in range(rows)), n)


def random_code(rng: random.Random, n: int, redundancy: int) -> LinearCode:
    return LinearCode.from_parity_check(random_parity_matrix(rng, n, redundancy))


def random_code_where(rng: random.Random, n_choices, redundancy_choices, pred, max_tries=10000) -> LinearCode:
    """Rejection-sample a random code satisfying pred."""
    for _ in range(max_tries):
        n = rng.choice(n_choices)
        code = random_code(rng, n, rng.choice(redundancy_choices))
        if pred(code):
            return code
    raise RuntimeError("could not sample a code matching the predicate")


def random_dual_spanning_matrix(rng: random.Random, code: LinearCode, extra_rows: int) -> BitMatrix:
    """The parity basis plus distinct random nonzero dual words."""
    basis = code.parity_basis.rows
    pool = [w for w in row_space_iter(code.parity_basis) if w and w not in set(basis)]
    extras = rng.sample(pool, min(extra_rows, len(pool)))
    return BitMatrix(basis + tuple(extras), code.n)


def extended_hamming(r: int) -> LinearCode:
    """The [2^r, 2^r - r - 1, 4] extended Hamming code."""
    n = 1 << r
    rows = []
    for i in range(r):
        row = 0
        for j in range(1, n):
            if (j >> i) & 1:
                row |= 1 << (j - 1)
        rows.append(row)
    rows.append((1 << n) - 1)  # overall parity
    return LinearCode.from_parity_check(BitMatrix(tuple(rows), n))


# ---------------------------------------------------------------------------
# brute-force oracles

def oracle_is_stopping(h: BitMatrix, mask: int) -> bool:
    return all((row & mask).bit_count() != 1 for row in h.rows)


def oracle_stopping_enumerator(h: BitMatrix) -> Enumerator:
    counts = [0] * (h.n + 1)
    for mask in range(1 << h.n):
        if oracle_is_stopping(h, mask):
            counts[mask.bit_count()] += 1
    return Enumerator(tuple(counts))


def oracle_dead_end_enumerator(h: BitMatrix) -> Enumerator:
    """Dead-end = contains a nonempty stopping set, by submask scan."""
    stopping = [oracle_is_stopping(h, m) for m in range(1 << h.n)]
    counts = [0] * (h.n + 1)
    for mask in range(1, 1 << h.n):
        sub = mask
        dead = False
        while sub:
            if stopping[sub]:
                dead = True
                break
            sub = (sub - 1) & mask
        if dead:
            counts[mask.bit_count()] += 1
    return Enumerator(tuple(counts))


def oracle_incorrigible_enumerator(code: LinearCode) -> Enumerator:
    supports = [c for c in code.codewords() if c]
    counts = [0] * (code.n + 1)
    for mask in range(1 << code.n):
        if any(c & ~mask == 0 for c in supports):
            counts[mask.bit_count()] += 1
    return Enumerator(tuple(counts))


def oracle_weight_enumerator(code: LinearCode) -> Enumerator:
    counts = [0] * (code.n + 1)
    for c in code.codewords():
        counts[c.bit_count()] += 1
    return Enumerator(tuple(counts))


def oracle_minimum_distance(code: LinearCode):
    weights = [c.bit_count() for c in code.codewords() if c]
    return min(weights) if weights else math.inf


def oracle_passing_candidates(code: LinearCode, predicate: str, max_rows=None):
    """Every set of distinct nonzero dual words, by row count then
    lexicographically, whose matrix meets the predicate by its definition,
    whatever its rank."""
    duals = sorted(v for v in row_space_iter(code.parity_basis) if v)
    if predicate == "s=d":
        d = oracle_minimum_distance(code)
        target = code.n + 1 if d is math.inf else d

        def accept(h):
            return stopping_distance(h) == target

    elif predicate == "S=S*":
        complete = BitMatrix(tuple(row_space_iter(code.parity_basis)), code.n)
        target = oracle_stopping_enumerator(complete)

        def accept(h):
            return stopping_set_enumerator(h) == target

    else:  # "D=I"
        target = oracle_incorrigible_enumerator(code)

        def accept(h):
            return dead_end_enumerator(h) == target

    limit = len(duals) if max_rows is None else min(max_rows, len(duals))
    for r in range(limit + 1):
        for combo in combinations(duals, r):
            h = BitMatrix(combo, code.n)
            if accept(h):
                yield h


def oracle_minimal_matrix_search(code: LinearCode, predicate: str, max_rows=None):
    """First full-rank set of distinct nonzero dual words, by row count then
    lexicographically, whose matrix meets the predicate by its definition."""
    need = code.n - code.k
    return next((h for h in oracle_passing_candidates(code, predicate, max_rows) if rank(h) == need), None)


def oracle_erasure_masks(seed: int, start: int, stop: int, n: int, epsilon: float):
    """Erasure masks for trials [start, stop) from the stream's definition:
    block b of 4096 trials draws uniform doubles from Philox counter
    (0, 0, b, 0), one row per trial, and coordinate j is erased iff its
    double is below epsilon."""
    out = np.empty(stop - start, dtype=np.uint64)
    filled = 0
    weights = np.uint64(1) << np.arange(n, dtype=np.uint64)
    for b in range(start // 4096, (stop - 1) // 4096 + 1):
        u = Generator(Philox(key=seed, counter=[0, 0, b, 0])).random((4096, n))
        lo = max(start, b * 4096) - b * 4096
        hi = min(stop, (b + 1) * 4096) - b * 4096
        out[filled : filled + hi - lo] = ((u[lo:hi] < epsilon) * weights).sum(axis=1, dtype=np.uint64)
        filled += hi - lo
    return out


def contained_supports(code: LinearCode, mask: int) -> list[int]:
    return [c for c in code.codewords() if c and c & ~mask == 0]


def poly_multiply(a: Enumerator, b: Enumerator) -> Enumerator:
    out = [0] * (a.n + b.n + 1)
    for i, ca in enumerate(a.coefficients):
        if ca == 0:
            continue
        for j, cb in enumerate(b.coefficients):
            out[i + j] += ca * cb
    return Enumerator(tuple(out))


def all_masks_of_size(n: int, size: int):
    for combo in combinations(range(n), size):
        mask = 0
        for j in combo:
            mask |= 1 << j
        yield mask
