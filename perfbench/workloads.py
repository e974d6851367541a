"""Seeded inputs for the four benchmark workloads.

Each workload is a fixed list of CLI operations.  The seed picks the
random codes and the simulation seeds; every code or matrix goes to a
matrix-format text file before timing starts, so the CLI receives only
file paths and catalog names.  ``small=True`` shrinks every input for
the smoke test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from stopset.codes import LinearCode
from stopset.gf2 import BitMatrix, format_matrix, rank, row_space_iter

CATALOG_MATRICES = ("H_4", "H_5", "H_8", "H_14")


@dataclass(frozen=True)
class Op:
    """One CLI call: its arguments, its parameters and the work it does."""

    label: str
    argv: tuple[str, ...]
    params: dict = field(hash=False)
    work: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str
    build: Callable[[random.Random, Path, bool], list[Op]]


def random_code(rng: random.Random, n: int, redundancy: int) -> LinearCode:
    """A random [n, n - redundancy] code: rows drawn until they have full rank."""
    while True:
        h = BitMatrix(tuple(rng.getrandbits(n) for _ in range(redundancy)), n)
        if rank(h) == redundancy:
            return LinearCode.from_parity_check(h)


def with_extra_rows(rng: random.Random, code: LinearCode, extra: int) -> BitMatrix:
    """The parity basis plus ``extra`` distinct nonzero dual words outside it."""
    basis = code.parity_basis.rows
    pool = [w for w in row_space_iter(code.parity_basis) if w and w not in set(basis)]
    return BitMatrix(basis + tuple(rng.sample(pool, extra)), code.n)


def shortened_hamming(rng: random.Random, n: int) -> BitMatrix:
    """A 4 x n parity-check matrix whose columns are n distinct nonzero 4-bit words.

    The code has minimum distance 3 and at most 15 nonzero dual words,
    which keeps it inside the exhaustive search guard.  The columns are
    in ascending order, so the seed picks only which words are left out;
    a random column order would change how far the lexicographic search
    runs, and so the op's cost, from seed to seed.
    """
    cols = sorted(rng.sample(range(1, 16), n))
    return BitMatrix(tuple(sum(1 << j for j, c in enumerate(cols) if c >> i & 1) for i in range(4)), n)


def _write(path: Path, h: BitMatrix) -> str:
    path.write_text(format_matrix(h))
    return str(path)


def _enumerate(rng: random.Random, out: Path, small: bool) -> list[Op]:
    n, redundancies = (10, (4,)) if small else (18, (8, 9, 10))
    ops = []
    for r in redundancies:
        code = random_code(rng, n, r)
        h = with_extra_rows(rng, code, 4)
        c_file = _write(out / f"enumerate-r{r}-code.txt", code.parity_basis)
        h_file = _write(out / f"enumerate-r{r}-H.txt", h)
        ops.append(Op(
            f"n{n}-r{r}",
            ("enumerate", "--matrix", h_file, "--code", c_file, "--optimal"),
            {"n": n, "k": code.k, "rows": h.r},
            1 << n,
        ))
    return ops


def _simulate(code: str, matrix: str, n: int, k: int, rows: int, eps: float, trials: int, seed: int) -> Op:
    return Op(
        f"{Path(matrix).stem}-eps{eps}",
        ("simulate", "--code", code, "--matrix", matrix, "--epsilon", str(eps),
         "--trials", str(trials), "--seed", str(seed)),
        {"n": n, "k": k, "rows": rows, "epsilon": eps, "trials": trials, "seed": seed},
        trials,
    )


def _simulate_small(rng: random.Random, out: Path, small: bool) -> list[Op]:
    trials = 2000 if small else 1_000_000
    rows = {"H_4": 4, "H_5": 5, "H_8": 8, "H_14": 14}
    return [
        _simulate("rm_8_4_4", m, 8, 4, rows[m], eps, trials, rng.getrandbits(32))
        for m in CATALOG_MATRICES
        for eps in (0.1, 0.3, 0.5)
    ]


def _simulate_large(rng: random.Random, out: Path, small: bool) -> list[Op]:
    n, trials = (10, 2000) if small else (18, 100_000)
    code = random_code(rng, n, n // 2)
    h = with_extra_rows(rng, code, 4)
    c_file = _write(out / "simulate-large-code.txt", code.parity_basis)
    h_file = _write(out / "simulate-large-H.txt", h)
    return [
        _simulate(c_file, h_file, n, code.k, h.r, eps, trials, rng.getrandbits(32))
        for eps in (0.2, 0.3)
    ]


def _search(rng: random.Random, out: Path, small: bool) -> list[Op]:
    codes = [("rm_8_4_4", 8, 4)]
    for n in () if small else (12,):
        codes.append((_write(out / f"search-hamming-{n}.txt", shortened_hamming(rng, n)), n, n - 4))
    return [
        Op(
            f"{Path(spec).stem}-{pred}",
            ("construct", "search", "--code", spec, "--predicate", pred),
            {"n": n, "k": k, "predicate": pred},
            1,
        )
        for spec, n, k in codes
        for pred in ("s=d", "S=S*", "D=I")
    ]


# Each workload's first op is its cheapest and doubles as the warm-up op.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "enumerate",
            "2^n subset passes in stopsets (S, D, I and S* with its 2^(n-k) dual scan) "
            "on seeded [18,k] codes with n-k in 8..10, so a change to D(x) and one to S* both show",
            "subsets",
            _enumerate,
        ),
        Workload(
            "simulate-small",
            "rm_8_4_4 has only 256 erasure masks, so RNG and batched peeling dominate "
            "and the incorrigibility cache absorbs the per-mask test",
            "trials",
            _simulate_small,
        ),
        Workload(
            "simulate-large",
            "seeded [18,9] code: a third of the trials carry a mask not seen before, so the "
            "per-mask is_incorrigible test (gf2 select_columns and rank) dominates",
            "trials",
            _simulate_large,
        ),
        Workload(
            "search",
            "only workload running construct, on rm_8_4_4 and a seeded [12,8] code: pure-Python "
            "big-int bitsets over 2^n subsets plus one gf2 rank per candidate, no numpy",
            "searches",
            _search,
        ),
    )
}


def build(name: str, seed: int, out: Path, small: bool = False) -> list[Op]:
    """The workload's ops for this seed; writes their input files under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name].build(random.Random(f"{name}:{seed}"), out, small)
