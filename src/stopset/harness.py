"""Performance analysis: exact failure probabilities, Monte Carlo
simulation of the binary erasure channel, and the benchmark-table check.

Simulation randomness is counter-based (Philox-4x64-10 keyed by the
seed): trials are grouped in fixed blocks of 4096 and block b draws from
counter (0, 0, b, 0), with trial t consuming rows t mod 4096 of its
block.  Every trial's erasure pattern is therefore a pure function of
(seed, trial index), independent of how the work is partitioned.  The
erasures are read by thresholding the generator's raw 64-bit words,
which selects exactly the coordinates whose uniform double falls below
epsilon.  The draw is one thread's work; monte_carlo splits a run's
blocks into ``_WORKERS`` contiguous shares, one per CPU in the process's
affinity mask, and each share draws and counts its own trials: the
calling thread takes the first and a thread pool started for the call
runs the others.  The stream fixes every bit, so the worker count
changes nothing but the wall time.

The peeling decoder fails on an erasure set exactly when it is a
dead-end set, the optimal decoder exactly when it is incorrigible.
Under the enumeration guard the simulation therefore builds the
packed D and I flags once (they also give the analytic rates) and reads
each piece's two failure counts from them, reading each mask once.  Above
the guard it peels each piece's distinct masks and eliminates the
residuals instead; a worker classifies the pieces it drew itself.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .codes import Enumerator, LinearCode, _enumeration_refusal, catalog, rm_8_4_4
from .decoder import is_parity_check_of
from .gf2 import BitMatrix
from .stopsets import (
    _count_flagged,
    _histogram,
    _incorrigible_flags,
    _profile,
    _stopping_flags,
    batch_peel_residuals,
    incorrigible_enumerator,
    is_incorrigible,
    optimal_enumerators,
    profile,
)

_TRIAL_BLOCK = 4096  # part of the stream definition; do not change casually
_DRAW_ROWS = _TRIAL_BLOCK // 2  # rows of raw words drawn at a time; bounds each worker's buffer
_TRIAL_CHUNK = 1 << 16  # trials in flight at a time over all workers; results do not depend on it
# threads drawing and counting a run's trials; results do not depend on it
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


@dataclass(frozen=True)
class ChannelConfig:
    """Binary erasure channel simulation parameters.

    trials and seed are stored as the Python ints operator.index gives,
    so a float is refused rather than truncated, and a numpy integer is
    stored as an int that the JSON report can hold.
    """

    epsilon: float
    trials: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("trials", "seed"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0,1), got {self.epsilon}")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not 0 <= self.seed < 1 << 128:
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed}")


def analytic_pud(e: Enumerator, epsilon: float) -> float:
    """Exact failure probability sum_i E_i eps^i (1-eps)^(n-i), n = e.n.

    Works for any set-size enumerator: the incorrigible enumerator gives
    the optimal decoder's failure probability, a dead-end enumerator the
    iterative decoder's.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
    return float(sum(c * epsilon**i * (1.0 - epsilon) ** (e.n - i) for i, c in enumerate(e.coefficients)))


@dataclass(frozen=True)
class PerformanceReport:
    """Analytic and empirical failure rates for one (code, matrix, channel)."""

    n: int
    epsilon: float
    trials: int
    seed: int
    analytic_opt: Optional[float]
    analytic_it: Optional[float]
    empirical_opt: float
    empirical_it: float
    ci99_opt: float
    ci99_it: float
    opt_failures: int
    it_failures: int
    it_only_failures: int
    dominant_opt: Optional[float]  # A_d eps^d
    dominant_it: Optional[float]  # S_s eps^s
    notes: tuple[tuple[str, str], ...] = field(default=())

    def to_json_obj(self) -> dict:
        obj = {
            "n": self.n,
            "epsilon": self.epsilon,
            "trials": self.trials,
            "seed": self.seed,
            "analytic": {"optimal": self.analytic_opt, "iterative": self.analytic_it},
            "empirical": {
                "optimal": {"rate": self.empirical_opt, "ci99_halfwidth": self.ci99_opt},
                "iterative": {"rate": self.empirical_it, "ci99_halfwidth": self.ci99_it},
            },
            "failures": {
                "optimal": self.opt_failures,
                "iterative": self.it_failures,
                "iterative_only": self.it_only_failures,
            },
            "dominant_terms": {"optimal": self.dominant_opt, "iterative": self.dominant_it},
        }
        if self.notes:
            obj["notes"] = dict(self.notes)
        return obj


def _erasure_masks(seed: int, start: int, stop: int, n: int, epsilon: float) -> np.ndarray:
    """Erasure masks for trials [start, stop), per the pinned stream.

    Coordinate j of a trial is erased iff the uniform double u drawn for
    it is below epsilon.  The generator forms u = (w >> 11) * 2**-53 from
    a raw word w, so u < epsilon iff the integer w >> 11 is below the
    real epsilon * 2**53 (exact: a power-of-two scaling), iff it is below
    T = ceil(epsilon * 2**53), iff w < T << 11, the low 11 bits of w
    never reaching the next multiple of 2**11.  For epsilon < 1,
    T <= 2**53 - 1, so the threshold fits in 64 bits.  Erased coordinate
    j sets bit j of the mask.

    Each row of erasures is padded with zeros to the narrowest of 8, 16,
    32 and 64 bits that holds n, so one flat little-endian packbits of the
    rows reads back as one unsigned word per trial; the masks come back
    in that narrow dtype.

    Block b is a pure function of (seed, b): its words are the stream of
    the generator keyed by the seed from counter (0, 0, b, 0).  The call
    builds one generator and resets its counter there for each block of
    the range, so any thread can draw any range.  A block is drawn
    _DRAW_ROWS rows at a time; each draw is a whole number of 4-word
    Philox outputs, so the next draw continues the counter exactly, and
    the last block's draws stop at the one holding trial stop - 1.  The
    masks go to one buffer covering the range's whole blocks: every draw
    is thresholded and packed whole into its own rows, and the call
    returns the rows of [start, stop).  A range that starts inside a
    block draws that block from its first row, so callers that cut a
    run at block boundaries draw every row once.
    """
    threshold = np.uint64(math.ceil(epsilon * 2.0**53) << 11)
    width = max(8, 1 << (n - 1).bit_length())
    blocks = range(start // _TRIAL_BLOCK, (stop - 1) // _TRIAL_BLOCK + 1)
    base = blocks.start * _TRIAL_BLOCK
    out = np.empty(len(blocks) * _TRIAL_BLOCK, dtype=f"<u{width // 8}")
    gen = np.random.Philox(key=seed)  # looked up here: numpy.random loads on first use
    state = gen.state
    erased = np.zeros((_DRAW_ROWS, width), dtype=bool)
    for b in blocks:
        state["state"]["counter"][:] = (0, 0, b, 0)
        gen.state = state
        first = b * _TRIAL_BLOCK
        for row in range(first, min(first + _TRIAL_BLOCK, stop), _DRAW_ROWS):
            np.less(gen.random_raw((_DRAW_ROWS, n)), threshold, out=erased[:, :n])
            packed = np.packbits(erased.reshape(-1), bitorder="little")
            out[row - base : row - base + _DRAW_ROWS] = packed.view(out.dtype)
    return out[start - base : stop - base]


def monte_carlo(code: LinearCode, h: BitMatrix, cfg: ChannelConfig) -> PerformanceReport:
    """Simulate both decoders on the erasure channel.

    Transmits the zero codeword: by linearity the failure events depend
    only on the erasure set, never on the transmitted word.  Iterative
    failure means the erasure set is a dead-end set (its peeling fixpoint
    is nonempty); optimal failure means it is incorrigible.  Under the
    enumeration guard both are counted per piece of trials from the
    packed D and I flags, which also give the analytic rates.  Above it
    each piece is classified on its distinct masks only: a batched peel,
    then a batched XOR-basis rank test of the distinct nonempty
    residuals of at most n - k elements.  A mask holds a codeword
    support iff its residual does, since every support is a stopping
    set; a larger residual always holds one.  Trials come from the
    pinned stream of _erasure_masks either way, so the counts do not
    depend on the piece size or on the worker count.

    The run's 4096-trial blocks are cut into W = min(_WORKERS, blocks)
    contiguous shares of nearly equal size.  Each share draws and
    classifies its trials in pieces of _TRIAL_CHUNK / W trials rounded
    down to whole blocks (at least one): the pieces in flight hold about
    _TRIAL_CHUNK trials whatever W, which bounds the memory, and no
    block is drawn twice.  The calling thread runs the first share and
    one thread pool started for the call runs the others.  Numpy
    releases the GIL while it draws, compares and packs, so the shares
    run in parallel.  An error in any share is raised here only after
    every share has stopped.

    Every incorrigible set is a dead-end set: a nonzero codeword's
    support meets each row of any parity-check matrix of the code an
    even number of times, so it is a nonempty stopping set.  The optimal
    failures are therefore a subset of the iterative ones, and the
    iterative-only count is their difference.

    Works for any n <= 64; above the guard in n the analytic fields and
    the iterative dominant term are None, with the reason in ``notes``.
    The optimal dominant term A_d eps^d needs only the 2**k codewords,
    so it stays numeric while k is under the same guard; since k <= n,
    its note appears only above the guard in n.
    """
    if not is_parity_check_of(h, code):
        raise ValueError("matrix is not a parity-check matrix of the code")
    n = code.n

    analytic_opt = analytic_it = dominant_opt = dominant_it = None
    notes: tuple[tuple[str, str], ...] = ()
    refusal = _enumeration_refusal("n", n)
    k_refusal = _enumeration_refusal("k", code.k)
    if k_refusal is None:
        d = code.minimum_distance
        dominant_opt = 0.0 if code.k == 0 else code.weight_enumerator[int(d)] * cfg.epsilon ** int(d)
    if refusal is None:
        opt_flags = _incorrigible_flags(code)
        analytic_opt = analytic_pud(_histogram(opt_flags, n), cfg.epsilon)
        it_flags = _stopping_flags(h)
        h_profile = _profile(it_flags, n)  # closes it_flags into the dead-end flags
        analytic_it = analytic_pud(h_profile.dead_end, cfg.epsilon)
        s = h_profile.stopping_distance
        dominant_it = 0.0 if s > n else h_profile.stopping[s] * cfg.epsilon**s

        def classify(masks: np.ndarray) -> tuple[int, int]:
            return _count_flagged(masks, n, it_flags, opt_flags)

    else:
        dominant_note = f"omitted: {refusal}; {k_refusal}" if k_refusal else f"iterative omitted: {refusal}"
        notes = (("analytic", f"omitted: {refusal}"), ("dominant_terms", dominant_note))

        def classify(masks: np.ndarray) -> tuple[int, int]:
            uniq, counts = np.unique(masks, return_counts=True)
            residuals = batch_peel_residuals(h, uniq)
            dead = residuals != 0
            # the residual holds every codeword support the mask holds;
            # past n - k elements its parity-check columns are dependent
            incorrigible = np.bitwise_count(residuals) > n - code.k
            untested = dead & ~incorrigible
            if untested.any():
                distinct, inverse = np.unique(residuals[untested], return_inverse=True)
                incorrigible[untested] = is_incorrigible(code, distinct)[inverse]
            return int(counts[dead].sum()), int(counts[incorrigible].sum())

    blocks = -(-cfg.trials // _TRIAL_BLOCK)
    workers = min(_WORKERS, blocks)
    edges = [min(blocks * w // workers * _TRIAL_BLOCK, cfg.trials) for w in range(workers + 1)]
    step = max(1, _TRIAL_CHUNK // (workers * _TRIAL_BLOCK)) * _TRIAL_BLOCK

    def count(first: int, last: int) -> tuple[int, int]:
        it = opt = 0
        for start in range(first, last, step):
            it_fail, opt_fail = classify(_erasure_masks(cfg.seed, start, min(start + step, last), n, cfg.epsilon))
            it += it_fail
            opt += opt_fail
        return it, opt

    # imported here: concurrent.futures pulls in logging, which the commands
    # that draw no erasures (enumerate, search, verify-table1, ...) never need
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max(1, workers - 1)) as pool:
        shares = pool.map(count, edges[1:-1], edges[2:])
        totals = [count(edges[0], edges[1]), *shares]  # reading the shares raises a worker's error
    it_failures = sum(it for it, _ in totals)
    opt_failures = sum(opt for _, opt in totals)

    def halfwidth(fails: int) -> float:
        p = fails / cfg.trials
        return _Z99 * (p * (1.0 - p) / cfg.trials) ** 0.5

    return PerformanceReport(
        n=n,
        epsilon=cfg.epsilon,
        trials=cfg.trials,
        seed=cfg.seed,
        analytic_opt=analytic_opt,
        analytic_it=analytic_it,
        empirical_opt=opt_failures / cfg.trials,
        empirical_it=it_failures / cfg.trials,
        ci99_opt=halfwidth(opt_failures),
        ci99_it=halfwidth(it_failures),
        opt_failures=opt_failures,
        it_failures=it_failures,
        it_only_failures=it_failures - opt_failures,
        dominant_opt=dominant_opt,
        dominant_it=dominant_it,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# benchmark table

# Published reference enumerators for the [8,4,4] Reed-Muller code and
# its standard parity-check matrices; exact integer coefficients.
_TABLE1_A = (1, 0, 0, 0, 14, 0, 0, 0, 1)
_TABLE1_I = (0, 0, 0, 0, 14, 56, 28, 8, 1)
_TABLE1_SD = {
    "H_4": ((1, 0, 0, 2, 24, 40, 28, 8, 1), (0, 0, 0, 2, 32, 56, 28, 8, 1)),
    "H_5": ((1, 0, 0, 0, 18, 36, 28, 8, 1), (0, 0, 0, 0, 18, 56, 28, 8, 1)),
    "H_8": ((1, 0, 0, 0, 14, 24, 28, 8, 1), (0, 0, 0, 0, 14, 56, 28, 8, 1)),
    "H_14": ((1, 0, 0, 0, 14, 0, 28, 8, 1), (0, 0, 0, 0, 14, 56, 28, 8, 1)),
    "H*": ((1, 0, 0, 0, 14, 0, 28, 8, 1), (0, 0, 0, 0, 14, 56, 28, 8, 1)),
}


@dataclass(frozen=True)
class Table1Entry:
    label: str
    expected: Enumerator
    computed: Enumerator

    @property
    def match(self) -> bool:
        return self.expected == self.computed

    def to_json_obj(self) -> dict:
        return {
            "label": self.label,
            "expected": self.expected.poly_str(),
            "computed": self.computed.poly_str(),
            "match": self.match,
        }


@dataclass(frozen=True)
class Table1Report:
    entries: tuple[Table1Entry, ...]
    flags: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(e.match for e in self.entries)

    def to_json_obj(self) -> dict:
        return {
            "ok": self.ok,
            "entries": [e.to_json_obj() for e in self.entries],
            "flags": dict(self.flags),
        }

    def render_pretty(self) -> str:
        width = max(len(e.label) for e in self.entries) + 2
        lines = []
        for e in self.entries:
            status = "ok " if e.match else "MISMATCH"
            lines.append(f"{e.label:<{width}} {status:<9} {e.computed.poly_str()}")
            if not e.match:
                lines.append(f"{'':<{width}} expected  {e.expected.poly_str()}")
        for name, value in self.flags:
            lines.append(f"flag: {name} = {value}")
        return "\n".join(lines)


def table1_report() -> Table1Report:
    """Recompute every enumerator in the benchmark table and diff it
    against the published values."""
    rm = rm_8_4_4()
    i_poly = incorrigible_enumerator(rm)
    entries = [
        Table1Entry("A(x)", Enumerator(_TABLE1_A), rm.weight_enumerator),
        Table1Entry("I(x)", Enumerator(_TABLE1_I), i_poly),
    ]
    profiles = {name: profile(catalog(name)) for name in ("H_4", "H_5", "H_8", "H_14")}
    profiles["H*"] = optimal_enumerators(rm)
    for name, (exp_s, exp_d) in _TABLE1_SD.items():
        entries.append(Table1Entry(f"S(x) {name}", Enumerator(exp_s), profiles[name].stopping))
        entries.append(Table1Entry(f"D(x) {name}", Enumerator(exp_d), profiles[name].dead_end))

    flags = (
        ("h14_stopping_enumerator_is_optimal", profiles["H_14"].stopping == profiles["H*"].stopping),
        ("h8_dead_end_is_incorrigible", profiles["H_8"].dead_end == i_poly),
        ("h14_dead_end_is_incorrigible", profiles["H_14"].dead_end == i_poly),
        ("star_dead_end_is_incorrigible", profiles["H*"].dead_end == i_poly),
    )
    return Table1Report(tuple(entries), flags)
