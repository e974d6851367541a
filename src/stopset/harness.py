"""Performance analysis: exact failure probabilities, Monte Carlo
simulation of the binary erasure channel, and the benchmark-table check.

Simulation randomness is counter-based (Philox-4x64-10 keyed by the
seed): trials are grouped in fixed blocks of 4096 and block b draws from
counter (0, 0, b, 0), with trial t consuming rows t mod 4096 of its
block.  Every trial's erasure pattern is therefore a pure function of
(seed, trial index), independent of how the work is partitioned.  The
erasures are read by thresholding the generator's raw 64-bit words,
which selects exactly the coordinates whose uniform double falls below
epsilon.

The peeling decoder fails on an erasure set exactly when it is a
dead-end set, the optimal decoder exactly when it is incorrigible.
Under the enumeration guard the simulation therefore builds the
packed D and I flags once (they also give the analytic rates) and reads
each trial's two outcomes as two bit lookups.  Above the guard it peels
and eliminates each chunk's distinct masks instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.random import Philox

from .codes import Enumerator, LinearCode, _enumeration_refusal, catalog, rm_8_4_4
from .decoder import is_parity_check_of
from .gf2 import BitMatrix
from .stopsets import (
    _flagged,
    _histogram,
    _incorrigible_flags,
    _pack,
    _profile,
    _stopping_flags,
    batch_peel_residuals,
    incorrigible_enumerator,
    is_incorrigible,
    optimal_enumerators,
    profile,
)

_TRIAL_BLOCK = 4096  # part of the stream definition; do not change casually
_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


@dataclass(frozen=True)
class ChannelConfig:
    """Binary erasure channel simulation parameters."""

    epsilon: float
    trials: int
    seed: int

    def __post_init__(self) -> None:
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
    """
    threshold = np.uint64(math.ceil(epsilon * 2.0**53) << 11)
    out = np.empty(stop - start, dtype=np.uint64)
    erased = np.zeros((_TRIAL_BLOCK, 64), dtype=bool)
    filled = 0
    for b in range(start // _TRIAL_BLOCK, (stop - 1) // _TRIAL_BLOCK + 1):
        raw = Philox(key=seed, counter=[0, 0, b, 0]).random_raw((_TRIAL_BLOCK, n))
        lo = max(start - b * _TRIAL_BLOCK, 0)
        hi = min(stop - b * _TRIAL_BLOCK, _TRIAL_BLOCK)
        np.less(raw[lo:hi], threshold, out=erased[: hi - lo, :n])
        out[filled : filled + hi - lo] = _pack(erased[: hi - lo])
        filled += hi - lo
    return out


def monte_carlo(code: LinearCode, h: BitMatrix, cfg: ChannelConfig) -> PerformanceReport:
    """Simulate both decoders on the erasure channel.

    Transmits the zero codeword: by linearity the failure events depend
    only on the erasure set, never on the transmitted word.  Iterative
    failure means the erasure set is a dead-end set (its peeling fixpoint
    is nonempty); optimal failure means it is incorrigible.  Under the
    enumeration guard both are read per trial from the packed D
    and I flags, which also give the analytic rates.  Above it each
    chunk of 2**16 trials is classified on its distinct masks only: a
    batched peel and a batched XOR-basis rank test.  Trials come from
    the pinned stream of _erasure_masks either way.

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

        def classify(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return _flagged(it_flags, masks), _flagged(opt_flags, masks)

    else:
        dominant_note = f"omitted: {refusal}; {k_refusal}" if k_refusal else f"iterative omitted: {refusal}"
        notes = (("analytic", f"omitted: {refusal}"), ("dominant_terms", dominant_note))

        def classify(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            uniq, inverse = np.unique(masks, return_inverse=True)
            return (batch_peel_residuals(h, uniq) != 0)[inverse], is_incorrigible(code, uniq)[inverse]

    it_failures = 0
    opt_failures = 0
    it_only = 0
    chunk = 1 << 16
    for start in range(0, cfg.trials, chunk):
        masks = _erasure_masks(cfg.seed, start, min(start + chunk, cfg.trials), n, cfg.epsilon)
        it_fail, opt_fail = classify(masks)
        it_failures += int(np.count_nonzero(it_fail))
        opt_failures += int(np.count_nonzero(opt_fail))
        it_only += int(np.count_nonzero(it_fail & ~opt_fail))

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
        it_only_failures=it_only,
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
    computed: dict[str, tuple[Enumerator, Enumerator]] = {}
    for name in ("H_4", "H_5", "H_8", "H_14"):
        p = profile(catalog(name))
        computed[name] = (p.stopping, p.dead_end)
    star = optimal_enumerators(rm)
    computed["H*"] = (star.stopping, star.dead_end)
    for name, (exp_s, exp_d) in _TABLE1_SD.items():
        s_poly, d_poly = computed[name]
        entries.append(Table1Entry(f"S(x) {name}", Enumerator(exp_s), s_poly))
        entries.append(Table1Entry(f"D(x) {name}", Enumerator(exp_d), d_poly))

    flags = (
        ("h14_stopping_enumerator_is_optimal", computed["H_14"][0] == star.stopping),
        ("h8_dead_end_is_incorrigible", computed["H_8"][1] == i_poly),
        ("h14_dead_end_is_incorrigible", computed["H_14"][1] == i_poly),
        ("star_dead_end_is_incorrigible", computed["H*"][1] == i_poly),
    )
    return Table1Report(tuple(entries), flags)
