"""Span tracing from outside the package.

``Recorder.install`` replaces the names through which one stopset module
calls another (``stopset.harness.is_incorrigible``,
``stopset.stopsets.rank``, ``LinearCode.from_parity_check`` and so on)
with wrappers that record a span per call, and returns a function that
puts the originals back.  Nothing under ``src/`` changes.  Spans stay in
memory; the worker writes them out when it ends.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from stopset.codes import LinearCode

from workloads import Op


def _subsets(args, result) -> int:
    return 1 << args[0].n


def _masks(args, result) -> int:
    return len(args[1])


def _returned(args, result) -> int:
    return result


# (module, attribute, span name, value stored with the span)
BINDINGS = (
    ("stopset.cli", "profile", "stopsets.profile", None),
    ("stopset.cli", "incorrigible_enumerator", "stopsets.incorrigible_enumerator", _subsets),
    ("stopset.cli", "optimal_enumerators", "stopsets.optimal_enumerators", _subsets),
    ("stopset.cli", "monte_carlo", "harness.monte_carlo", None),
    ("stopset.cli", "rank", "gf2.rank.cli", _returned),
    ("stopset.construct", "minimal_matrix_search", "construct.minimal_matrix_search", None),
    ("stopset.construct", "rank", "gf2.rank.construct", _returned),
    ("stopset.construct", "optimal_enumerators", "stopsets.optimal_enumerators", _subsets),
    ("stopset.construct", "incorrigible_enumerator", "stopsets.incorrigible_enumerator", _subsets),
    ("stopset.stopsets", "stopping_set_enumerator", "stopsets.stopping_set_enumerator", _subsets),
    ("stopset.stopsets", "dead_end_enumerator", "stopsets.dead_end_enumerator", _subsets),
    ("stopset.stopsets", "rank", "gf2.rank.stopsets", _returned),
    ("stopset.stopsets", "select_columns", "gf2.select_columns", None),
    ("stopset.harness", "is_incorrigible", "stopsets.is_incorrigible", None),
    ("stopset.harness", "batch_peel_residuals", "stopsets.batch_peel_residuals", _masks),
    ("stopset.harness", "incorrigible_enumerator", "stopsets.incorrigible_enumerator", _subsets),
    ("stopset.harness", "profile", "stopsets.profile", None),
    ("stopset.harness", "is_parity_check_of", "decoder.is_parity_check_of", None),
    ("stopset.decoder", "rank", "gf2.rank.decoder", _returned),
)
ROOT = "cli.main"
FROM_PARITY_CHECK = "codes.from_parity_check"
ENUMERATORS = tuple(
    f"stopsets.{e}"
    for e in ("stopping_set_enumerator", "dead_end_enumerator", "incorrigible_enumerator", "optimal_enumerators")
)


class Recorder:
    """Collects spans as (name, start, end, parent index, op id, value)."""

    def __init__(self) -> None:
        self.spans: list[Optional[tuple]] = []
        self.op_id: Optional[int] = None
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, value_of=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
        value = value_of(args, result) if value_of else None
        self.spans[index] = (name, start, end, parent, self.op_id, value)
        return result

    def _wrap(self, name: str, fn: Callable, value_of) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, value_of)

        return wrapper

    def install(self) -> Callable[[], None]:
        """Wrap every binding; the returned function restores the originals."""
        saved = []
        for module_name, attr, name, value_of in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, value_of))
        original = LinearCode.__dict__["from_parity_check"]
        saved.append((LinearCode, "from_parity_check", original))
        LinearCode.from_parity_check = classmethod(self._wrap(FROM_PARITY_CHECK, original.__func__, None))

        def restore() -> None:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

        return restore

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op", "value")
        path.write_text(json.dumps({"keys": keys, "spans": self.spans}))


@dataclass
class _Stat:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    values: list = field(default_factory=list)


def _per_op(spans: list[tuple]) -> dict[int, dict[str, _Stat]]:
    """Per op id and span name: calls, busy time, self time, values."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, value in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[int, dict[str, _Stat]] = defaultdict(lambda: defaultdict(_Stat))
    for i, (name, start, end, parent, op, value) in enumerate(spans):
        st = out[op][name]
        st.calls += 1
        st.busy += end - start
        st.self_time += end - start - child[i]
        if value is not None:
            st.values.append(value)
    return out


def layer_metrics(spans: list[tuple], samples: list[dict], ops: list[Op]) -> tuple[dict, dict]:
    """Per-layer metrics for one pass over the op list, from the traced samples.

    Each op kind contributes the mean over its traced samples, so a pass
    is one call of every op however many samples each kind got.  Returns
    the result metrics (shares of traced op wall time, counts and
    ratios) and, for the report, every span's busy and self seconds and
    calls per pass.
    """
    per_op = _per_op(spans)
    traced = defaultdict(list)
    plain = defaultdict(list)
    for s in samples:
        (traced if s["traced"] else plain)[s["kind"]].append(s)

    def per_pass(get) -> float:
        return sum(sum(get(per_op[s["op"]]) for s in ss) / len(ss) for ss in traced.values())

    names = sorted({name for stats in per_op.values() for name in stats})
    busy = {name: per_pass(lambda st, n=name: st[n].busy if n in st else 0.0) for name in names}
    self_time = {name: per_pass(lambda st, n=name: st[n].self_time if n in st else 0.0) for name in names}
    calls = {name: per_pass(lambda st, n=name: st[n].calls if n in st else 0) for name in names}
    value = {name: per_pass(lambda st, n=name: sum(st[n].values) if n in st else 0) for name in names}

    def full_rank(stats: dict, op: Op) -> int:
        need = op.params["n"] - op.params["k"]
        st = stats.get("gf2.rank.construct")
        return sum(v == need for v in st.values) if st else 0

    full = sum(
        sum(full_rank(per_op[s["op"]], ops[kind]) for s in ss) / len(ss) for kind, ss in traced.items()
    )
    trials = sum(ops[kind].params.get("trials", 0) for kind in traced)
    wall = busy[ROOT]
    plain_wall = sum(sum(s["seconds"] for s in ss) / len(ss) for ss in plain.values())
    traced_wall = sum(sum(s["seconds"] for s in ss) / len(ss) for ss in traced.values())
    enum_busy = sum(busy.get(e, 0.0) for e in ENUMERATORS)
    candidates = calls.get("gf2.rank.construct", 0)

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall

    metrics = {"cli.main.self_pct": (pct(self_time[ROOT]), "%")}
    for name in (
        "codes.from_parity_check", "gf2.rank.construct", "gf2.rank.stopsets", "gf2.select_columns",
        *ENUMERATORS, "stopsets.batch_peel_residuals", "stopsets.is_incorrigible",
        "decoder.is_parity_check_of",
    ):
        metrics[f"{name}.busy_pct"] = (pct(busy.get(name, 0.0)), "%")
    for name in ("harness.monte_carlo", "construct.minimal_matrix_search"):
        metrics[f"{name}.self_pct"] = (pct(self_time.get(name, 0.0)), "%")
    for name in ("gf2.rank.construct", "gf2.rank.stopsets", "stopsets.is_incorrigible"):
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    metrics["stopsets.batch_peel_residuals.masks"] = (value.get("stopsets.batch_peel_residuals", 0), "count")
    metrics["stopsets.subsets_per_busy_s"] = (
        sum(value.get(e, 0) for e in ENUMERATORS) / enum_busy if enum_busy else 0.0, "1/s")
    metrics["harness.distinct_mask_ratio"] = (
        calls.get("stopsets.is_incorrigible", 0) / trials if trials else 0.0, "ratio")
    metrics["construct.candidates"] = (candidates, "count")
    metrics["construct.full_rank_ratio"] = (full / candidates if candidates else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")

    seconds = {f"{name}.busy_s": busy[name] for name in names}
    seconds.update({f"{name}.self_s": self_time[name] for name in names})
    seconds.update({f"{name}.calls": calls[name] for name in names})
    return metrics, seconds
