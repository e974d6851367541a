"""One benchmark process: set up, run the timed loop, check the outputs.

``run.py`` starts this script in a fresh interpreter for every set-up it
measures.  Set-up is the imports, input generation, one
``verify-table1`` run and one untimed warm-up op (the workload's first
op).  The script prints ``ready`` when set-up is done; unless
``--setup-only`` is given it then calls ``stopset.cli.main`` in a closed
loop, one op at a time, for ``--seconds`` seconds and prints its result
as one JSON line.

``--pin`` records the digests of this run's outputs in ``digests.json``
instead of checking them; the pinned digests are for ``DEFAULT_SEED``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np
from stopset import cli

import checks
import tracing
import workloads

DEFAULT_SEED = 1
DIGESTS = Path(__file__).with_name("digests.json")
ROOT = Path(__file__).resolve().parents[1]


def run_op(argv: tuple[str, ...], recorder: Optional[tracing.Recorder] = None) -> tuple[float, Optional[int], str]:
    """Wall time, exit code (None if it raised) and stdout of one CLI call.

    A failing call's error output goes to stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if recorder is None:
                rc = cli.main(list(argv))
            else:
                rc = recorder.call(tracing.ROOT, cli.main, (list(argv),), {})
    except (Exception, SystemExit):
        traceback.print_exc()
        rc = None
    elapsed = perf_counter() - start
    if rc != 0:
        print(f"stopset {' '.join(argv)}: exit {rc}\n{err.getvalue()}", file=sys.stderr)
    return elapsed, rc, out.getvalue()


def reference() -> float:
    """Wall time of a fixed kernel that uses no stopset code.

    It mixes the two kinds of work the workloads do, a Python integer
    loop and numpy bit counting over a 1 MiB array.  Timed between ops,
    it tracks how fast the shared host runs at that moment.
    """
    start = perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i & 7
    words = np.arange(1 << 18, dtype=np.uint32)
    for w in range(1, 40):
        np.bitwise_count(words & np.uint32(w * 40503))
    return perf_counter() - start


def git_commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    return {
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(ROOT),
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def setup(name: str, seed: int, workdir: Path, small: bool = False) -> tuple[list[workloads.Op], bool, bool]:
    """Generate the inputs, run verify-table1 and the warm-up op.

    Returns the ops, whether verify-table1 exited 0 and whether the
    warm-up op exited 0.
    """
    ops = workloads.build(name, seed, workdir, small)
    verify_ok = run_op(("verify-table1",))[1] == 0
    warm_ok = run_op(ops[0].argv)[1] == 0
    return ops, verify_ok, warm_ok


def measure(ops: list[workloads.Op], seconds: float,
            recorder: Optional[tracing.Recorder]) -> tuple[list, dict, list]:
    """Closed loop over the op list until ``seconds`` have passed.

    Without a recorder at least one full pass runs.  With one, passes
    alternate untraced and traced, starting untraced, and at least one
    of each runs.  The reference kernel runs after every op.  Returns the
    samples, each op kind's outputs and the reference times.
    """
    min_passes = 1 if recorder is None else 2
    samples: list[dict] = []
    outputs: dict[int, list[str]] = {}
    refs: list[float] = []
    start = perf_counter()
    passes = 0
    while passes < min_passes or perf_counter() - start < seconds:
        traced = recorder is not None and passes % 2 == 1
        restore = recorder.install() if traced else None
        try:
            for kind, op in enumerate(ops):
                if passes >= min_passes and perf_counter() - start >= seconds:
                    break
                if traced:
                    recorder.op_id = len(samples)
                t, rc, out = run_op(op.argv, recorder if traced else None)
                samples.append({"kind": kind, "seconds": t, "rc": rc, "traced": traced, "op": len(samples)})
                outputs.setdefault(kind, []).append(out)
                refs.append(reference())
        finally:
            if restore:
                restore()
        passes += 1
    return samples, outputs, refs


def check_outputs(name: str, seed: int, ops: list[workloads.Op], outputs: dict, pin: bool) -> dict[int, list[str]]:
    """Problems per op kind: differing repeats, bad JSON, failed identities, digest mismatch."""
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    pinned = digests.get(name, {})
    problems: dict[int, list[str]] = {}
    fresh = {}
    for kind, outs in outputs.items():
        op = ops[kind]
        found = []
        if any(o != outs[0] for o in outs):
            found.append("repeated calls printed different output")
        try:
            found += checks.check(op, json.loads(outs[0]))
        except (ValueError, KeyError, TypeError) as exc:
            found.append(f"output not usable: {exc!r}")
        fresh[op.label] = hashlib.sha256(outs[0].encode()).hexdigest()
        if seed == DEFAULT_SEED and not pin and pinned.get(op.label) != fresh[op.label]:
            found.append("output differs from the pinned digest")
        if found:
            problems[kind] = found
    if pin:
        digests[name] = fresh
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return problems


def evaluate(name: str, seed: int, ops: list[workloads.Op], verify_ok: bool, warm_ok: bool, samples: list,
             outputs: dict, refs: list, recorder: Optional[tracing.Recorder], pin: bool = False) -> dict:
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = check_outputs(name, seed, ops, outputs, pin)
    if not warm_ok:
        problems.setdefault(0, []).append("warm-up op failed")
    failed = sum(1 for s in samples if s["rc"] != 0 or s["kind"] in problems) + (not verify_ok)
    attempted = len(samples) + 1  # the timed ops and verify-table1

    report_ops = []
    for kind, op in enumerate(ops):
        times = [s["seconds"] for s in samples if s["kind"] == kind and not s["traced"]]
        report_ops.append({
            "label": op.label, "argv": list(op.argv), "params": op.params, "work": op.work,
            "samples": len(times), "median_s": statistics.median(times), "min_s": min(times),
            "times_s": times, "problems": problems.get(kind, []),
        })
    medians = [o["median_s"] for o in report_ops]
    work = sum(op.work for op in ops)
    ref = statistics.median(refs)
    report = {
        "workload": name, "why": workloads.WORKLOADS[name].why, "seed": seed,
        "work_unit": workloads.WORKLOADS[name].work_unit, "verify_table1_ok": verify_ok,
        "fail_ratio": failed / attempted, "env": environment(), "ops": report_ops,
        "op_p50_s": statistics.geometric_mean(medians), "work_per_s": work / sum(medians),
        "reference_s": ref, "reference_samples": len(refs),
    }
    if recorder is None:
        # The shared host's speed drifts by a fifth or more from minute to
        # minute; op times divided by the reference kernel's time, taken
        # over the same window, do not.
        metrics = {
            "op_p50_ref": (report["op_p50_s"] / ref, "ref"),
            "work_per_ref": (work * ref / sum(medians), "1/ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics, report["layers_per_pass"] = tracing.layer_metrics(recorder.spans, samples, ops)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "report": report,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--pin", action="store_true")
    args = p.parse_args()

    ops, verify_ok, warm_ok = setup(args.workload, args.seed, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0 if verify_ok and warm_ok else 1
    recorder = tracing.Recorder() if args.trace else None
    samples, outputs, refs = measure(ops, args.seconds, recorder)
    result = evaluate(args.workload, args.seed, ops, verify_ok, warm_ok, samples, outputs, refs, recorder, args.pin)
    if recorder is not None:
        spans_file = args.workdir / "spans.json"
        recorder.write(spans_file)
        result["report"]["spans_file"] = str(spans_file)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
