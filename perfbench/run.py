"""stopset benchmark: one workload per call, run through the in-process CLI.

Usage, from the repository root::

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 15 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``.  Load is a
closed loop with one caller: one process, one thread, one op at a time.
Every set-up runs in a fresh interpreter with ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to 1.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median
of ``SETUPS`` set-ups (interpreter start to warm-up op done), measured
here; the last of them goes on to the timed loop in ``worker.py``.
``--trace 1`` prints the per-layer metrics of a traced run instead.
Every output is checked; a failed check counts in ``failed`` and the
command exits 1.  The last line of stdout is the result as JSON; the
line before it (``report ...``) holds the op parameters, per-op
timings, the environment and, when traced, each layer's seconds.

To re-pin the output digests checked at the default seed, run
``PYTHONPATH=src python3 perfbench/worker.py --workload W --seed 1
--seconds 1 --workdir .perfbench_work/pin --pin`` for each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 5
DEADLINE_S = 170.0


def _worker(args: argparse.Namespace, setup_only: bool, deadline: float) -> tuple[float, str, int]:
    """Start worker.py; return its set-up time, the rest of its stdout and its exit code."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(Path(".perfbench_work") / f"{args.workload}-{args.seed}"),
    ] + (["--setup-only"] if setup_only else [])
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if ready.strip() != "ready":
        rc = rc or 1
    return setup_s, rest, rc


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "stopset" / "__init__.py").is_file():
        print(f"error: no stopset sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    setups = []
    for _ in range(0 if args.trace else SETUPS - 1):
        setup_s, _, rc = _worker(args, True, deadline)
        if rc != 0:
            print(f"error: set-up of {args.workload} failed (exit {rc})", file=sys.stderr)
            return 1
        setups.append(setup_s)
    setup_s, rest, rc = _worker(args, False, deadline)
    setups.append(setup_s)
    lines = rest.strip().splitlines()
    if rc != 0 or not lines:
        print(f"error: worker for {args.workload} failed (exit {rc})", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    report = result["report"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    report["setup_samples_s"] = setups

    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'op_p50_s':44s} {report['op_p50_s']:>14.6g} s")
    print(f"{'work_per_s':44s} {report['work_per_s']:>14.6g} 1/s  ({report['work_unit']} per second)")
    print(f"{'reference_s':44s} {report['reference_s']:>14.6g} s  (median of {report['reference_samples']})")
    print(f"{'fail_ratio':44s} {report['fail_ratio']:>14.6g} ratio")
    for op in report["ops"]:
        print(f"  op {op['label']:36s} samples {op['samples']:3d}  "
              f"median {op['median_s']:.4f} s  min {op['min_s']:.4f} s")
    if not report["verify_table1_ok"]:
        print("FAILED verify-table1")
    for op in report["ops"]:
        for problem in op["problems"]:
            print(f"FAILED {op['label']}: {problem}")
    print("report " + json.dumps(report))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed")} | {"metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
