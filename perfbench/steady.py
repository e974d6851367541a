"""Steadiness mode: run the benchmark several times on the same commit.

Usage, from the repository root::

    python3 perfbench/steady.py --runs 10            # every workload, seeds 1..10
    python3 perfbench/steady.py --runs 1             # every end-to-end metric once
    python3 perfbench/steady.py --runs 5 --workloads search --first-seed 11

Each run is one ``run.py`` call with the next seed.  For every workload
and end-to-end metric it prints the median of the runs and their spread:
the distance between the first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) as a share of the
median, next to the metric's bound from ``BENCHMARK.json``.  A spread
above a third of the bound is flagged ``WIDE``, above the bound ``OVER``;
the spread of ``setup_s`` is only reported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(names), help="comma-separated workload names")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()

    status = 0
    for workload in args.workloads.split(","):
        if workload not in names:
            p.error(f"unknown workload {workload!r}")
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(ROOT / spec["command"][1]), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            elapsed = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            shown = "  ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
            print(f"{workload} seed {seed} ({elapsed:.0f} s): correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}  {shown}", flush=True)
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            if not vals:
                continue
            med = statistics.median(vals)
            if len(vals) < 2:
                print(f"  {workload:15s} {m['name']:12s} {med:12.6g} {m['unit']}")
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = ("" if m["name"] == "setup_s" else
                       "OVER" if spread > m["bound"] else "WIDE" if spread > m["bound"] / 3 else "ok")
            print(f"  {workload:15s} {m['name']:12s} median {med:12.6g} {m['unit']:5s} "
                  f"spread {spread:7.2%}  bound {m['bound']:.0%}  {verdict}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
