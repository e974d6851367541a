"""Smoke test of the benchmark runner on tiny inputs.

Run from the repository root with ``PYTHONPATH=src python -m pytest
perfbench/tests``; it is not part of the repository's own test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_is_correct_and_reports_every_metric(tmp_path, name, trace):
    ops, verify_ok, warm_ok = worker.setup(name, 3, tmp_path, small=True)
    assert verify_ok and warm_ok
    recorder = tracing.Recorder() if trace else None
    samples, outputs, refs = worker.measure(ops, 0.01, recorder)
    result = worker.evaluate(name, 3, ops, verify_ok, warm_ok, samples, outputs, refs, recorder)
    assert result["correct"], result["report"]["ops"]
    assert result["failed"] == 0 and result["attempted"] == len(samples) + 1
    expected = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]} - {"setup_s"}
    assert set(result["metrics"]) == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_search_layers_are_dominant(tmp_path):
    ops, verify_ok, warm_ok = worker.setup("search", 3, tmp_path, small=True)
    recorder = tracing.Recorder()
    samples, outputs, refs = worker.measure(ops, 0.01, recorder)
    metrics = worker.evaluate("search", 3, ops, verify_ok, warm_ok, samples, outputs, refs, recorder)["metrics"]
    share = metrics["construct.minimal_matrix_search.self_pct"]["value"] + metrics["gf2.rank.construct.busy_pct"]["value"]
    assert share > 50
    assert metrics["construct.candidates"]["value"] > 0


def test_tracing_restores_every_binding():
    import stopset.harness
    from stopset.codes import LinearCode

    before = (stopset.harness.is_incorrigible, LinearCode.__dict__["from_parity_check"])
    restore = tracing.Recorder().install()
    assert stopset.harness.is_incorrigible is not before[0]
    restore()
    assert (stopset.harness.is_incorrigible, LinearCode.__dict__["from_parity_check"]) == before


def test_wrong_output_fails_the_check(tmp_path):
    ops, verify_ok, warm_ok = worker.setup("simulate-small", 3, tmp_path, small=True)
    samples, outputs, refs = worker.measure(ops[:1], 0.01, None)
    out = json.loads(outputs[0][0])
    out["failures"]["optimal"] = out["failures"]["iterative"] + 1
    outputs[0][0] = json.dumps(out)
    result = worker.evaluate("simulate-small", 3, ops[:1], verify_ok, warm_ok, samples, outputs, refs, None)
    assert not result["correct"] and result["failed"] >= 1


def test_runner_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
