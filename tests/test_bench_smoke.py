"""The benchmark still runs to its result line on every workload.

`bench/run.py` ends with one JSON line that the benchmark's consumers
parse; a workload whose checker dies, or a traced run that loses a
per-layer metric, makes that line malformed or incomplete.  Each run here
makes one short pass (`--seconds 1`), so the module takes about 20 s.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)


def _run(workload: str, trace: int) -> dict:
    argv = [
        sys.executable,
        "bench/run.py",
        "--workload",
        workload,
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=240)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr[-2000:]
    result = json.loads(lines[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0, proc.stdout[-2000:]
    return result["metrics"]


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_untraced_run_reports_end_to_end_metrics(workload):
    metrics = _run(workload, 0)
    for m in CONTRACT["end_to_end"]:
        assert m["name"] in metrics
        assert metrics[m["name"]]["value"] > 0


def test_traced_wideenum_reports_every_per_layer_metric():
    metrics = _run("wideenum", 1)
    missing = [m["name"] for m in CONTRACT["per_layer"] if m["name"] not in metrics]
    assert not missing
