"""Reduced-size runs of every workload through the benchmark's command.

    python3 -m pytest -q perfbench/test_smoke.py

Each run must pass the correctness gate and print exactly the metrics
BENCHMARK.json declares for its trace mode, with the declared units.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_gate_and_prints_declared_metrics(workload, trace):
    p = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
             "--trace", str(trace), "--smoke")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], p.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def test_predictions_cite_declared_metrics():
    table = json.loads((HERE / "predictions.json").read_text())["predictions"]
    layer = {m["name"] for m in SPEC["per_layer"]}
    end = {m["name"] for m in SPEC["end_to_end"]}
    for row in table:
        assert set(row["layer_metrics"]) <= layer, row
        assert set(row["moves"]) <= end, row
        assert set(row["where"]) <= set(WORKLOADS), row


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
