"""Smoke test of the benchmark itself, on a few weeks of data.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted, plain and
traced, and that the output checks pass on every workload.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "2", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_emitted_and_checks_pass(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze-year", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
