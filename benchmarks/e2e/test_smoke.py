"""Smoke test of the benchmark itself.  Not part of tier-1; run explicitly:

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py

Each workload runs at toy size and must emit exactly the metric names and
units ``BENCHMARK.json`` declares, fail no op, and leave a loadable trace
whose spans all carry a known layer and an op id.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in CONTRACT["workloads"]]

sys.path.insert(0, str(HERE))
import harness  # noqa: E402  (needs the path above; repro comes from PYTHONPATH)
import metrics  # noqa: E402
from spans import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_toy(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--scale", "tiny", "--passes", "1", "--ops", "20",
            "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_contract_matches_the_code():
    assert WORKLOAD_NAMES == list(WORKLOADS)
    assert CONTRACT["run_seconds"] == harness.DEFAULT_SECONDS
    for section, table in (
        ("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)
    ):
        declared = {entry["name"]: entry["unit"] for entry in CONTRACT[section]}
        assert declared == table


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_emits_declared_metrics_and_trace(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = run_toy(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {
            name: entry["unit"] for name, entry in result["metrics"].items()
        } == {entry["name"]: entry["unit"] for entry in CONTRACT[section]}
        assert all(
            isinstance(entry["value"], float)
            for entry in result["metrics"].values()
        )
    events = json.loads(
        (HERE / "out" / f"trace_{workload}.json").read_text()
    )["traceEvents"]
    assert events
    for event in events:
        assert event["cat"] in LAYERS
        assert isinstance(event["args"]["op_id"], int)
    assert any(event["args"]["op_id"] >= 0 for event in events)
