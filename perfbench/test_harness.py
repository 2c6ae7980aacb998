"""Smoke test of the benchmark harness at toy sizes (4 rooms, 48 trials).

    python3 -m pytest perfbench/test_harness.py

Each workload is run once untraced and twice traced; every metric named in
BENCHMARK.json must come out with its unit, and the count metrics of the two
traced runs must repeat exactly.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "bytes")


def _bench(workload: str, trace: int) -> dict:
    # --seconds 0 makes exactly one round: one run, or one untraced and one traced
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--scale", "toy"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return result


def _assert_declared(metrics: dict, declared: list) -> None:
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_runs_emit_every_metric_and_counts_repeat(workload):
    untraced = _bench(workload, 0)
    assert untraced["attempted"] == 1
    _assert_declared(untraced["metrics"], SPEC["end_to_end"])

    first, second = _bench(workload, 1), _bench(workload, 1)
    assert first["attempted"] == second["attempted"] == 2
    for result in (first, second):
        _assert_declared(result["metrics"], SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in COUNT_UNITS]
    assert counts
    assert ({n: first["metrics"][n]["value"] for n in counts}
            == {n: second["metrics"][n]["value"] for n in counts})
