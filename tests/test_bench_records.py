"""Committed BENCH_*.json records (written by tools/bench_record.py) are whole and correct."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_the_baseline_record_exists():
    assert ROOT / "BENCH_0.json" in RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_covers_the_benchmark_with_correct_runs(path):
    record = json.loads(path.read_text())
    metrics = [m["name"] for m in SPEC["end_to_end"]]
    for workload in (w["name"] for w in SPEC["workloads"]):
        entry = record["workloads"][workload]
        for name in metrics:
            summary = entry["metrics"][name]
            assert summary["q1"] <= summary["median"] <= summary["q3"], (workload, name)
        runs = entry["runs"] + entry.get("against_runs", [])
        assert runs, workload
        for run in runs:
            assert run["correct"] is True and run["failed"] == 0, (workload, run["seed"])
            assert run["record"]["workload"] == workload
            assert set(metrics) <= set(run["metrics"]), (workload, run["seed"])
