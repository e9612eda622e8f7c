"""Committed BENCH_*.json records (written by tools/bench_record.py) are whole and correct."""

import json
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
# run_path compiles the script without writing bytecode or running its main
BENCH_RECORD = runpy.run_path(str(ROOT / "tools" / "bench_record.py"))


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


def test_summarize_counts_pair_wins_losses_and_ties():
    metrics = [{"name": "latency_ms_p50", "unit": "ms", "better": "lower"},
               {"name": "rolls_per_s", "unit": "rolls/s", "better": "higher"}]

    def runs(latencies, rates):
        return [{"metrics": {"latency_ms_p50": l, "rolls_per_s": r}}
                for l, r in zip(latencies, rates)]

    ours = runs([1.0, 2.0, 3.0, 0.5], [30.0, 20.0, 10.0, 5.0])
    theirs = runs([2.0] * 4, [20.0] * 4)  # pair 2 ties on both metrics
    summary = BENCH_RECORD["summarize"](metrics, ours, theirs)
    latency, rate = summary["latency_ms_p50"], summary["rolls_per_s"]
    assert (latency["pairs"], latency["pair_wins"], latency["pair_losses"]) == (4, 2, 1)
    assert (rate["pairs"], rate["pair_wins"], rate["pair_losses"]) == (4, 1, 2)
    assert latency["median"] == 1.5 and rate["median"] == 15.0
    assert latency["against"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    alone = BENCH_RECORD["summarize"](metrics, ours, [])
    assert "pair_wins" not in alone["latency_ms_p50"] and "against" not in alone["rolls_per_s"]


def test_spread_of_one_run_is_that_run():
    assert BENCH_RECORD["spread"]([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5}
