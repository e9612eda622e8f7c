"""Committed BENCH_*.json records (written by tools/bench_record.py) are whole and correct."""

import json
import math
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


# The grid of the head-to-head block that tools/bench_record.py writes
VERSUS_GRID = [(sides, word_bits, chunk_bits) for word_bits, chunk_bits in ((64, 8), (128, 64))
               for sides in (6, 52, 1000)]


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_has_one_more_versus_block_per_python_flag(path):
    record = json.loads(path.read_text())
    assert len(record.get("versus_pythons", [])) == record["command"].count("--python")


@pytest.mark.parametrize("path", [p for p in RECORDS if "versus" in json.loads(p.read_text())],
                         ids=lambda p: p.name)
def test_versus_block_covers_its_grid_with_whole_pairs(path):
    record = json.loads(path.read_text())
    blocks = [record["versus"], *record.get("versus_pythons", [])]  # one more per --python
    # the bits drawn are exact, so every interpreter draws the same
    bits = [[(c["recycler_bits"], c["naive_bits"]) for c in block["cells"]] for block in blocks]
    assert all(drawn == bits[0] for drawn in bits)
    for block in blocks:
        assert block["python"].count(".") == 2
        cells = block["cells"]
        assert [(c["sides"], c["word_bits"], c["chunk_bits"]) for c in cells] == VERSUS_GRID
        for cell in cells:
            assert cell["pairs"] == len(record["seeds"]) and cell["rolls"] > 0
            ratio = cell["ratio"]
            assert 0 < ratio["min"] <= ratio["median"] <= ratio["max"], cell
            assert cell["recycler_rolls_per_s"] > 0 and cell["naive_rolls_per_s"] > 0
            for side in ("recycler", "naive"):
                bits, rolls = cell[side + "_bits"], cell["rolls"] * cell["pairs"]
                assert isinstance(bits, int) and cell[side + "_bits_per_roll"] == bits / rolls
            # each roll carries log2(sides) bits, and the recycler wastes less
            assert (math.log2(cell["sides"]) <= cell["recycler_bits_per_roll"]
                    < cell["naive_bits_per_roll"]), cell


def test_head_to_head_takes_medians_and_pairwise_ratios():
    pairs = [([4.0, 30, "3.11.7"], [2.0, 40, "3.11.7"]),
             ([3.0, 31, "3.11.7"], [3.0, 42, "3.11.7"]),
             ([9.0, 29, "3.11.7"], [1.0, 41, "3.11.7"])]
    cell = BENCH_RECORD["head_to_head"](pairs, 10)
    assert cell["recycler_rolls_per_s"] == 4.0 and cell["naive_rolls_per_s"] == 2.0
    assert cell["ratio"] == {"median": 2.0, "min": 1.0, "max": 9.0}
    assert (cell["recycler_bits"], cell["naive_bits"]) == (90, 123)
    assert cell["recycler_bits_per_roll"] == 3.0 and cell["naive_bits_per_roll"] == 4.1
