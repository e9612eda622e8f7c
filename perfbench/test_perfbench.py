"""The benchmark's own checks: output checking, span arithmetic, tracer hygiene."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

dicepool = run.import_dicepool()

import tracer  # noqa: E402
import workloads  # noqa: E402

# Small sizes keep each case fast; the shuffle needs enough ops for its
# whole-run chi-square band to be meaningful.
SMALL = [
    (lambda: workloads.BenchD6(rolls=300, min_ops=3), 3),
    (lambda: workloads.Shuffle52(min_ops=3), 300),
    (lambda: workloads.RollPlanCli(count=30, min_ops=3), 3),
]


def small_log(make, ops):
    w = make()
    log = workloads.OpLog()
    run.drive(w, run.op_seeds(11), log, workloads.Sink(), count=ops)
    return w, log


def failed_frac(ok):
    return ok.count(False) / len(ok)


@pytest.mark.parametrize("make, ops", SMALL)
def test_seed_code_matches_reference(make, ops):
    w, log = small_log(make, ops)
    ok = workloads.check(w, log)
    assert failed_frac(ok) == 0
    assert all(bits > 0 for bits in log.bits)


@pytest.mark.parametrize("make, ops", SMALL)
def test_corrupted_outcome_is_a_failure(make, ops):
    w, log = small_log(make, ops)
    log.digest[1] ^= 1
    ok = workloads.check(w, log)
    assert failed_frac(ok) > 0 and not ok[1]


@pytest.mark.parametrize("make, ops", SMALL)
def test_corrupted_bit_count_is_a_failure(make, ops):
    w, log = small_log(make, ops)
    workloads.check(w, log)
    log.bits[0] += 8
    ok = workloads.check(w, log)
    assert failed_frac(ok) > 0 and not ok[0]


def test_raising_op_is_a_failure():
    w = workloads.Shuffle52()
    w.call = lambda seed: 1 / 0
    log = workloads.OpLog()
    run.drive(w, run.op_seeds(1), log, workloads.Sink(), count=2)
    assert log.errors == 2 and "ZeroDivisionError" in log.first_error
    assert failed_frac(workloads.check(w, log)) == 1


def test_chi_square_band_failure_counts():
    w = workloads.BenchD6()
    assert w.band_failures([[100] * 6, [600, 0, 0, 0, 0, 0]]) == {0, 1}
    assert w.band_failures([[99, 101, 100, 98, 102, 100]]) == set()


def test_self_time_on_synthetic_tree():
    #   0 [0, 100]
    #   +- 1 [10, 40]
    #   |  +- 2 [15, 25]
    #   +- 3 [50, 90]
    parent = [-1, 0, 1, 0]
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 90]
    assert tracer.self_times(parent, start, end) == [30, 20, 10, 40]

    rec = tracer.SpanRecorder()
    rec.names = ["root", "child", "leaf"]
    for name_of, p, s, e in zip([0, 1, 2, 1], parent, start, end):
        rec.name_of.append(name_of)
        rec.parent.append(p)
        rec.start.append(s)
        rec.end.append(e)
    summary = tracer.summarize(rec)
    assert summary["root"] == {"calls": 1, "self_ns": 30}
    assert summary["child"] == {"calls": 2, "self_ns": 60, "under:root": 2}
    assert summary["leaf"] == {"calls": 1, "self_ns": 10, "under:child": 1}


def test_recorder_links_nested_calls():
    rec = tracer.SpanRecorder()

    def leaf():
        return 1

    wrapped_leaf = rec.wrap(leaf, "leaf")
    outer = rec.wrap(lambda: wrapped_leaf() + wrapped_leaf(), "outer")
    assert outer() == 2
    assert list(rec.parent) == [-1, 0, 0]
    assert [rec.names[i] for i in rec.name_of] == ["outer", "leaf", "leaf"]
    assert all(e >= s for s, e in zip(rec.start, rec.end))
    own = tracer.self_times(rec.parent, rec.start, rec.end)
    assert sum(own) == rec.end[0] - rec.start[0]


def owner_state():
    owners = {id(owner): owner for owner, _, _ in tracer.targets(dicepool)}
    for module in (dicepool, dicepool.pool, dicepool.sources, dicepool.radix,
                   dicepool.harness, dicepool.analysis, dicepool.cli):
        owners[id(module)] = module
        for value in vars(module).values():
            if isinstance(value, type):
                owners[id(value)] = value
    return {key: {k: id(v) for k, v in vars(owner).items()}
            for key, owner in owners.items()}


def test_tracer_restores_every_function():
    before = owner_state()
    rec = tracer.SpanRecorder()
    rec.install(tracer.targets(dicepool))
    try:
        assert owner_state() != before
        with pytest.raises(RuntimeError):
            rec.install(tracer.targets(dicepool))
    finally:
        rec.uninstall()
    assert owner_state() == before
    assert "next_bits" not in vars(dicepool.SeededSource)


@pytest.mark.parametrize("make, ops", SMALL)
def test_traced_ops_still_match_reference(make, ops):
    rec = tracer.SpanRecorder()
    with rec.installed(tracer.targets(dicepool)):
        w, log = small_log(make, ops)
    assert failed_frac(workloads.check(w, log)) == 0
    assert len(rec) > ops


def test_metrics_are_finite_per_layer():
    w = workloads.RollPlanCli(count=30, min_ops=2)
    metrics, ok, _ = run.run_traced(dicepool, w, seed=3, seconds=0.1)
    assert set(metrics) == set(run.UNITS_PER_LAYER)
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["radix.roll_batch.self_ns_per_roll"] > 0
    assert metrics["harness.shuffle.self_ns_per_roll"] == 0
    assert failed_frac(ok) == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bench-d6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_matches_the_run():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.UNITS_END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.UNITS_PER_LAYER


def test_reinstalling_keeps_one_name_per_span():
    rec = tracer.SpanRecorder()
    for _ in range(3):
        with rec.installed(tracer.targets(dicepool)):
            dicepool.harness.shuffle(5)
    assert len(rec.names) == len(set(rec.names))
    assert tracer.summarize(rec)["harness.shuffle"]["calls"] == 3
