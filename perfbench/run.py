"""dicepool benchmark: closed-loop workloads with bit-exact output checks.

    python3 perfbench/run.py --workload bench-d6 --seed 1 --seconds 10 --trace 0

Run from the repository root; dicepool is imported from ./src. With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it
wraps dicepool's public entry points in a span recorder and reports
per-layer metrics instead. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import reference

# `workloads` and `tracer` import dicepool, which is importable only after
# import_dicepool() has put ./src on the path; functions import them late.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7
WARMUP_OPS = 2
SPAN_BUDGET = 250_000      # spans one traced run keeps in memory
NAIVE_ROLLS = 50_000
NAIVE_REPEATS = 5
# Machine-speed calibration: a fixed pure-Python loop timed before every
# op. The host's speed drifts by up to 2x within seconds, while the ratio
# of an op's time to the loop's holds steady, so times are reported as
# if the loop took CAL_NOMINAL_NS, a constant that sets the scale only.
CAL_ROLLS = 200
CAL_NOMINAL_NS = 90_000
CAL_SIDE = 2               # calibrations used on each side of an op
MODULES = ("sources", "pool", "radix", "harness", "analysis", "cli")
# Spans whose self time per roll is reported on its own.
SELF_TIME_SPANS = (
    "sources.next_bits", "sources.counting", "pool.roll", "pool.top_off",
    "pool.roll_step", "radix.roll_batch", "radix.decode_mixed_radix",
    "harness.bench_recycler", "harness.shuffle", "cli.main",
)


def import_dicepool():
    """Import dicepool from ./src and from nowhere else."""
    if not (SRC / "dicepool" / "__init__.py").is_file():
        raise SystemExit(f"error: no dicepool sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dicepool
    if Path(dicepool.__file__).resolve().parent != SRC / "dicepool":
        raise SystemExit(f"error: dicepool was imported from {dicepool.__file__}")
    return dicepool


def op_seeds(seed: int):
    """The op seeds of a run: a fixed sequence for each benchmark seed."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(63)


def percentile(ascending, q: float):
    """Nearest-rank percentile."""
    return ascending[max(0, math.ceil(q * len(ascending)) - 1)]


def calibrate() -> int:
    """Nanoseconds the reference pool takes for CAL_ROLLS d6 rolls."""
    pool = reference.RefPool(1)
    t0 = time.perf_counter_ns()
    for _ in range(CAL_ROLLS):
        pool.roll(6)
    return time.perf_counter_ns() - t0


def speed_factors(cal) -> list[float]:
    """Per op, CAL_NOMINAL_NS over the calibrations around it.

    cal[i] was taken just before op i and cal[-1] after the last op; the
    median of CAL_SIDE calibrations on each side absorbs a disturbed one.
    """
    return [CAL_NOMINAL_NS / statistics.median(cal[max(0, i + 1 - CAL_SIDE):i + 1 + CAL_SIDE])
            for i in range(len(cal) - 1)]


def drive(w, seeds, log, sink, *, count=None, seconds=0.0, cal=None) -> None:
    """Closed loop: `count` ops, or at least w.min_ops ops and `seconds`.

    With a `cal` array, calibrates before every op and after the last.
    """
    import workloads
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    with contextlib.redirect_stdout(sink):
        for i, seed in enumerate(seeds):
            if (i >= count) if count is not None else (i >= w.min_ops and clock() >= deadline):
                break
            if cal is not None:
                cal.append(calibrate())
            workloads.run_op(w, seed, sink, log, clock)
    if cal is not None:
        cal.append(calibrate())


def setup_probe(workload_name: str, seed: int) -> None:
    """Child side of setup_s: import dicepool and finish one op.

    Prints the elapsed seconds and the median of the calibrations taken
    just before and just after.
    """
    cal = [calibrate() for _ in range(CAL_SIDE)]
    t0 = time.perf_counter()
    import_dicepool()
    import workloads
    w = workloads.WORKLOADS[workload_name]()
    log = workloads.OpLog()
    drive(w, op_seeds(seed), log, workloads.Sink(), count=1)
    elapsed = time.perf_counter() - t0
    cal += [calibrate() for _ in range(CAL_SIDE)]
    if log.errors:
        raise SystemExit(f"error: the warm-up op failed: {log.first_error}")
    print(repr(elapsed), statistics.median(cal))


def measure_setup(workload_name: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and speed-scaled setup times from fresh interpreters, one at a
    time; the first probe only warms the file caches."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
            f"run.setup_probe({workload_name!r}, {seed})")
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if done.returncode:
            raise SystemExit(f"error: set-up probe failed: {done.stderr.strip()}")
        elapsed, cal_ns = (float(x) for x in done.stdout.split()[-2:])
        raw.append(elapsed)
        scaled.append(elapsed * CAL_NOMINAL_NS / cal_ns)
    return raw[1:], scaled[1:]


def run_untraced(w, seed: int, seconds: float) -> tuple[dict, list[bool], dict]:
    import workloads
    setup_raw, setup = measure_setup(w.name, seed)
    sink = workloads.Sink()
    drive(w, op_seeds(seed + 1), workloads.OpLog(), sink, count=WARMUP_OPS)
    log = workloads.OpLog()
    cal = array("q")
    drive(w, op_seeds(seed), log, sink, seconds=seconds, cal=cal)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok = workloads.check(w, log)

    raw = sorted(log.latency_ns)
    lat = sorted(ns * f for ns, f in zip(log.latency_ns, speed_factors(cal)))
    rolls = len(log) * w.rolls_per_op
    metrics = {
        "setup_s": statistics.median(setup),
        "rolls_per_s": rolls / (sum(lat) / 1e9),
        "latency_ms_p50": percentile(lat, 0.5) / 1e6,
        "latency_ms_p90": percentile(lat, 0.9) / 1e6,
        "bits_per_roll": sum(log.bits[:w.min_ops]) / (w.min_ops * w.rolls_per_op),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "ops": len(log),
        "first_error": log.first_error,
        "samples": len(lat),
        "samples_beyond_p90": len(lat) - math.ceil(0.9 * len(lat)),
        "bits_per_roll_ops": w.min_ops,
        "failed_frac": ok.count(False) / len(ok),
        "calibrations": len(cal),
        "cal_ns_median": statistics.median(cal),
        "raw_setup_s": statistics.median(setup_raw),
        "raw_rolls_per_s": rolls / (sum(raw) / 1e9),
        "raw_latency_ms_p50": percentile(raw, 0.5) / 1e6,
        "raw_latency_ms_p90": percentile(raw, 0.9) / 1e6,
    }
    return metrics, ok, detail


def run_traced(dicepool, w, seed: int, seconds: float,
               spans_out: Path | None = None) -> tuple[dict, list[bool], dict]:
    """Each op runs twice, untraced and traced, in alternating order.

    Times are scaled by one speed factor for the whole run.
    """
    import tracer
    import workloads
    sink = workloads.Sink()
    drive(w, op_seeds(seed + 1), workloads.OpLog(), sink, count=WARMUP_OPS)
    rec = tracer.SpanRecorder()
    entries = tracer.targets(dicepool)
    plain, traced = workloads.OpLog(), workloads.OpLog()
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    cal = [calibrate()]
    with contextlib.redirect_stdout(sink):
        for i, s in enumerate(op_seeds(seed)):
            if i and (clock() >= deadline or len(rec) >= SPAN_BUDGET):
                break
            cal.append(calibrate())
            for tracing in ((False, True) if i % 2 == 0 else (True, False)):
                with rec.installed(entries) if tracing else contextlib.nullcontext():
                    workloads.run_op(w, s, sink, traced if tracing else plain, clock)
    with rec.installed(entries):
        model_waste = w.model_waste_per_roll()
    naive_rate = statistics.median(naive_rolls_per_s(dicepool) for _ in range(NAIVE_REPEATS))
    cal.append(calibrate())
    factor = CAL_NOMINAL_NS / statistics.median(cal)
    ok = workloads.check(w, plain) + workloads.check(w, traced)

    traced_rolls = len(traced) * w.rolls_per_op
    spent = sum(plain.bits) - sum(plain.pool_left)
    measured_waste = (spent - len(plain) * w.entropy_per_op()) / (len(plain) * w.rolls_per_op)
    summary = tracer.summarize(rec)
    metrics = layer_metrics(summary, traced_rolls, factor)
    metrics.update({
        "pool.top_off.chunks_per_call": count_under(
            summary, ("sources.next_bits", "sources.counting"), "pool.top_off"
        ) / summary["pool.top_off"]["calls"],
        "pool.accept_ratio": summary["pool.roll"]["calls"] / count_under(
            summary, ("pool.roll_step",), "pool.roll"),
        "harness.bench_naive.rolls_per_s": naive_rate / factor,
        "harness.measured_waste_bits_per_roll": measured_waste,
        "analysis.model_waste_bits_per_roll": model_waste,
        "cli.bytes_out_per_roll": sum(traced.nbytes) / traced_rolls,
        "trace.overhead_ratio": sum(traced.latency_ns) / sum(plain.latency_ns),
        "trace.rolls": traced_rolls,
    })
    if spans_out is not None:
        rec.write_tsv(spans_out)
    detail = {"ops": len(plain), "samples": len(traced), "spans": len(rec),
              "failed_frac": ok.count(False) / len(ok), "speed_factor": factor}
    return metrics, ok, detail


def naive_rolls_per_s(dicepool) -> float:
    """Rate of the rejection-sampling reference on d6, untraced."""
    t0 = time.perf_counter()
    dicepool.harness.bench_naive(6, NAIVE_ROLLS, seed=1)
    return NAIVE_ROLLS / (time.perf_counter() - t0)


def count_under(summary, names, parent: str) -> int:
    return sum(summary[name].get("under:" + parent, 0) for name in names)


def layer_metrics(summary, rolls: int, factor: float) -> dict[str, float]:
    """Self time (scaled by `factor`) and calls per roll, per module and
    for the spans in SELF_TIME_SPANS."""
    metrics = {
        "sources.next_bits.calls_per_roll": summary["sources.next_bits"]["calls"] / rolls,
    }
    for name in SELF_TIME_SPANS:
        metrics[f"{name}.self_ns_per_roll"] = summary[name]["self_ns"] * factor / rolls
    for module in MODULES:
        parts = [v for k, v in summary.items() if k.split(".")[0] == module]
        metrics[f"{module}.self_ns_per_roll"] = sum(p["self_ns"] for p in parts) * factor / rolls
        metrics[f"{module}.calls_per_roll"] = sum(p["calls"] for p in parts) / rolls
    return metrics


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """Digest of dicepool's sources, which names the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "dicepool").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    dicepool = import_dicepool()
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    w = workloads.WORKLOADS[args.workload]()
    if args.trace:
        OUT.mkdir(exist_ok=True)
        metrics, ok, detail = run_traced(dicepool, w, args.seed, args.seconds,
                                         OUT / f"spans-{w.name}.tsv")
    else:
        metrics, ok, detail = run_untraced(w, args.seed, args.seconds)
    units = UNITS_PER_LAYER if args.trace else UNITS_END_TO_END
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **detail,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "source_digest": source_digest(),
    }
    for name, value in metrics.items():
        print(f"{name:40} {value:>16.6g} {units[name]}")
    if not args.trace:
        print(f"{'failed_frac':40} {detail['failed_frac']:>16.6g} ops/ops")
    print("record: " + json.dumps(record))
    failed = ok.count(False)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ok), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


UNITS_END_TO_END = {
    "setup_s": "s",
    "rolls_per_s": "rolls/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "bits_per_roll": "bits/roll",
    "peak_rss_mb": "MB",
}
UNITS_PER_LAYER = {
    **{f"{name}.self_ns_per_roll": "ns/roll" for name in SELF_TIME_SPANS + MODULES},
    **{f"{module}.calls_per_roll": "calls/roll" for module in MODULES},
    "sources.next_bits.calls_per_roll": "calls/roll",
    "pool.top_off.chunks_per_call": "chunks/call",
    "pool.accept_ratio": "ratio",
    "harness.bench_naive.rolls_per_s": "rolls/s",
    "harness.measured_waste_bits_per_roll": "bits/roll",
    "analysis.model_waste_bits_per_roll": "bits/roll",
    "cli.bytes_out_per_roll": "bytes/roll",
    "trace.overhead_ratio": "ratio",
    "trace.rolls": "count",
}

if __name__ == "__main__":
    sys.exit(main())
