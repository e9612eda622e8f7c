"""Write a BENCH_<n>.json record from perfbench runs, without editing perfbench.

Runs `perfbench/run.py` (end-to-end metrics, `--trace 0`, the run length
`BENCHMARK.json` sets) once per seed and workload in `BENCHMARK.json`,
parses each run's `record:` line and
its final JSON line, and writes, per workload and metric, the median and
quartiles over the seeds, plus every run's metrics, record, `correct`
and `failed`. From the repository root:

    python tools/bench_record.py --seeds 5 --first-seed 101
    python tools/bench_record.py --against HEAD~1 --seeds 10 --first-seed 201

Each side runs in its own temporary tree: the checkout's `src/` (or,
with `--against REV`, `git archive REV src/`) next to a copy of the
checkout's `perfbench/`, with no cached bytecode, so every run compiles
its sources as a fresh checkout does and both sides run the same
benchmark. With `--against`, each seed runs as a pair, the checkout and
REV in alternating order (the checkout first on even pairs), and each
metric also records REV's median and quartiles and how many pairs the
checkout won and lost (a tie is neither). Records name the code they
ran by `source_digest`. The checkout is only read, apart from the record
itself: the first free `BENCH_<n>.json` at the repository root.

The record's `versus` block sets the checkout's recycler against the
naive rejection sampler head to head, on a fixed grid: d6, d52 and d1000
at (word_bits, chunk_bits) = (64, 8) and (128, 64). For each cell,
`--seeds` pairs of `harness.bench_recycler` and `harness.bench_naive`
calls run alternately (the recycler first on even pairs), each in a
fresh process, and the block keeps each side's median rate, the median
pairwise ratio of the rates with its range, each side's bits drawn, summed
over the pairs, and so its exact bits per roll, and the interpreter's
version. Each `--python PATH` (repeatable) runs the same grid once more
under that interpreter, into one more block of `versus_pythons`:

    python tools/bench_record.py --seeds 10 --python python3.10 --python python3.13
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 600  # a run is its run length plus 5-40 s of set-up probes and checks


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `--trace 0` run of `tree`'s perfbench: its metrics, record and verdict."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode:
        raise SystemExit(f"error: {workload} seed {seed} in {tree} exited "
                         f"{done.returncode}: {done.stderr.strip()[-2000:]}")
    lines = done.stdout.splitlines()
    record = json.loads(next(l for l in lines if l.startswith("record: "))[len("record: "):])
    final = json.loads(lines[-1])
    return {
        "seed": seed, "correct": final["correct"], "attempted": final["attempted"],
        "failed": final["failed"],
        "metrics": {name: m["value"] for name, m in final["metrics"].items()},
        "record": record,
    }


def spread(values: list[float]) -> dict:
    """Median and quartiles, interpolated between the runs."""
    data = values if len(values) > 1 else values * 2  # quantiles needs two points
    q1, median, q3 = statistics.quantiles(data, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(metrics: list[dict], runs: list[dict], against: list[dict]) -> dict:
    summary = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        ours = [r["metrics"][name] for r in runs]
        entry = {"unit": m["unit"], "better": m["better"], **spread(ours)}
        if against:
            theirs = [r["metrics"][name] for r in against]
            wins = sum((a < b) if lower else (a > b) for a, b in zip(ours, theirs))
            losses = sum((a > b) if lower else (a < b) for a, b in zip(ours, theirs))
            entry.update(against=spread(theirs), pairs=len(ours), pair_wins=wins,
                         pair_losses=losses)
        summary[name] = entry
    return summary


# One bench call in a fresh process: its rolls per second (timed inside
# the call) and the bits it drew, as JSON.
BENCH_CALL = """
import json, platform, sys
from dicepool import harness
sampler, sides, rolls, seed, word_bits, chunk_bits = json.loads(sys.argv[1])
geometry = dict(word_bits=word_bits, chunk_bits=chunk_bits) if sampler == "recycler" else {}
report = getattr(harness, "bench_" + sampler)(sides, rolls, seed, **geometry)
print(json.dumps([rolls / report.elapsed, report.bits_in, platform.python_version()]))
"""


def bench_call(tree: Path, python: str, *args) -> list:
    """`BENCH_CALL` run by `python` on `tree`'s sources: [rolls/s, bits drawn,
    Python version]."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([python, "-c", BENCH_CALL, json.dumps(args)], cwd=tree,
                          env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode:
        raise SystemExit(f"error: bench call {args} exited {done.returncode}: "
                         f"{done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout)


def head_to_head(pairs: list[tuple[list, list]], rolls: int) -> dict:
    """One `versus` cell from its (recycler, naive) pairs of `bench_call` results."""
    ratios = [recycler[0] / naive[0] for recycler, naive in pairs]
    bits = {"recycler_bits": sum(r[1] for r, _ in pairs),
            "naive_bits": sum(n[1] for _, n in pairs)}
    return {
        "pairs": len(pairs), "rolls": rolls,
        "recycler_rolls_per_s": statistics.median(r[0] for r, _ in pairs),
        "naive_rolls_per_s": statistics.median(n[0] for _, n in pairs),
        "ratio": {"median": statistics.median(ratios), "min": min(ratios), "max": max(ratios)},
        **bits, **{name + "_per_roll": total / (rolls * len(pairs))
                   for name, total in bits.items()},
    }


def versus(tree: Path, seeds: range, python: str = sys.executable) -> dict:
    """A `versus` block: the recycler against bench_naive on the grid, run by `python`."""
    rolls, cells, version = 200_000, [], None
    for word_bits, chunk_bits in ((64, 8), (128, 64)):
        for sides in (6, 52, 1000):
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("recycler", "naive") if i % 2 == 0 else ("naive", "recycler")
                calls = {sampler: bench_call(tree, python, sampler, sides, rolls, seed,
                                             word_bits, chunk_bits) for sampler in order}
                pairs.append((calls["recycler"], calls["naive"]))
                version = calls["recycler"][2]
            cells.append({"sides": sides, "word_bits": word_bits, "chunk_bits": chunk_bits,
                          **head_to_head(pairs, rolls)})
            print(f"versus d{sides} at ({word_bits}, {chunk_bits}), Python {version}: "
                  f"recycler/naive {cells[-1]['ratio']['median']:.3f}x", file=sys.stderr)
    return {"python": version, "cells": cells}


def fill_tree(into: Path, rev: str | None) -> str | None:
    """Put REV's src/ (the checkout's if REV is None) and the checkout's
    perfbench/ into `into`, leaving out cached bytecode; REV's full hash."""
    commit = None
    if rev is None:
        shutil.copytree(ROOT / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__"))
    else:
        commit = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                                cwd=ROOT, capture_output=True, text=True,
                                check=True).stdout.strip()
        archive = subprocess.run(["git", "archive", commit, "src/"], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        into.mkdir()
        subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    shutil.copytree(ROOT / "perfbench", into / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    return commit


def next_record_path() -> Path:
    n = 0
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5, help="runs (or pairs) per workload")
    parser.add_argument("--first-seed", type=int, default=1, help="seeds are consecutive")
    parser.add_argument("--against", metavar="REV", help="run alternating pairs against REV")
    parser.add_argument("--python", metavar="PATH", action="append", default=[],
                        help="one more versus block run by this interpreter (repeatable)")
    args = parser.parse_args(argv)
    if args.seeds < 1 or args.first_seed < 0:
        parser.error("--seeds must be positive and --first-seed nonnegative")
    out, seconds = next_record_path(), spec["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    with tempfile.TemporaryDirectory() as tmp:
        ours, other = Path(tmp, "checkout"), Path(tmp, "against")
        fill_tree(ours, None)
        against = fill_tree(other, args.against) if args.against else None
        workloads = {}
        for name in names:
            runs, theirs = [], []
            for i, seed in enumerate(seeds):
                sides = [(ours, runs)] + ([(other, theirs)] if against else [])
                for tree, into in sides if i % 2 == 0 else sides[::-1]:
                    start = time.perf_counter()
                    into.append(run_once(tree, name, seed, seconds))
                    side = "checkout" if tree == ours else "against"
                    print(f"{name} seed {seed} {side}: "
                          f"p50 {into[-1]['metrics']['latency_ms_p50']:.3f} ms, "
                          f"correct {into[-1]['correct']} "
                          f"({time.perf_counter() - start:.0f} s)", file=sys.stderr)
            workloads[name] = {
                "metrics": summarize(spec["end_to_end"], runs, theirs),
                "runs": runs,
                **({"against_runs": theirs} if against else {}),
            }
        head = versus(ours, seeds)
        others = [versus(ours, seeds, python) for python in args.python]
    record = {
        "command": ["python", "tools/bench_record.py", *(argv or sys.argv[1:])],
        "seconds": seconds, "trace": 0, "seeds": list(seeds),
        "against": against, "workloads": workloads, "versus": head,
        "versus_pythons": others,
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
