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
    record = {
        "command": ["python", "tools/bench_record.py", *(argv or sys.argv[1:])],
        "seconds": seconds, "trace": 0, "seeds": list(seeds),
        "against": against, "workloads": workloads,
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
