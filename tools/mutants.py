"""Mutation gate: each one-line bug in the table must fail the tests named for it.

For each row, `src/`, `tests/` and `pyproject.toml` are copied into a
temporary directory; the named tests must pass on the unmutated copy,
then the row's edit is applied and the same tests must fail. The
checkout itself is never written (no bytecode, no pytest or hypothesis
cache). Run from anywhere:

    python tools/mutants.py

Exit status 0 iff every mutant is killed. A row whose old text does not
occur exactly once, whose tests fail unmutated, or whose run errors
instead of failing also fails the gate. A surviving mutant is a gap in
the tests: fix the tests, never drop the row.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

POOL, CLI = "tests/test_pool.py::", "tests/test_cli.py::"

# (file under src/dicepool, old text occurring exactly once, new text, test node ids)
MUTANTS = [
    ("pool.py", "if quotient < keep:", "if quotient <= keep:",
     [POOL + "test_roll_step_matches_divmod_cutoff_form"]),
    ("pool.py", "return value % sides", "return quotient % sides",
     [POOL + "test_roll_pinned_outcomes_and_bits"]),
    ("pool.py", "self.value = value - cutoff", "self.value = value - cutoff - 1",
     [POOL + "test_roll_step_discard_path"]),
    ("pool.py", "drawn = -(-deficit // chunk) * chunk",
     "drawn = (-(-deficit // chunk) + 1) * chunk",
     [POOL + "test_top_off_single_chunk"]),
    ("pool.py", "drawn = -(-deficit // chunk) * chunk",
     "drawn = deficit // chunk * chunk",
     [POOL + "test_top_off_two_chunks_big_endian"]),
    ("pool.py", "(size - 1).bit_length()", "size.bit_length()",
     [POOL + "test_top_off_boundary_sizes_match_chunk_loop"]),
    ("pool.py", "if self.size <= ceiling:", "if self.size < ceiling:",
     [POOL + "test_roll_matches_refill_every_pass_reference"]),
    ("radix.py", "for n in ranges:\n        digits",
     "for n in reversed(ranges):\n        digits",
     ["tests/test_radix.py::test_decode_least_significant_first"]),
    ("sources.py", "self._buf, self._nbuf = buf",
     "type(self)._buf, type(self)._nbuf = buf",
     ["tests/test_sources.py::test_seeded_sources_share_no_buffer"]),
    ("cli.py", "finally:\n            if row:",
     "finally:\n            pass\n        if row:",
     [CLI + "test_lines_before_tape_runs_out_are_kept"]),
    ("cli.py", "max(1, BLOCK_BYTES // line_bytes)", "max(1, count)",
     [CLI + "test_roll_blocks_are_bounded_in_size"]),
    ("cli.py", "max(1, BLOCK_BYTES // line_bytes)",
     "max(1, min(1024, BLOCK_BYTES // line_bytes))",
     [CLI + "test_plan_lines_match_roll_batch_in_whole_bounded_blocks"]),
    ("cli.py", "row.append(pool.roll(sides, source))", "pool.roll(sides, source)",
     [CLI + "test_roll_seeded_fixture"]),
    ("cli.py", "row += roll_batch(pool, plan, source)",
     "row = roll_batch(pool, plan, source)",
     [CLI + "test_roll_batched_plan"]),
    ("cli.py", "range(min(per_block, count - start))", "range(per_block)",
     [CLI + "test_roll_plan_lines_across_block_boundaries"]),
    ("cli.py", "1, pool.refill_ceiling)", "1, pool.refill_ceiling + 1)",
     [CLI + "test_roll_count_bounds"]),
    ("cli.py", "1, pool.refill_ceiling)", "1, pool.refill_ceiling - 1)",
     [CLI + "test_roll_count_bounds"]),
    ("cli.py", "if len(text) > MAX_INT_TEXT:", "if len(text) >= MAX_INT_TEXT:",
     [CLI + "test_roll_refuses_a_plan_part_too_long_to_parse"]),
]


def run_tests(copy: Path, ids: list[str]) -> int:
    """pytest's exit status for `ids` in `copy`, importing dicepool from the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *ids]
    return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def check(path: str, old: str, new: str, ids: list[str]) -> str:
    """'killed', or why the row fails the gate."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / "src" / "dicepool" / path
        text = target.read_text()
        if text.count(old) != 1:
            return f"old text occurs {text.count(old)} times"
        if run_tests(copy, ids) != 0:
            return "tests fail on the unmutated copy"
        target.write_text(text.replace(old, new))
        status = run_tests(copy, ids)
    return {0: "SURVIVED", 1: "killed"}.get(status, f"pytest exited {status}")


def main() -> int:
    start, failed = time.perf_counter(), 0
    for path, old, new, ids in MUTANTS:
        row_start = time.perf_counter()
        verdict = check(path, old, new, ids)
        failed += verdict != "killed"
        edit = f"{old.strip()!r} -> {new.strip()!r}"
        print(f"{verdict:8} {path}: {edit} ({time.perf_counter() - row_start:.1f} s)")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
