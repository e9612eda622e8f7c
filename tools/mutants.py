"""Mutation gate: each one-line bug in the table must fail the tests named for it.

One gate run works in one temporary tree: `src/`, `tests/` and
`pyproject.toml` are copied into it once, and the union of every row's
named tests must pass there unmutated, in one pytest run, before any row
runs. Each row then writes its edit into the tree, runs its own tests,
which must fail, and writes the original file back in place. No
bytecode is written (a restored file with the same size and mtime second
could otherwise load the mutant's), and the tree's hypothesis database
is deleted after each row, so no example found under one mutant is
replayed under the next. The checkout itself is never written. Run from
anywhere:

    python tools/mutants.py

Exit status 0 iff every mutant is killed. Named tests that fail
unmutated, or a row whose old text does not occur exactly once or whose
run errors instead of failing, also fail the gate. A surviving mutant is
a gap in the tests: fix the tests, never drop the row.
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

POOL, CLI, RADIX = "tests/test_pool.py::", "tests/test_cli.py::", "tests/test_radix.py::"

# (file under src/dicepool, old text occurring exactly once, new text, test node ids)
MUTANTS = [
    ("pool.py", "if quotient < keep:", "if quotient <= keep:",
     [POOL + "test_roll_step_matches_divmod_cutoff_form"]),
    ("pool.py", "return value % sides", "return quotient % sides",
     [POOL + "test_roll_pinned_outcomes_and_bits"]),
    ("pool.py", "self.value = value - cutoff", "self.value = value - cutoff - 1",
     [POOL + "test_roll_step_discard_path"]),
    ("pool.py", "if size > self.refill_ceiling:", "if size >= self.refill_ceiling:",
     [POOL + "test_top_off_boundary_sizes_match_chunk_loop"]),
    ("pool.py", "// chunk * chunk", "// chunk * chunk + chunk",
     [POOL + "test_top_off_single_chunk"]),
    ("pool.py", "(self.word_bits - (size", "(self.word_bits - 1 - (size",
     [POOL + "test_top_off_two_chunks_big_endian"]),
    ("pool.py", "(size - 1).bit_length()", "size.bit_length()",
     [POOL + "test_top_off_boundary_sizes_match_chunk_loop"]),
    ("pool.py", "if self.size <= ceiling:", "if self.size < ceiling:",
     [POOL + "test_roll_matches_refill_every_pass_reference"]),
    ("radix.py", "for n in ranges:\n        digits",
     "for n in reversed(ranges):\n        digits",
     [RADIX + "test_decode_least_significant_first"]),
    ("radix.py", "[digits[::-1] for digits", "[digits for digits",
     [RADIX + "test_plan_groups_fill_each_table_cap"]),
    ("radix.py", "> TABLE_DIGITS:", ">= TABLE_DIGITS:",
     [RADIX + "test_plan_groups_fill_each_table_cap"]),
    ("radix.py", "size * (len(groups[-1]) + 1) > TABLE_DIGITS",
     "size * len(groups[-1]) > TABLE_DIGITS",
     [RADIX + "test_plan_groups_fill_each_table_cap"]),
    ("radix.py", "len(tabled) < MAX_TABLES", "len(tabled) <= MAX_TABLES",
     [RADIX + "test_table_memory_is_bounded_by_constants"]),
    ("radix.py", "return cls(next(iter(fields)))", "return tuple.__new__(cls, fields)",
     ["tests/test_records.py::test_plan_replace_and_make_rebuild_from_the_ranges"]),
    ("radix.py", "        if table is None:\n            digits.append(value % size)\n"
     "        else:\n            digits += table[value % size]\n        value //= size",
     "        value //= size\n        if table is None:\n            digits.append(value % size)\n"
     "        else:\n            digits += table[value % size]",
     [RADIX + "test_table_decoding_matches_decode_mixed_radix"]),
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
    ("cli.py", "wide = max(ranges) > 10", "wide = max(ranges) > 11",
     [CLI + "test_plan_lines_match_roll_batch_in_whole_bounded_blocks"]),
    ("cli.py", "text[:2 * len(row):2] =", "text[1:2 * len(row):2] =",
     [CLI + "test_roll_seeded_fixture"]),
    ("cli.py", "                    sys.stdout.write(text[:2 * len(row)].decode())\n",
     "                    pass\n        if row and not wide:\n"
     "            sys.stdout.write(text[:2 * len(row)].decode())\n",
     [CLI + "test_lines_before_tape_runs_out_are_kept"]),
]


def run_tests(tree: Path, ids: list[str]) -> int:
    """pytest's exit status for `ids` in `tree`, importing dicepool from the tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *ids]
    return subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def mutate(tree: Path, path: str, old: str, new: str, ids: list[str]) -> str:
    """'killed', or why the row fails the gate; the file is restored either way."""
    target = tree / "src" / "dicepool" / path
    text = target.read_text()
    if text.count(old) != 1:
        return f"old text occurs {text.count(old)} times"
    try:
        target.write_text(text.replace(old, new))
        status = run_tests(tree, ids)
    finally:
        target.write_text(text)
        shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    return {0: "SURVIVED", 1: "killed"}.get(status, f"pytest exited {status}")


def main() -> int:
    start, failed = time.perf_counter(), 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        named = list(dict.fromkeys(i for *_, ids in MUTANTS for i in ids))
        status = run_tests(tree, named)
        if status != 0:
            print(f"the {len(named)} named tests fail unmutated (pytest exited {status}); "
                  "no row was run")
            return 1
        print(f"{len(named)} named tests pass unmutated "
              f"({time.perf_counter() - start:.1f} s)")
        for path, old, new, ids in MUTANTS:
            row_start = time.perf_counter()
            verdict = mutate(tree, path, old, new, ids)
            failed += verdict != "killed"
            edit = f"{old.strip()!r} -> {new.strip()!r}"
            print(f"{verdict:8} {path}: {edit} ({time.perf_counter() - row_start:.1f} s)")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
