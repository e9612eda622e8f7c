"""Mutation gate: each one-line bug in the table must fail the tests named for it.

One gate run works in WORKERS temporary trees: `src/`, `tests/` and
`pyproject.toml` are copied into each once, and the union of every row's
named tests must pass unmutated, in one pytest run, before any row runs.
Rows then run WORKERS at a time, each in a tree no other row is using:
a row writes its edit into its tree, runs its own tests, which must
fail, and writes the original file back in place. No bytecode is
written (a restored file with the same size and mtime second could
otherwise load the mutant's), and the tree's hypothesis database is
deleted after each row, so no example found under one mutant is
replayed under the next. The checkout itself is never written. Run from
anywhere:

    python tools/mutants.py

Exit status 0 iff every mutant is killed. Named tests that fail
unmutated, or a row whose old text does not occur exactly once or whose
run errors or times out (after ROW_TIMEOUT_S) instead of failing, also
fail the gate. A surviving mutant is a gap in the tests: fix the tests,
never drop the row.
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# A mutant can make a named test run for minutes instead of failing (roll_step
# accepting `quotient <= keep` does in test_unroll_long_seeded_run); its row
# fails the gate after this long.
ROW_TIMEOUT_S = 120
# Rows run this many at a time, one pytest process each, so that the whole
# gate stays within about two minutes on two cores.
WORKERS = min(2, os.cpu_count() or 1)

POOL, CLI, RADIX = "tests/test_pool.py::", "tests/test_cli.py::", "tests/test_radix.py::"
FROZEN = "tests/test_frozen_outputs.py::test_frozen_output"
EXHAUSTIVE = "tests/test_exhaustive.py::test_roll_matches_the_reference_loop_everywhere"
MANY = "tests/test_exhaustive.py::test_roll_many_matches_the_reference_loop_on_every_pair"
# roll's refill repeats this line of top_off; the line after it tells them apart
TOP_OFF_DRAWN = ("drawn = (self.word_bits - (size - 1).bit_length()) // chunk * chunk\n"
                 "        piece")
# top_off repeats this line of roll's refill block; the line after it tells them apart
ROLL_DRAWN = "self.bits_drawn += drawn\n                size"
# roll_many repeats these lines of roll; roll's comment and next line tell them apart
ROLL_REFILL_DUE = "if size <= ceiling:  # a refill is due"
ROLL_ACCEPT = "if quotient < keep:\n                self.size = keep"

# (file under src/dicepool, old text occurring exactly once, new text, test node ids)
MUTANTS = [
    ("pool.py", "if quotient < keep:  # for ints", "if quotient <= keep:  # for ints",
     [EXHAUSTIVE, POOL + "test_roll_step_matches_divmod_cutoff_form"]),
    ("pool.py", "self.value = quotient\n            return value % sides",
     "self.value = quotient\n            return quotient % sides",
     [EXHAUSTIVE, POOL + "test_roll_pinned_outcomes_and_bits"]),
    ("pool.py", "        self.value = value - cutoff\n        return None",
     "        self.value = value - cutoff - 1\n        return None",
     [EXHAUSTIVE, POOL + "test_roll_step_discard_path"]),
    ("pool.py", "if size > self.refill_ceiling:", "if size >= self.refill_ceiling:",
     [EXHAUSTIVE, POOL + "test_top_off_boundary_sizes_match_chunk_loop"]),
    ("pool.py", TOP_OFF_DRAWN,
     TOP_OFF_DRAWN.replace("// chunk * chunk", "// chunk * chunk + chunk"),
     [EXHAUSTIVE, POOL + "test_top_off_single_chunk"]),
    ("pool.py", TOP_OFF_DRAWN, TOP_OFF_DRAWN.replace("(self.word_bits", "(self.word_bits - 1"),
     [EXHAUSTIVE, POOL + "test_top_off_two_chunks_big_endian"]),
    ("pool.py", TOP_OFF_DRAWN,
     TOP_OFF_DRAWN.replace("(size - 1).bit_length()", "size.bit_length()"),
     [EXHAUSTIVE, POOL + "test_top_off_boundary_sizes_match_chunk_loop"]),
    ("pool.py", ROLL_REFILL_DUE, ROLL_REFILL_DUE.replace("ceiling", "ceiling + 1"),
     [EXHAUSTIVE, POOL + "test_roll_matches_refill_every_pass_reference",
      POOL + "test_pool_at_the_ceiling_refills_and_above_it_does_not"]),
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
    ("cli.py", "pool.roll_many(repeat(sides, len(lines)), source, row)",
     "pool.roll_many(repeat(sides, len(lines)), source)",
     [FROZEN + "[roll -n 6 -c 3 --source seeded --seed 1]"]),
    ("cli.py", "row += roll_batch(pool, plan, source)",
     "row = roll_batch(pool, plan, source)",
     [FROZEN + "[roll --plan 2,3,52 -c 3 --source seeded --seed 1]"]),
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
     [FROZEN + "[roll -n 6 -c 3 --source seeded --seed 1]"]),
    ("cli.py", "                    sys.stdout.write(text[:2 * len(row)].decode())\n",
     "                    pass\n        if row and not wide:\n"
     "            sys.stdout.write(text[:2 * len(row)].decode())\n",
     [CLI + "test_lines_before_tape_runs_out_are_kept"]),
    # roll's inline pass and refill, appended so the rows above keep their test ids
    ("pool.py", ROLL_REFILL_DUE, ROLL_REFILL_DUE.replace("<=", "<"),
     [EXHAUSTIVE, POOL + "test_pool_at_the_ceiling_refills_and_above_it_does_not"]),
    ("pool.py", ROLL_ACCEPT, ROLL_ACCEPT.replace("<", "<="),
     [EXHAUSTIVE, POOL + "test_full_pool_in_the_sliver_rejects_then_refills"]),
    ("pool.py", "self.value = quotient\n                return value % sides",
     "self.value = quotient\n                return quotient % sides",
     [EXHAUSTIVE, POOL + "test_pool_at_the_ceiling_refills_and_above_it_does_not"]),
    # roll_many's one-chunk band, worked out once per call
    ("pool.py", "floor = ceiling >> chunk", "floor = ceiling >> chunk + 1", [MANY]),
    # roll's refill block and its inline reject
    ("pool.py", ROLL_DRAWN, ROLL_DRAWN.replace("+= drawn", "+= drawn - 1"),
     [EXHAUSTIVE, POOL + "test_roll_at_the_band_edges_matches_reference"]),
    ("pool.py", "            cutoff = sides * keep\n", "            cutoff = sides * keep - 1\n",
     [EXHAUSTIVE, POOL + "test_one_chunk_refill_then_reject_matches_reference"]),
    # only the empty pool takes the reference pair; every other refill is
    # roll's refill block at top_off's width
    ("pool.py", "if size == 1:", "if size == 2:",
     [CLI + "test_plan_product_refills_are_read_inline"]),
    ("pool.py", "size <<= drawn", "size <<= self.chunk_bits",
     [EXHAUSTIVE, POOL + "test_wide_refill_is_inline_and_matches_reference"]),
    ("pool.py", ROLL_DRAWN, "size",
     [EXHAUSTIVE, POOL + "test_wide_refill_is_inline_and_matches_reference"]),
    ("pool.py", "// chunk * chunk\n                value", "// chunk\n                value",
     [EXHAUSTIVE]),
    # roll's refusal of a negative value before its refill block reads a bit
    ("pool.py", "if value < 0:  # corrupt", "if False:  # corrupt",
     [POOL + "test_negative_value_is_refused_at_its_first_refill"]),
    ("pool.py", "if value < 0:  # corrupt", "if value < -1:  # corrupt",
     [POOL + "test_corrupt_pool_is_refused_not_spun"]),
    # roll's refusal of a corrupt state: value >= size at a reject, and any
    # value but 0 in a one-state pool before its fill reads a bit
    ("pool.py", "if value >= size:  # corrupt", "if False:  # corrupt",
     [POOL + "test_corrupt_pool_is_refused_not_spun"]),
    ("pool.py", "if self.value:", "if False:",
     [POOL + "test_corrupt_pool_is_refused_not_spun"]),
    ("pool.py", "if value >= size:  # corrupt", "if value > size:  # corrupt",
     [POOL + "test_corrupt_pool_is_refused_not_spun"]),
    ("pool.py", "if self.value:", "if self.value > 0:",
     [POOL + "test_corrupt_pool_is_refused_not_spun"]),
    # next_bits takes its bits off the buffer and pulls a word only when short
    ("sources.py", "buf - (out << nbuf), nbuf", "buf, nbuf",
     ["tests/test_sources.py::test_seeded_chunked_reads_spell_one_wide_read"]),
    ("sources.py", "while nbuf < 0:", "while nbuf <= 0:",
     ["tests/test_sources.py::test_a_read_pulls_only_the_words_it_needs"]),
    # from_snapshot keeps the chunk size and refuses value == size
    ("pool.py", "pool = cls(word_bits, chunk_bits)", "pool = cls(word_bits)",
     [POOL + "test_snapshot_round_trip"]),
    ("pool.py", "0, pool.size - 1)", "0, pool.size)", [POOL + "test_snapshot_validation"]),
    # top_off reading one chunk short into the empty pool, where roll calls it
    ("pool.py", "        piece = source.next_bits(drawn)\n",
     "        drawn -= chunk if size == 1 and drawn > chunk else 0\n"
     "        piece = source.next_bits(drawn)\n",
     [EXHAUSTIVE]),
    # roll_many: its state write-backs, its route choice, its refill and its guards
    ("pool.py", "finally:\n            self.size, self.value = size, value",
     "finally:\n            pass", [MANY, POOL + "test_roll_many_matches_the_reference_loop"]),
    ("pool.py", "finally:\n                                size, value = self.size, self.value",
     "finally:\n                                pass", [MANY]),
    ("pool.py", "if size <= floor:", "if size < floor:", [MANY]),
    ("pool.py", "self.bits_drawn += chunk", "pass",
     [MANY, POOL + "test_roll_many_matches_the_reference_loop"]),
    ("pool.py", "cutoff = n * keep", "cutoff = n * keep - 1", [MANY]),
    ("pool.py", "if not 1 <= n <= ceiling:", "if not 1 <= n <= ceiling + 1:",
     [POOL + "test_roll_many_matches_the_reference_loop"]),
    ("pool.py", "if value < 0:  # a corrupt state", "if False:  # a corrupt state",
     [POOL + "test_roll_many_refuses_a_corrupt_pool_as_roll_does"]),
    ("pool.py", "if value >= size:  # a corrupt state", "if False:  # a corrupt state",
     [POOL + "test_roll_many_refuses_a_corrupt_pool_as_roll_does"]),
    # the bulk callers: bench's reused block, shuffle's dice
    ("harness.py", "block.clear()", "pass",
     [FROZEN + "[bench -n 6 --rolls 20000 --seed 1 --baseline]"]),
    ("harness.py", "pool.roll_many(range(deck, 1, -1), source)",
     "pool.roll_many(range(deck - 1, 0, -1), source)",
     ["tests/test_harness.py::test_shuffle_fixture"]),
]


def run_tests(tree: Path, ids: list[str], timeout: float | None = None) -> int | None:
    """pytest's exit status for `ids` in `tree`, importing dicepool from the
    tree, or None if it ran past `timeout` seconds (it is killed then)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *ids]
    try:
        return subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None


def mutate(tree: Path, path: str, old: str, new: str, ids: list[str]) -> str:
    """'killed', or why the row fails the gate; the file is restored either way."""
    target = tree / "src" / "dicepool" / path
    text = target.read_text()
    if text.count(old) != 1:
        return f"old text occurs {text.count(old)} times"
    try:
        target.write_text(text.replace(old, new))
        status = run_tests(tree, ids, ROW_TIMEOUT_S)
    finally:
        target.write_text(text)
        shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    if status is None:
        return f"timed out after {ROW_TIMEOUT_S} s"
    return {0: "SURVIVED", 1: "killed"}.get(status, f"pytest exited {status}")


def main() -> int:
    start, failed = time.perf_counter(), 0
    with tempfile.TemporaryDirectory() as tmp:
        free: queue.SimpleQueue[Path] = queue.SimpleQueue()  # trees no row is using
        for worker in range(WORKERS):
            tree = Path(tmp) / str(worker)
            for name in ("src", "tests"):
                shutil.copytree(ROOT / name, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "pyproject.toml", tree)
            free.put(tree)
        named = list(dict.fromkeys(i for *_, ids in MUTANTS for i in ids))
        status = run_tests(tree, named)
        if status != 0:
            print(f"the {len(named)} named tests fail unmutated (pytest exited {status}); "
                  "no row was run")
            return 1
        print(f"{len(named)} named tests pass unmutated "
              f"({time.perf_counter() - start:.1f} s)")

        def run_row(row):
            tree, row_start = free.get(), time.perf_counter()
            try:
                return mutate(tree, *row), time.perf_counter() - row_start
            finally:
                free.put(tree)

        with ThreadPoolExecutor(WORKERS) as rows:
            for (path, old, new, _), (verdict, seconds) in zip(MUTANTS,
                                                                rows.map(run_row, MUTANTS)):
                failed += verdict != "killed"
                edit = f"{old.strip()!r} -> {new.strip()!r}"
                print(f"{verdict:8} {path}: {edit} ({seconds:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
