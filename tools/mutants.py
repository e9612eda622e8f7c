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
SHORT_TAPE = POOL + "test_roll_many_on_a_short_tape_runs_out_where_the_roll_loop_does"
BULK_BATCH = RADIX + "test_bulk_roll_batch_matches_one_reference_batch_per_draw"
EMPTIED = POOL + "test_roll_many_gives_back_its_read_ahead_before_roll_fills_an_emptied_pool"
COUNT = "tests/test_exhaustive.py::test_roll_many_count_matches_the_reference_loop_everywhere"
COUNT_ANY = POOL + "test_roll_many_count_matches_the_reference_loop"
GATE = POOL + "test_the_count_form_fuses_only_small_dice"
SCALAR = "tests/test_sources.py::test_seeded_source_is_scalar_splitmix64"
# the refill width, in top_off and in roll_many's wide branch
TOP_OFF_DRAWN = "drawn = (self.word_bits - (size - 1).bit_length()) // chunk * chunk"
MANY_DRAWN = "drawn = (word_bits - (size - 1).bit_length()) // chunk * chunk"
# roll and roll_many open with the same state check; the line after it tells them apart
ROLL_STATE = ("if not 0 <= value < size:  # corrupt: a valid state stays valid until return\n"
              "            raise ValueError(_refusal(\"value\", value, 0, size - 1))\n        sides")
MANY_STATE = ROLL_STATE.replace("sides", "if out")
# the iterable loop's refill test; the count form's is followed by its hand-off test
MANY_REFILL = "if size <= ceiling:\n                            if size > floor:"
# the iterable loop's give-back before roll fills the empty pool
UNREAD_LINE = "                                source.unread(ahead & ((1 << left) - 1), left)\n"
DRAWN_LINE = "                                self.bits_drawn -= left\n"
EMPTY_GIVE_BACK = UNREAD_LINE + DRAWN_LINE

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
    ("pool.py", MANY_REFILL, MANY_REFILL.replace("ceiling:", "ceiling + 1:"),
     [MANY, POOL + "test_roll_many_matches_the_reference_loop"]),
    ("radix.py", "for n in ranges:\n        digits",
     "for n in reversed(ranges):\n        digits",
     [RADIX + "test_decode_least_significant_first"]),
    ("radix.py", "_table(group)", "_table(group[::-1])",
     [RADIX + "test_table_decoding_matches_decode_mixed_radix"]),
    ("radix.py", "> TABLE_DIGITS:", ">= TABLE_DIGITS:",
     [RADIX + "test_plan_groups_fill_each_table_cap"]),
    ("radix.py", "size * (len(groups[-1]) + 1) > TABLE_DIGITS",
     "size * len(groups[-1]) > TABLE_DIGITS",
     [RADIX + "test_plan_groups_fill_each_table_cap"]),
    ("radix.py", "len(tabled) < MAX_TABLES", "len(tabled) <= MAX_TABLES",
     [RADIX + "test_table_memory_is_bounded_by_constants"]),
    ("radix.py", "return cls(next(iter(fields)))", "return tuple.__new__(cls, fields)",
     ["tests/test_records.py::test_plan_replace_and_make_rebuild_from_the_ranges"]),
    ("radix.py", "                if table is None:\n                    append(value % size)\n"
     "                else:\n                    out += table[value % size]\n"
     "                value //= size",
     "                value //= size\n                if table is None:\n"
     "                    append(value % size)\n"
     "                else:\n                    out += table[value % size]",
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
    ("cli.py", "pool.roll_many(sides, source, row, count=len(lines))",
     "pool.roll_many(sides, source, count=len(lines))",
     [FROZEN + "[roll -n 6 -c 3 --source seeded --seed 1]"]),
    ("cli.py", "roll_batch(pool, plan, source, len(lines), row)",
     "roll_batch(pool, plan, source, len(lines))",
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
    # roll_many's refill test, roll's die left unconverted, roll_many's outcome
    ("pool.py", MANY_REFILL, MANY_REFILL.replace("<= ceiling", "< ceiling"), [MANY]),
    ("pool.py", "sides = index(sides)  # inline, not _int_in: this runs once per roll",
     "pass  # inline, not _int_in: this runs once per roll",
     [POOL + "test_roll_refuses_non_integer_die"]),
    ("pool.py", "append(value % n)\n                            size, value = keep, quotient\n"
     "                            break",
     "append(quotient % n)\n                            size, value = keep, quotient\n"
     "                            break", [MANY]),
    # roll_many's one-chunk band, worked out once per call
    ("pool.py", "floor = ceiling >> chunk", "floor = ceiling >> chunk + 1", [MANY]),
    # roll's pass made before its refill, roll_many's reject keeping its size.
    # (Dropping roll's top_off, or taking an outcome of 0 for a reject, would
    # spin forever on an empty pool or a d1 instead of failing a test.)
    ("pool.py", "self.top_off(source)\n            outcome = self.roll_step(sides)\n",
     "outcome = self.roll_step(sides)\n            self.top_off(source)\n",
     [EXHAUSTIVE, POOL + "test_roll_calls_the_reference_pair_once_per_pass",
      POOL + "test_roll_matches_refill_every_pass_reference",
      POOL + "test_pool_at_the_ceiling_refills_and_above_it_does_not",
      POOL + "test_roll_at_the_band_edges_matches_reference"]),
    ("pool.py", "\n                        size -= cutoff", "\n                        pass",
     [MANY]),
    # in roll_many only the empty pool goes through roll and so the reference
    # pair; every other refill is read inline, the wide ones at top_off's width
    ("pool.py", "elif size == 1:", "elif size == 2:",
     [CLI + "test_plan_product_refills_are_read_inline"]),
    ("pool.py", "left -= drawn", "left -= chunk",
     [MANY, POOL + "test_wide_refill_is_inline_and_matches_reference"]),
    # roll returning a reject, roll_many's wide refill counted in chunks
    ("pool.py", "if outcome is not None:", "if True:",
     [EXHAUSTIVE, POOL + "test_roll_calls_the_reference_pair_once_per_pass",
      POOL + "test_full_pool_in_the_sliver_rejects_then_refills",
      POOL + "test_one_chunk_refill_then_reject_matches_reference"]),
    ("pool.py", MANY_DRAWN, MANY_DRAWN.replace("// chunk * chunk", "// chunk"),
     [MANY, POOL + "test_wide_refill_is_inline_and_matches_reference"]),
    # the state check on entry to roll, then to roll_many (its other rows are
    # below), and roll's die check
    ("pool.py", ROLL_STATE, ROLL_STATE.replace("not 0 <= value < size", "False"),
     [POOL + "test_corrupt_pool_is_refused_not_spun"]),
    ("pool.py", ROLL_STATE, ROLL_STATE.replace("0 <= value", "-1 <= value"),
     [POOL + "test_negative_value_is_refused_at_its_first_refill"]),
    ("pool.py", ROLL_STATE, ROLL_STATE.replace("value < size", "value <= size"),
     [POOL + "test_corrupt_pool_is_refused_not_spun"]),
    ("pool.py", MANY_STATE, MANY_STATE.replace("not 0 <= value < size", "False"),
     [POOL + "test_roll_many_refuses_a_corrupt_pool_as_roll_does"]),
    ("pool.py", "ValueError if sides < 1 else RangeTooLarge", "ValueError",
     [POOL + "test_full_pool_refuses_a_bad_die_untouched"]),
    ("pool.py", "if not 1 <= sides <= ceiling:", "if not 1 <= sides <= ceiling + 1:",
     [POOL + "test_full_pool_refuses_a_bad_die_untouched"]),
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
    # roll_many: its state write-backs, its route choice, its refill and its checks
    ("pool.py", "finally:\n            self.size, self.value = size, value",
     "finally:\n            pass", [MANY, POOL + "test_roll_many_matches_the_reference_loop"]),
    ("pool.py", "finally:\n                                    size, value = self.size, self.value\n"
     "                                break",
     "finally:\n                                    pass\n                                break",
     [MANY]),
    ("pool.py", "if size > floor:", "if size >= floor:", [MANY]),
    ("pool.py", "self.bits_drawn += span  # less what is given back\n"
     "                                left -= chunk",
     "pass\n                                left -= chunk",
     [MANY, POOL + "test_roll_many_matches_the_reference_loop"]),
    ("pool.py", "\n                        cutoff = n * keep",
     "\n                        cutoff = n * keep - 1", [MANY]),
    ("pool.py", "if not 1 <= n <= ceiling:", "if not 1 <= n <= ceiling + 1:",
     [POOL + "test_roll_many_matches_the_reference_loop"]),
    ("pool.py", MANY_STATE, MANY_STATE.replace("0 <= value", "-1 <= value"),
     [POOL + "test_roll_many_refuses_a_corrupt_pool_as_roll_does"]),
    ("pool.py", MANY_STATE, MANY_STATE.replace("value < size", "value <= size"),
     [POOL + "test_roll_many_refuses_a_corrupt_pool_as_roll_does"]),
    # the bulk callers: bench's reused block, shuffle's dice
    ("harness.py", "block.clear()", "pass",
     [FROZEN + "[bench -n 6 --rolls 20000 --seed 1 --baseline]"]),
    ("harness.py", "pool.roll_many(range(deck, 1, -1), source)",
     "pool.roll_many(range(deck - 1, 0, -1), source)",
     ["tests/test_harness.py::test_shuffle_fixture"]),
    # roll_many's read-ahead: a span per read, each give-back of what the pool
    # did not take (before roll fills the empty pool, and on the way out), the
    # one-chunk reads once a span runs short, and its die checked once per object
    ("pool.py", "(256 // chunk or 1) * chunk", "chunk",
     [CLI + "test_bulk_rolls_read_the_source_a_word_at_a_time"]),
    ("pool.py", EMPTY_GIVE_BACK, EMPTY_GIVE_BACK.replace(UNREAD_LINE, ""), [EMPTIED]),
    ("pool.py", EMPTY_GIVE_BACK, EMPTY_GIVE_BACK.replace(DRAWN_LINE, ""), [EMPTIED]),
    ("pool.py", "source.unread(ahead & ((1 << left) - 1), left)  # what", "pass  # what",
     [MANY, SHORT_TAPE]),
    ("pool.py", "self.bits_drawn -= left\n\n    def snapshot", "\n\n    def snapshot",
     [MANY, SHORT_TAPE]),
    ("pool.py", "except EntropyExhausted:  # short of a span:", "except ():  # short of a span:",
     [MANY, SHORT_TAPE]),
    ("pool.py", "n = object()", "n = None",
     [POOL + "test_roll_many_refuses_a_first_die_of_none_unread"]),
    ("pool.py", "if die is not n:", "if die != n:",
     [POOL + "test_roll_many_refuses_a_die_equal_to_the_last_if_not_an_int"]),
    # the sources' unread: the buffer's, the tape's and the counter's, and the
    # refusal of a class that would inherit the buffer's without using it
    ("sources.py", "bits << self._nbuf | self._buf", "bits << count | self._buf",
     ["tests/test_sources.py::test_seeded_unread_serves_the_same_bits_again"]),
    ("sources.py", "self._pos -= count", "pass",
     ["tests/test_sources.py::test_tape_unread_restores_the_bits_remaining", MANY]),
    ("sources.py", "self.bits_delivered -= count", "pass",
     ["tests/test_sources.py::test_counting_unread_gives_back_what_it_delivered"]),
    ("sources.py", 'and "unread" not in vars(cls)', "and False",
     ["tests/test_sources.py::test_overriding_next_bits_without_unread_is_refused"]),
    # roll_many's wide refill: its top-up by whole spans, the exact shortfall
    # read once a span runs short, the bits it takes and the count it keeps;
    # then roll_batch decoding the draws made before a raise
    ("pool.py", "if left < drawn:", "if not left:", [MANY, BULK_BATCH]),
    ("pool.py", "span, more = chunk, drawn - left", "span = chunk", [MANY, SHORT_TAPE]),
    ("pool.py", "ahead >> left & ((1 << drawn) - 1)", "ahead >> left & ((1 << drawn - 1) - 1)",
     [MANY, BULK_BATCH]),
    ("pool.py", "self.bits_drawn += more", "pass", [MANY, BULK_BATCH]),
    ("radix.py", "    finally:  # the draws made before a raise are decoded too\n",
     "    except BaseException:\n        raise\n    else:\n",
     [BULK_BATCH, CLI + "test_lines_before_tape_runs_out_are_kept"]),
    # the digit tables, least significant first, now in pool.py; then the
    # count form: its gate and table cap, the least size for k passes, k
    # capped by the dice left and fused only from its lowest tabled k, the
    # fused pass's test and digits, the hand-off of a pool below the band
    ("pool.py", "[digits[::-1] for digits", "[digits for digits",
     [RADIX + "test_plan_groups_fill_each_table_cap", COUNT]),
    ("pool.py", "sides ** FUSE_POWER <= 1 << chunk", "sides ** FUSE_POWER < 1 << chunk",
     [GATE]),
    ("pool.py", "powers[-1] * n * len(powers) <= TABLE_DIGITS", "powers[-1] * n <= TABLE_DIGITS",
     [GATE]),
    ("pool.py", "[ceiling + 1], [1, n]", "[ceiling], [1, n]", [COUNT, COUNT_ANY]),
    ("pool.py", "if low <= k <= rest:", "if low <= k:", [COUNT, COUNT_ANY]),
    ("pool.py", "low = max(2, top - 1)\n", "low = max(2, top - 2)\n",
     [POOL + "test_runs_of_four_dice_in_turn_keep_their_tables"]),
    ("pool.py", "if quotient < keep:\n                            out +=",
     "if quotient <= keep:\n                            out +=", [COUNT]),
    ("pool.py", "out += tables[k][value % power]", "out += tables[k][value % power][::-1]",
     [COUNT, COUNT_ANY]),
    ("pool.py", "if size <= floor:  # below the one-chunk band",
     "if size < floor:  # below the one-chunk band", [COUNT]),
    # SeededSource's four-lane pull: each lane's state offset, the state's
    # step, the mask of the wrapped lanes and of each lane before the first
    # multiply, the first fold's mask; next_bits counting the class's word
    # width, OsSource's one 32-byte read, roll_many's 256-bit span
    ("sources.py", "<< 128 * (3 - i) for i", "<< 128 * i for i", [SCALAR]),
    ("sources.py", "_PULL_STEP = 4 *", "_PULL_STEP = 3 *", [SCALAR]),
    ("sources.py", "z = (state * _LANE_ONES + _LANE_STEPS) & _LANE_MASK",
     "z = state * _LANE_ONES + _LANE_STEPS", [SCALAR]),
    ("sources.py", "((z ^ z >> 30) & _LANE_MASK) * _SPLITMIX_MULT1",
     "(z ^ z >> 30) * _SPLITMIX_MULT1", [SCALAR]),
    ("sources.py", "z = (z | z >> 64) & _PAIRS_MASK", "z = z | z >> 64", [SCALAR]),
    ("sources.py", "nbuf += self.pull_bits", "nbuf += 256",
     ["tests/test_sources.py::test_a_read_pulls_only_the_words_it_needs"]),
    ("sources.py", "os.urandom(32)", "os.urandom(8)",
     ["tests/test_sources.py::test_os_source_pulls_32_bytes_at_a_time"]),
    ("pool.py", "(256 // chunk or 1) * chunk", "(64 // chunk or 1) * chunk",
     [CLI + "test_bulk_rolls_read_the_source_a_word_at_a_time"]),
    # the count form's run, worked out once per die and geometry, the type
    # test in the gate at the call site ahead of that cache, the cache's
    # size, and the gate's power, which the opened-gate cases must see
    ("pool.py", "@lru_cache(maxsize=MAX_TABLES // 2)", "",
     [POOL + "test_the_count_form_works_out_its_steps_once_per_die"]),
    ("pool.py", "count > 1 and type(sides) is int and", "count > 1 and",
     [POOL + "test_the_count_form_rolls_6_0_and_true_as_the_repeat_form_after_6_and_1"]),
    ("pool.py", "maxsize=MAX_TABLES // 2", "maxsize=MAX_TABLES",
     [POOL + "test_runs_of_five_dice_in_turn_cache_at_most_half_the_tables"]),
    ("pool.py", "sides ** FUSE_POWER <= 1 << chunk", "sides ** 2 <= 1 << chunk", [COUNT]),
    # the count form's other hand-offs to the iterable loop: a single pass
    # that rejects, a span read that runs short, the die the loop rolls
    # counted once; then the gate's ceiling
    ("pool.py", "if quotient >= keep:  # a reject", "if quotient > keep:  # a reject", [COUNT]),
    ("pool.py", "except EntropyExhausted:  # too few bits for a span",
     "except ():  # too few bits for a span", [COUNT]),
    ("pool.py", "sides, rest = (n,), rest - 1", "sides, rest = (n,), rest", [COUNT]),
    ("pool.py", "1 < sides <= ceiling\n", "1 < sides <= ceiling + 1\n", [GATE]),
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
