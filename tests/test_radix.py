"""Mixed-radix batching and the batched/sequential equivalence."""

import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dicepool import (
    EntropyPool,
    RadixPlan,
    SeededSource,
    TapeSource,
    decode_mixed_radix,
    roll_batch,
)
from dicepool.radix import MAX_TABLES, TABLE_DIGITS
from pool_oracle import dice, observe, reference_batch, reference_batches


def test_plan_product():
    assert RadixPlan((2, 3)).product == 6
    assert RadixPlan([4, 4, 4]).product == 64
    assert RadixPlan(()).product == 1
    # product is computed once per plan; the cached value must not leak
    # into equality, hashing or repr
    plan = RadixPlan((2, 3, 52))
    fresh_repr = repr(plan)
    assert plan.product == plan.product == 312
    fresh = RadixPlan((2, 3, 52))
    assert plan == fresh
    assert hash(plan) == hash(fresh)
    assert repr(plan) == fresh_repr == repr(fresh)


def test_plan_rejects_nonpositive_range():
    with pytest.raises(ValueError):
        RadixPlan((2, 0))


@pytest.mark.parametrize("ranges", [[6.9, 2.2], ["6", "2"]])
def test_plan_refuses_non_integer_ranges(ranges):
    with pytest.raises(TypeError):
        RadixPlan(ranges)
    assert RadixPlan([True, 6]).ranges == (1, 6)  # int subclasses pass


def test_decode_least_significant_first():
    assert decode_mixed_radix(5, (2, 3)) == [1, 2]
    ranges = (6, 33, 52, 1000, 7, 2**20, 6)
    value = 0xDEADBEEF_CAFEF00D  # about 2**64, wider than the product
    expected, rest = [], value
    for n in ranges:
        rest, digit = divmod(rest, n)
        expected.append(digit)
    assert decode_mixed_radix(value, ranges) == expected


@pytest.mark.parametrize("ranges", [(2, 3), (3, 5), (4, 4, 4), (7,), (1, 5, 1)])
def test_decode_is_a_bijection(ranges):
    plan = RadixPlan(ranges)
    seen = set()
    for value in range(plan.product):
        digits = decode_mixed_radix(value, ranges)
        assert all(0 <= d < n for d, n in zip(digits, ranges))
        seen.add(tuple(digits))
    assert len(seen) == plan.product


def test_empty_plan_rolls_nothing():
    pool = EntropyPool()
    assert roll_batch(pool, RadixPlan(()), TapeSource(b"")) == []
    assert pool.snapshot() == (1, 0, 64, 8)


def test_singleton_plan_equals_plain_roll():
    batched = roll_batch(EntropyPool(), RadixPlan((6,)), SeededSource(1))
    plain = EntropyPool().roll(6, SeededSource(1))
    assert batched == [plain]


def test_preloaded_power_of_two_plan_never_discards():
    # 4*4*4 = 64 divides 256: with refill disabled, every preloaded value
    # accepts in a single reduction pass and keeps a 4-state pool.
    plan = RadixPlan((4, 4, 4))
    for value in range(256):
        pool = EntropyPool.from_snapshot((256, value, 8, 8))
        outcome = pool.roll_step(plan.product)
        assert outcome is not None
        digits = decode_mixed_radix(outcome, plan.ranges)
        assert digits == [value % 4, value // 4 % 4, value // 16 % 4]
        assert pool.size == 4


def _groups(plan):
    """(size, whether a table decodes it) per step of the plan."""
    return [(size, table is not None) for size, table in plan.steps]


def test_plan_groups_fill_each_table_cap():
    assert RadixPlan((2, 3)).steps == ((6, ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2))),)
    assert _groups(RadixPlan([6] * 10)) == [(1296, True), (1296, True), (36, True)]
    assert _groups(RadixPlan((64, 64, 64, 64))) == [(4096, True)] * 2  # 64**3 x 3 > digits
    assert _groups(RadixPlan((8, 8, 8, 8))) == [(4096, True)]  # 4096 x 4 digits exactly
    assert _groups(RadixPlan((90, 91))) == [(8190, True)]  # the widest pair: 16380 digits
    assert _groups(RadixPlan((91, 91))) == [(91, False)] * 2  # 8281 x 2 > digits
    assert _groups(RadixPlan((17, 17, 17))) == [(4913, True)]  # 14739 digits
    assert _groups(RadixPlan([2] * 11)) == [(1024, True), (2, False)]  # 2048 x 11 > digits
    assert _groups(RadixPlan([1] * TABLE_DIGITS)) == [(1, True)]  # ones fill the digits
    assert _groups(RadixPlan([1] * (TABLE_DIGITS + 1))) == [(1, True), (1, False)]
    # a range alone, or too wide for a table, decodes per digit
    assert _groups(RadixPlan((52,))) == [(52, False)]
    assert _groups(RadixPlan((10**15, 6, 6, 4097))) == [
        (10**15, False), (36, True), (4097, False)]
    assert RadixPlan([6] * 8).steps[0][1] is RadixPlan((6, 6, 6, 6)).steps[0][1]  # shared


def test_plan_hashes_by_its_ranges_without_walking_its_tables():
    plan = RadixPlan([6] * 10)
    assert hash(plan) == hash(plan.ranges)


def _roll_both_ways(ranges, seed, rolls, word_bits):
    plan = RadixPlan(ranges)
    batch_pool, batch_source = EntropyPool(word_bits), SeededSource(seed)
    twin_pool, twin_source = EntropyPool(word_bits), SeededSource(seed)
    for _ in range(rolls):
        assert (roll_batch(batch_pool, plan, batch_source)
                == reference_batch(twin_pool, ranges, twin_source))
    assert batch_pool.bits_drawn == twin_pool.bits_drawn
    assert batch_pool.snapshot() == twin_pool.snapshot()


@pytest.mark.parametrize("ranges", [(2, 3), (6, 6, 6), (2, 3, 52, 6, 6), (64, 1, 64, 7)])
def test_table_decoding_matches_decode_mixed_radix(ranges):
    _roll_both_ways(ranges, 3, 20, 64)


RANGE_PARTS = [1, 2, 6, 63, 64, 65, 256, 257, 4096, 4097, 10**15]


@settings(max_examples=150, deadline=None)
@example([64, 64, 64, 64], 1, 5)  # two groups of 4096 entries
@example([8, 8, 8, 8, 2, 2, 2, 2, 2, 2, 2, 16], 2, 5)  # two that fill TABLE_DIGITS exactly
@example([90, 91, 6], 4, 5)  # an 8190-entry table, then a range alone
@example([6] + [1] * (TABLE_DIGITS + 100) + [6, 6], 3, 3)  # ones past any table
@given(st.lists(st.sampled_from(RANGE_PARTS), max_size=40), st.integers(0, 2**64 - 1),
       st.integers(1, 10))
def test_roll_batch_by_table_matches_decode_mixed_radix(ranges, seed, rolls):
    # -W 320 rolls products up to 2**312: keep the longest prefix that fits
    ceiling = EntropyPool(320).refill_ceiling
    while math.prod(ranges) > ceiling:
        ranges = ranges[:-1]
    _roll_both_ways(ranges, seed, rolls, 320)


@st.composite
def batch_setups(draw):
    """A snapshot of a pool up to 130 bits wide, a plan its ceiling admits,
    a draw count, a short tape and the digits `out` holds beforehand."""
    word_bits = draw(st.integers(1, 130))
    chunk_bits = draw(st.integers(1, word_bits))
    size = draw(st.one_of(st.just(1), st.integers(1, 1 << word_bits)))
    snap = (size, draw(st.integers(0, size - 1)), word_bits, chunk_bits)
    ceiling, ranges = 1 << (word_bits - chunk_bits), []
    for n in draw(st.lists(dice(ceiling), max_size=6)):
        if math.prod(ranges) * n <= ceiling:
            ranges.append(n)
    return (snap, ranges, draw(st.integers(0, 12)), draw(st.binary(max_size=80)),
            draw(st.lists(st.integers(0, 9), max_size=3)))


@settings(max_examples=300, deadline=None)
@example(((1, 0, 64, 8), [6] * 10, 4, bytes(range(23)), []))  # every refill is wide
@example(((2**30, 0, 64, 8), [6] * 10, 12, bytes(range(80)), []))  # spans top it up
@example(((2**56, 7, 64, 8), [6] * 10, 12, bytes(30), [5]))  # runs out on the 11th draw
@given(batch_setups())
def test_bulk_roll_batch_matches_one_reference_batch_per_draw(setup):
    # `count` draws in one call give the digits, snapshot, bits_drawn and
    # tape bits left of `count` reference batches; on a tape that runs out,
    # `out` keeps what it held and the digits of every draw before.
    snap, ranges, count, tape, head = setup
    pool, model = EntropyPool.from_snapshot(snap), EntropyPool.from_snapshot(snap)
    source, reference = TapeSource(tape), TapeSource(tape)
    got, want = head[:], head[:]
    assert observe(lambda: roll_batch(pool, RadixPlan(ranges), source, count, got),
                   pool, source) == observe(
        lambda: reference_batches(model, ranges, reference, count, want), model, reference)
    assert got == want


@pytest.mark.parametrize("count, refused", [(-1, ValueError), (2.0, TypeError)])
def test_roll_batch_refuses_a_bad_count_before_any_bit(count, refused):
    pool, tape = EntropyPool(), TapeSource(bytes(16))
    with pytest.raises(refused):
        roll_batch(pool, RadixPlan((6, 6)), tape, count)
    assert (pool.snapshot(), tape.bits_remaining) == ((1, 0, 64, 8), 128)


def test_table_memory_is_bounded_by_constants():
    # 5000 mixed parts (a 27401-bit product) fill MAX_TABLES tables; every
    # later group that would need a new one decodes per digit
    rng = random.Random(1)
    ranges = [rng.choice([1, 2, 3, 6, 12, 20, 63, 64, 65, 256, 257, 4096, 4097])
              for _ in range(5000)]
    plan = RadixPlan(ranges)
    tables = {id(table): table for _, table in plan.steps if table is not None}
    assert len(tables) == MAX_TABLES
    table_bytes = 0
    for table in tables.values():
        assert len(table) <= TABLE_DIGITS // 2  # a table covers two ranges or more
        assert len(table) * len(table[0]) <= TABLE_DIGITS
        table_bytes += sys.getsizeof(table) + sum(map(sys.getsizeof, table))
    # each entry a tuple (40-byte header and 8 bytes a digit) and one 8-byte
    # slot: 48 * TABLE_DIGITS // 2 + 8 * TABLE_DIGITS, plus the outer header
    assert table_bytes <= MAX_TABLES * (32 * TABLE_DIGITS + 40)
    _roll_both_ways(ranges, 5, 3, 65536)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_product_pass_equals_sequential_passes_from_any_state(data):
    # One refill-free pass over the product range and a chain of passes
    # over its factors split the same pool state the same way, whatever
    # the size: reject together, or accept with equal digits and pools.
    size = data.draw(st.integers(1, 1 << 130), label="size")
    value = data.draw(st.integers(0, size - 1), label="value")
    plan = RadixPlan(data.draw(st.lists(st.integers(1, 60), min_size=1, max_size=5),
                               label="ranges"))
    batch_pool = EntropyPool.from_snapshot((size, value, 130, 1))
    seq_pool = EntropyPool.from_snapshot((size, value, 130, 1))

    outcome = batch_pool.roll_step(plan.product)
    batch_digits = None if outcome is None else decode_mixed_radix(outcome, plan.ranges)
    seq_digits = []
    for n in plan.ranges:
        digit = seq_pool.roll_step(n)
        if digit is None:
            seq_digits = None
            break
        seq_digits.append(digit)

    assert (batch_digits is None) == (seq_digits is None)
    if batch_digits is not None:
        assert batch_digits == seq_digits
        assert batch_pool.snapshot() == seq_pool.snapshot()
