"""Entropy pool state machine: reductions, refills, accounting, invariants."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicepool import (
    CountingSource,
    EntropyExhausted,
    EntropyPool,
    RangeTooLarge,
    SeededSource,
    TapeSource,
    waste_point,
)


def test_new_pool_is_empty():
    pool = EntropyPool(64, 8)
    assert pool.snapshot() == (1, 0, 64, 8)
    assert pool.entropy() == 0.0


def test_minimal_bit_granular_pool():
    pool = EntropyPool(8, 1)
    assert (pool.size, pool.value) == (1, 0)


@pytest.mark.parametrize("word_bits,chunk_bits", [(64, 65), (64, 0), (0, 1), (-3, 1)])
def test_bad_capacity_parameters(word_bits, chunk_bits):
    with pytest.raises(ValueError):
        EntropyPool(word_bits, chunk_bits)


def test_top_off_single_chunk():
    pool = EntropyPool(8, 8)
    drawn = pool.top_off(TapeSource(bytes([0xA7])))
    assert (pool.size, pool.value, drawn) == (256, 167, 8)


def test_top_off_two_chunks_big_endian():
    pool = EntropyPool(16, 8)
    drawn = pool.top_off(TapeSource(bytes([0x01, 0x02])))
    assert (pool.size, pool.value, drawn) == (65536, 258, 16)


def test_top_off_noop_when_full():
    pool = EntropyPool.from_snapshot((1 << 64, 5, 64, 8))
    assert pool.top_off(TapeSource(b"")) == 0
    assert (pool.size, pool.value) == (1 << 64, 5)


# (word_bits, chunk_bits, bits an empty pool's top-off draws)
EXHAUSTION_CASES = [(64, 8, 64), (16, 8, 16), (13, 5, 10)]


def test_top_off_propagates_exhaustion():
    # A refill one chunk short of what it needs leaves pool and tape as they were.
    for word_bits, chunk_bits, needed in EXHAUSTION_CASES:
        pool = EntropyPool(word_bits, chunk_bits)
        tape = TapeSource.from_int(0b10110, needed - chunk_bits)
        with pytest.raises(EntropyExhausted):
            pool.top_off(tape)
        assert pool.snapshot() == (1, 0, word_bits, chunk_bits)
        assert tape.bits_remaining == needed - chunk_bits
        assert tape.next_bits(needed - chunk_bits) == 0b10110  # the same bits, unread


def test_roll_step_success_path():
    pool = EntropyPool.from_snapshot((8, 5, 8, 1))
    assert pool.roll_step(3) == 2
    assert (pool.size, pool.value) == (2, 1)


def test_roll_step_discard_path():
    pool = EntropyPool.from_snapshot((8, 7, 8, 1))
    assert pool.roll_step(3) is None
    assert (pool.size, pool.value) == (2, 1)


def test_roll_step_one_sided_die_is_free():
    pool = EntropyPool.from_snapshot((6, 4, 8, 1))
    assert pool.roll_step(1) == 0
    assert (pool.size, pool.value) == (6, 4)


def test_roll_step_range_above_pool_discards_everything():
    # keep = 0: nothing can be accepted and the untouched range recycles whole
    pool = EntropyPool.from_snapshot((2, 1, 8, 1))
    assert pool.roll_step(3) is None
    assert (pool.size, pool.value) == (2, 1)


def test_roll_step_invalid_sides():
    with pytest.raises(ValueError):
        EntropyPool().roll_step(0)


def test_roll_rejects_uncoverable_range():
    pool = EntropyPool(16, 8)
    with pytest.raises(RangeTooLarge):
        pool.roll(257, SeededSource(1))
    assert 0 <= EntropyPool(16, 8).roll(256, SeededSource(1)) < 256


def test_roll_invalid_sides():
    with pytest.raises(ValueError):
        EntropyPool().roll(0, SeededSource(1))


def test_roll_one_sided_consumes_nothing_beyond_top_off():
    pool = EntropyPool.from_snapshot((1 << 64, 123456, 64, 8))
    assert pool.roll(1, TapeSource(b"")) == 0
    assert pool.bits_drawn == 0
    assert (pool.size, pool.value) == (1 << 64, 123456)


def test_roll_accounting_matches_counting_source():
    pool = EntropyPool()
    source = CountingSource(SeededSource(3))
    for _ in range(200):
        assert 0 <= pool.roll(6, source) < 6
        assert pool.bits_drawn == source.bits_delivered


def test_roll_determinism():
    def run():
        pool = EntropyPool(64, 8)
        source = SeededSource(99)
        return [pool.roll(sides, source) for sides in (6, 33, 2, 52) * 25]

    assert run() == run()


def test_roll_pinned_outcomes_and_bits():
    pool = EntropyPool()
    source = SeededSource(1)
    outcomes = [pool.roll(sides, source) for sides in (6, 33, 2, 52, 1000)]
    assert outcomes == [5, 30, 0, 6, 582]
    assert pool.bits_drawn == 72
    assert pool.snapshot() == (229330151654508, 129929651955876, 64, 8)


def test_seeded_stream_replayed_from_tape_gives_same_rolls():
    stream = SeededSource(5)
    raw = bytes(stream.next_bits(8) for _ in range(400))

    def run(source):
        pool = EntropyPool()
        return [pool.roll(6, source) for _ in range(100)]

    assert run(SeededSource(5)) == run(TapeSource(raw))


def test_roll_propagates_exhaustion():
    for word_bits, chunk_bits, needed in EXHAUSTION_CASES:
        pool = EntropyPool(word_bits, chunk_bits)
        tape = TapeSource(bytes(8), needed - chunk_bits)  # one chunk short
        with pytest.raises(EntropyExhausted):
            pool.roll(6, tape)
        assert pool.snapshot() == (1, 0, word_bits, chunk_bits)
        assert tape.bits_remaining == needed - chunk_bits


def test_state_validity_over_random_operations():
    rng = random.Random(7)
    pool = EntropyPool(16, 4)
    source = SeededSource(11)
    for _ in range(3000):
        if rng.randrange(2):
            pool.top_off(source)
        else:
            pool.roll_step(rng.randrange(1, 20))
        assert 0 <= pool.value < pool.size <= 1 << 16


def test_snapshot_round_trip():
    pool = EntropyPool(32, 8)
    pool.top_off(SeededSource(2))
    pool.roll_step(7)
    clone = EntropyPool.from_snapshot(pool.snapshot())
    assert clone.snapshot() == pool.snapshot()


@pytest.mark.parametrize("snap", [(8, 8, 8, 1), (8, -1, 8, 1), (0, 0, 8, 1), (512, 0, 8, 1)])
def test_snapshot_validation(snap):
    with pytest.raises(ValueError):
        EntropyPool.from_snapshot(snap)


@pytest.mark.parametrize("snap", [(6.7, 5.9, 8, 1), (8, 3, "8", 1)])
def test_snapshot_refuses_non_integers(snap):
    with pytest.raises(TypeError):
        EntropyPool.from_snapshot(snap)


def test_entropy_values():
    assert EntropyPool().entropy() == 0.0
    assert EntropyPool.from_snapshot((64, 10, 8, 1)).entropy() == 6.0
    assert EntropyPool.from_snapshot((6, 3, 8, 1)).entropy() == pytest.approx(2.585, abs=1e-3)


def test_reduction_ledger_matches_waste_model():
    # Averaged over all pool values, the entropy a pass fails to conserve
    # is exactly the closed-form waste for that operating point.
    for size, sides in [(8, 3), (64, 6), (100, 7), (256, 10)]:
        after_total = 0.0
        for value in range(size):
            pool = EntropyPool.from_snapshot((size, value, 16, 1))
            outcome = pool.roll_step(sides)
            gained = math.log2(sides) if outcome is not None else 0.0
            after_total += pool.entropy() + gained
        shortfall = math.log2(size) - after_total / size
        expected = waste_point(sides, size).waste_iter
        assert shortfall == pytest.approx(expected, abs=1e-12)


# Differential gate: `top_off` and `roll` against a reference that refills
# one chunk at a time, before every pass, and reduces with `roll_step`.

def reference_top_off(pool, source):
    drawn = 0
    while pool.size <= 1 << (pool.word_bits - pool.chunk_bits):
        piece = source.next_bits(pool.chunk_bits)
        pool.size <<= pool.chunk_bits
        pool.value = (pool.value << pool.chunk_bits) | piece
        drawn += pool.chunk_bits
    return drawn


def reference_roll(pool, sides, source):
    drawn = 0
    while True:
        drawn += reference_top_off(pool, source)
        outcome = pool.roll_step(sides)
        if outcome is not None:
            return (outcome, drawn)


def source_pair(tape, seed):
    if tape is None:
        return SeededSource(seed), SeededSource(seed)
    return TapeSource(tape), TapeSource(tape)


def rest_of(source):
    """What a source still holds: the tape's remaining bits, or the next word."""
    if isinstance(source, TapeSource):
        left = source.bits_remaining
        return (left, source.next_bits(left) if left else 0)
    return source.next_bits(64)


@st.composite
def pool_setups(draw):
    word_bits = draw(st.one_of(st.integers(1, 130), st.sampled_from([13, 64, 128])))
    chunk_bits = draw(st.integers(1, word_bits))
    ceiling = 1 << (word_bits - chunk_bits)
    size = draw(st.one_of(st.just(1), st.integers(1, 1 << word_bits)))
    value = draw(st.integers(0, size - 1))
    tape = draw(st.one_of(st.none(), st.binary(max_size=300)))
    seed = draw(st.integers(0, 2**64 - 1))
    sides = draw(st.lists(
        st.one_of(st.integers(1, min(ceiling, 64)), st.integers(1, ceiling)),
        max_size=50,
    ))
    return (size, value, word_bits, chunk_bits), tape, seed, sides


@settings(max_examples=300, deadline=None)
@given(pool_setups())
def test_top_off_matches_chunk_loop(setup):
    snap, tape, seed, _ = setup
    pool, expected = EntropyPool.from_snapshot(snap), EntropyPool.from_snapshot(snap)
    source, reference = source_pair(tape, seed)
    before = rest_of(source_pair(tape, seed)[0])
    try:
        want = reference_top_off(expected, reference)
    except EntropyExhausted:
        with pytest.raises(EntropyExhausted):
            pool.top_off(source)
        assert pool.snapshot() == snap
        assert rest_of(source) == before
        return
    assert pool.top_off(source) == want
    assert pool.snapshot() == expected.snapshot()
    assert rest_of(source) == rest_of(reference)


@settings(max_examples=300, deadline=None)
@given(pool_setups())
def test_roll_matches_refill_every_pass_reference(setup):
    snap, tape, seed, sides_list = setup
    pool, expected = EntropyPool.from_snapshot(snap), EntropyPool.from_snapshot(snap)
    source, reference = source_pair(tape, seed)
    for sides in sides_list:
        try:
            want = reference_roll(expected, sides, reference)
        except EntropyExhausted:
            with pytest.raises(EntropyExhausted):
                pool.roll(sides, source)
            return
        before = pool.bits_drawn
        assert (pool.roll(sides, source), pool.bits_drawn - before) == want
    assert pool.snapshot() == expected.snapshot()
    assert rest_of(source) == rest_of(reference)


@pytest.mark.parametrize("word_bits,chunk_bits",
                         [(1, 1), (7, 7), (13, 5), (16, 8), (64, 8), (65, 8), (128, 8), (130, 1)])
def test_top_off_boundary_sizes_match_chunk_loop(word_bits, chunk_bits):
    ceiling = 1 << (word_bits - chunk_bits)
    sizes = {1, ceiling, max(1, ceiling >> chunk_bits), (ceiling >> chunk_bits) + 1}
    sizes.update(1 << e for e in range(word_bits + 1))
    for size in sorted(sizes):
        snap = (size, size - 1, word_bits, chunk_bits)
        pool, expected = EntropyPool.from_snapshot(snap), EntropyPool.from_snapshot(snap)
        source, reference = SeededSource(size), SeededSource(size)
        assert pool.top_off(source) == reference_top_off(expected, reference), size
        assert pool.snapshot() == expected.snapshot()
        assert source.next_bits(64) == reference.next_bits(64)
