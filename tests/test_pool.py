"""Entropy pool state machine: reductions, refills, accounting, invariants."""

import math
import random
from fractions import Fraction

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
from pool_oracle import dice, observe, reference_many, reference_roll, reference_top_off


def test_new_pool_is_empty():
    pool = EntropyPool(64, 8)
    assert pool.snapshot() == (1, 0, 64, 8)
    assert pool.entropy() == 0.0
    assert EntropyPool(1 << 16).snapshot() == (1, 0, 1 << 16, 8)  # the widest pool


def test_minimal_bit_granular_pool():
    pool = EntropyPool(8, 1)
    assert (pool.size, pool.value) == (1, 0)


@pytest.mark.parametrize("word_bits,chunk_bits", [
    (64, 65), (64, 0), (0, 1), (-3, 1), ((1 << 16) + 1, 8), (1 << 20, 8), (64.0, 8),
])
def test_bad_capacity_parameters(word_bits, chunk_bits):
    # widths past 2**16 are refused; a non-int width is a TypeError
    with pytest.raises(ValueError if isinstance(word_bits, int) else TypeError):
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


def divmod_roll_step(size, value, sides):
    """The pass in its two-divmod cutoff form: (outcome or None, size, value)."""
    keep, offcut = divmod(size, sides)
    cutoff = size - offcut
    if value < cutoff:
        quotient, outcome = divmod(value, sides)
        return outcome, keep, quotient
    return None, offcut, value - cutoff


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_roll_step_matches_divmod_cutoff_form(data):
    size = data.draw(st.one_of(st.integers(1, 64), st.integers(1, 1 << 130)))
    value = data.draw(st.integers(0, size - 1))
    # sides == 1 keeps the pool whole; sides > size gives keep == 0
    sides = data.draw(st.one_of(
        st.just(1), st.integers(1, 64), st.integers(size, 1 << 131),
        st.integers(1, 1 << 131)))
    pool = EntropyPool.from_snapshot((size, value, 130, 1))
    outcome = pool.roll_step(sides)
    assert (outcome, pool.size, pool.value) == divmod_roll_step(size, value, sides)


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
    for word_bits, chunk_bits in [(32, 8), (13, 5)]:  # the default chunk and another
        pool = EntropyPool(word_bits, chunk_bits)
        pool.top_off(SeededSource(2))
        pool.roll_step(7)
        clone = EntropyPool.from_snapshot(pool.snapshot())
        assert clone.snapshot() == pool.snapshot()


@pytest.mark.parametrize("snap", [
    (8, 8, 8, 1), (8, -1, 8, 1), (0, 0, 8, 1), (512, 0, 8, 1), (8, 3, (1 << 16) + 1, 1),
])
def test_snapshot_validation(snap):
    with pytest.raises(ValueError):
        EntropyPool.from_snapshot(snap)


@pytest.mark.parametrize("snap", [(6.7, 5.9, 8, 1), (8, 3, "8", 1)])
def test_snapshot_refuses_non_integers(snap):
    with pytest.raises(TypeError):
        EntropyPool.from_snapshot(snap)


@pytest.mark.parametrize("sides", [6.0, 6.5, Fraction(6)], ids=str)
def test_roll_refuses_non_integer_die(sides):
    pool, tape = EntropyPool(), TapeSource(bytes(range(16)))
    pool.roll(6, tape)
    before = (pool.snapshot(), pool.bits_drawn, tape.bits_remaining)
    with pytest.raises(TypeError):
        pool.roll(sides, tape)
    with pytest.raises(TypeError):
        pool.roll_step(sides)
    assert (pool.snapshot(), pool.bits_drawn, tape.bits_remaining) == before
    empty = EntropyPool()  # refused before the first refill draws a bit
    with pytest.raises(TypeError):
        empty.roll(sides, tape)
    assert (empty.snapshot(), empty.bits_drawn, tape.bits_remaining) == (
        (1, 0, 64, 8), 0, before[2])


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


# Differential gate: `top_off` and `roll` against the reference pool of
# `pool_oracle`, which refills in whole chunks before every pass and
# reduces with `roll_step`.

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
    sides = draw(st.lists(dice(ceiling), max_size=50))
    return (size, value, word_bits, chunk_bits), tape, seed, sides


@settings(max_examples=300, deadline=None)
@given(pool_setups())
def test_top_off_matches_chunk_loop(setup):
    snap, tape, seed, _ = setup
    pool, expected = EntropyPool.from_snapshot(snap), EntropyPool.from_snapshot(snap)
    source, reference = source_pair(tape, seed)
    assert observe(lambda: pool.top_off(source), pool, source) == observe(
        lambda: reference_top_off(expected, reference), expected, reference)
    assert rest_of(source) == rest_of(reference)


@settings(max_examples=300, deadline=None)
@given(pool_setups())
def test_roll_matches_refill_every_pass_reference(setup):
    snap, tape, seed, sides_list = setup
    pool, expected = EntropyPool.from_snapshot(snap), EntropyPool.from_snapshot(snap)
    source, reference = source_pair(tape, seed)
    for sides in sides_list:  # a roll after one that ran out is compared too
        assert observe(lambda: pool.roll(sides, source), pool, source) == observe(
            lambda: reference_roll(expected, sides, reference), expected, reference)
    assert rest_of(source) == rest_of(reference)


# A die that roll refuses, put anywhere in a roll_many sequence, with the
# error roll raises for it; None puts no such die in.
REFUSED_DICE = [None, (0, ValueError), (-3, ValueError), ("ceiling + 1", RangeTooLarge),
                (6.0, TypeError), ("6", TypeError)]


@settings(max_examples=300, deadline=None)
@given(pool_setups(), st.integers(0, 50), st.sampled_from(REFUSED_DICE))
def test_roll_many_matches_the_reference_loop(setup, cut, refusal):
    snap, tape, seed, sides_list = setup
    pool, expected = EntropyPool.from_snapshot(snap), EntropyPool.from_snapshot(snap)
    source, reference = source_pair(tape, seed)
    rolled = sides_list[:]  # the dice before the refused one, if any
    if refusal is not None:
        bad, refused = refusal
        cut = min(cut, len(sides_list))
        sides_list.insert(cut, pool.refill_ceiling + 1 if bad == "ceiling + 1" else bad)
        del rolled[cut:]
    got, want = [], []
    ran = observe(lambda: reference_many(expected, rolled, reference, want),
                  expected, reference)
    if refusal is None or ran[0] is EntropyExhausted:
        assert observe(lambda: pool.roll_many(iter(sides_list), source, got),
                       pool, source) == ran
    else:
        with pytest.raises(refused) as raised:
            pool.roll_many(iter(sides_list), source, got)
        assert type(raised.value) is refused
        assert observe(lambda: got, pool, source) == ran
    assert got == want  # the outcomes rolled before a failure stay in `out`
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


# `roll` makes the pass and every refill but the empty pool's inline;
# pinned cases at the edges of the ceiling and of the one-chunk band, where
# it must agree with the reference loop.

def roll_like_reference(snap, sides, tape=bytes(range(1, 41))):
    """Roll once from `snap` and from a copy through `reference_roll`, on
    the same tape; both must agree in outcome, bits, state and tape left."""
    pool, expected = EntropyPool.from_snapshot(snap), EntropyPool.from_snapshot(snap)
    source, reference = TapeSource(tape), TapeSource(tape)
    outcome = pool.roll(sides, source)
    assert observe(lambda: outcome, pool, source) == observe(
        lambda: reference_roll(expected, sides, reference), expected, reference)
    return outcome, pool.bits_drawn


@pytest.mark.parametrize("value", [2**64 - 4, 2**64 - 3, 2**64 - 2])
def test_full_pool_in_the_sliver_rejects_then_refills(value):
    # 2**64 - 1 = 6 * keep + 3: the top three values are the d6 sliver
    assert roll_like_reference((2**64 - 1, value, 64, 8), 6)[1] == 56


@pytest.mark.parametrize("word_bits,chunk_bits", [(64, 8), (16, 8), (13, 5), (130, 1)])
def test_pool_at_the_ceiling_refills_and_above_it_does_not(word_bits, chunk_bits):
    ceiling = 1 << (word_bits - chunk_bits)  # at least 256 here
    assert roll_like_reference((ceiling, 200, word_bits, chunk_bits), 6)[1] > 0
    # accepted inline: 200 % 6 is the outcome, and the quotient 33 % 6 is not
    assert roll_like_reference((ceiling + 1, 200, word_bits, chunk_bits), 6) == (2, 0)


GEOMETRIES = [(64, 8), (13, 5), (5, 3)]  # (5, 3): two chunks overfill, floor 0


@pytest.mark.parametrize("word_bits,chunk_bits", GEOMETRIES)
def test_roll_at_the_band_edges_matches_reference(word_bits, chunk_bits):
    ceiling = 1 << (word_bits - chunk_bits)
    floor = ceiling >> chunk_bits
    for size in (max(1, floor), floor + 1, ceiling):
        for value in (0, size // 2, size - 1):
            roll_like_reference((size, value, word_bits, chunk_bits), 3)


# A one-chunk read that lands in the d3 sliver: it rejects, and the next
# refill is one chunk again at (5, 3), wider at (13, 5) and (64, 8).
@pytest.mark.parametrize("snap,tape", [
    ((2**56, 2**56 - 1, 64, 8), b"\xff" + bytes(range(1, 40))),
    ((256, 255, 13, 5), b"\xf8" + bytes(range(1, 40))),
    ((4, 3, 5, 3), b"\xc0" + bytes(range(1, 40))),
], ids=["64-8", "13-5", "5-3"])
def test_one_chunk_refill_then_reject_matches_reference(snap, tape):
    _, drawn = roll_like_reference(snap, 3, tape)
    assert drawn > snap[3]


@pytest.mark.parametrize("word_bits,chunk_bits", GEOMETRIES)
def test_one_chunk_refill_running_out_leaves_the_pool_untouched(word_bits, chunk_bits):
    snap = (1 << (word_bits - chunk_bits), 1, word_bits, chunk_bits)
    pool, tape = EntropyPool.from_snapshot(snap), TapeSource(b"\xff", chunk_bits - 1)
    with pytest.raises(EntropyExhausted):
        pool.roll(3, tape)
    assert (pool.snapshot(), pool.bits_drawn, tape.bits_remaining) == (
        snap, 0, chunk_bits - 1)


@pytest.mark.parametrize("sides,refused", [
    (0, ValueError), ((1 << 56) + 1, RangeTooLarge), (6.0, TypeError),
], ids=["0", "ceiling+1", "6.0"])
def test_full_pool_refuses_a_bad_die_untouched(sides, refused):
    pool, tape = EntropyPool.from_snapshot((2**64 - 1, 2**63, 64, 8)), TapeSource(bytes(8))
    with pytest.raises(refused):
        pool.roll(sides, tape)
    assert (pool.snapshot(), pool.bits_drawn, tape.bits_remaining) == (
        (2**64 - 1, 2**63, 64, 8), 0, 64)


# `size` and `value` are writable slots, and a state with value >= size
# rejects on every pass. Zero bytes make a top-off leave value == size
# again; the tape is finite, so a roll that loops runs out instead of hanging.
# A negative value accepts on every pass: an inline refill refuses it unread.
# The empty pool refuses any value but 0 unread too.
CORRUPT_POOLS = pytest.mark.parametrize("size,value,drawn", [
    (2**64, 2**64, 0),  # above the ceiling: refused by the inline pass, not later
    (2**56, 2**56, 8),  # the one-chunk band: after the inline read
    (2, 5, 56),  # below the floor: after the inline wide refill
    (0, 0, 56),
    (-5, 3, 56),
    (2**56, -1, 0),
    (2, -1, 0),
    (1, -1, 0),
    (1, 1, 0),
], ids=["above-ceiling", "one-chunk-band", "below-floor", "size-0", "negative-size",
        "negative-value-one-chunk-band", "negative-value-below-floor",
        "negative-value-one-state", "value-1-one-state"])


@CORRUPT_POOLS
def test_corrupt_pool_is_refused_not_spun(size, value, drawn):
    pool, tape = EntropyPool(), TapeSource(bytes(16))
    pool.size, pool.value = size, value
    with pytest.raises(ValueError, match=r"^value must be in \[0, "):
        pool.roll(6, tape)
    assert (pool.bits_drawn, tape.bits_remaining) == (drawn, 128 - drawn)


@CORRUPT_POOLS
def test_roll_many_refuses_a_corrupt_pool_as_roll_does(size, value, drawn):
    pool, tape, out = EntropyPool(), TapeSource(bytes(16)), []
    pool.size, pool.value = size, value
    with pytest.raises(ValueError, match=r"^value must be in \[0, "):
        pool.roll_many([6, 6], tape, out)
    assert (out, pool.bits_drawn, tape.bits_remaining) == ([], drawn, 128 - drawn)


# Every refill of a pool that is not empty is read inline, wider than one
# chunk or not: only the empty pool goes through `top_off` and `roll_step`.
# (word_bits, chunk_bits, size 2 or the floor, bits its wide refill reads)
WIDE_REFILLS = pytest.mark.parametrize("word_bits,chunk_bits,size,drawn", [
    (64, 8, 2, 56), (64, 8, 2**48, 16), (13, 5, 2, 10), (13, 5, 8, 10),
], ids=["64-8-size-2", "64-8-floor", "13-5-size-2", "13-5-floor"])


@WIDE_REFILLS
def test_wide_refill_is_inline_and_matches_reference(monkeypatch, word_bits, chunk_bits,
                                                     size, drawn):
    ceiling = 1 << (word_bits - chunk_bits)
    floor = ceiling >> chunk_bits  # the one-chunk band is (floor, ceiling]
    assert size in (2, floor)
    for start, least in ((size, drawn), (floor + 1, chunk_bits), (ceiling, chunk_bits)):
        for value in (0, start - 1):
            snap = (start, value, word_bits, chunk_bits)
            with monkeypatch.context() as patched:  # calling either raises TypeError
                patched.setattr(EntropyPool, "top_off", None)
                patched.setattr(EntropyPool, "roll_step", None)
                pool = EntropyPool.from_snapshot(snap)
                pool.roll(3, TapeSource(bytes(range(1, 41))))
            assert roll_like_reference(snap, 3)[1] == pool.bits_drawn >= least


@WIDE_REFILLS
def test_wide_refill_running_out_leaves_the_pool_untouched(word_bits, chunk_bits, size, drawn):
    snap = (size, 1, word_bits, chunk_bits)
    pool, tape = EntropyPool.from_snapshot(snap), TapeSource(b"\xff" * 8, drawn - 1)
    with pytest.raises(EntropyExhausted):
        pool.roll(3, tape)
    assert (pool.snapshot(), pool.bits_drawn, tape.bits_remaining) == (snap, 0, drawn - 1)


def test_negative_value_is_refused_at_its_first_refill():
    # Above the ceiling a negative value accepts (d6 twice from 2**60); the
    # refill it then needs refuses it before reading a bit.
    pool, source = EntropyPool(), SeededSource(1)
    pool.size, pool.value = 2**60, -1
    assert [pool.roll(6, source) for _ in range(2)] == [5, 5]
    with pytest.raises(ValueError, match=r"^value must be in \[0, "):
        pool.roll(6, source)
    assert pool.bits_drawn == 0
