"""Entropy pool state machine: reductions, refills, accounting, invariants."""

import math
import random
from fractions import Fraction
from itertools import repeat

import pytest
from hypothesis import example, given, settings
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
import dicepool.pool as pool_module
from dicepool.pool import FUSE_POWER, MAX_TABLES, TABLE_DIGITS, _fused_run, _table
from dicepool.radix import RadixPlan
from pool_oracle import (dice, observe, reference_checked, reference_many, reference_roll,
                         reference_top_off, refusal_or)


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
# error roll raises for it; () puts no such die in.
REFUSED_DICE = [(), (None, TypeError), (0, ValueError), (-3, ValueError),
                ("ceiling + 1", RangeTooLarge), (6.0, TypeError), ("6", TypeError)]


# The example is a (64, 8) pool whose first band refill reads a span and
# makes its byte view; wide refills then take the rest of that span, and
# one tops the read-ahead up with a fresh span, after which band refills
# must shift the new read-ahead, not index the old span's bytes.
@settings(max_examples=300, deadline=None)
@given(pool_setups(), st.integers(0, 50), st.sampled_from(REFUSED_DICE))
@example(((1, 0, 64, 8), None, 7, [6] * 4 + [2**55] * 8 + [6] * 30), 0, ())
def test_roll_many_matches_the_reference_loop(setup, cut, refusal):
    snap, tape, seed, sides_list = setup
    pool, expected = EntropyPool.from_snapshot(snap), EntropyPool.from_snapshot(snap)
    source, reference = source_pair(tape, seed)
    rolled = sides_list[:]  # the dice before the refused one, if any
    if refusal:
        bad, refused = refusal
        cut = min(cut, len(sides_list))
        sides_list.insert(cut, pool.refill_ceiling + 1 if bad == "ceiling + 1" else bad)
        del rolled[cut:]
    got, want = [], []
    ran = observe(lambda: reference_many(expected, rolled, reference, want),
                  expected, reference)
    if not refusal or ran[0] is EntropyExhausted:
        assert observe(lambda: pool.roll_many(iter(sides_list), source, got),
                       pool, source) == ran
    else:
        with pytest.raises(refused) as raised:
            pool.roll_many(iter(sides_list), source, got)
        assert type(raised.value) is refused
        assert observe(lambda: got, pool, source) == ran
    assert got == want  # the outcomes rolled before a failure stay in `out`
    assert rest_of(source) == rest_of(reference)


# A `range` of dice, checked once on entry by its two ends: empty,
# stepped and descending ranges, with ends at 0, at the ceiling + 1 or far
# past it (at most about 60 dice: a long span takes a longer step). A
# range whose ends fail is checked die by die, so its first bad die is
# refused in its turn, after the outcomes before it are in `out`, with the
# error `roll` raises.
@settings(max_examples=300, deadline=None)
@given(pool_setups(), st.data())
def test_roll_many_over_a_range_matches_the_reference_loop(setup, data):
    snap, tape, seed, _ = setup
    ceiling = 1 << (snap[2] - snap[3])
    ends = st.one_of(st.sampled_from([-1, 0, 1, 2, ceiling, ceiling + 1, 3 * ceiling + 7]),
                     dice(ceiling))
    start, stop, step = data.draw(ends), data.draw(ends), data.draw(st.integers(-9, 9))
    step = (1 if step >= 0 else -1) * max(abs(step), 1, -(-abs(stop - start) // 60))
    sides = range(start, stop, step)
    pool, expected = EntropyPool.from_snapshot(snap), EntropyPool.from_snapshot(snap)
    source, reference = source_pair(tape, seed)
    got, want = [], []
    assert observe(lambda: refusal_or(lambda: pool.roll_many(sides, source, got)), pool,
                   source) == observe(lambda: refusal_or(
                       lambda: reference_checked(expected, sides, reference, want)),
                       expected, reference), sides
    assert got == want  # the outcomes rolled before a refusal or the tape's end
    assert rest_of(source) == rest_of(reference)


# A range whose first or last die fails, at each end: 0 and the ceiling + 1.
# It is refused in its turn, as the `roll` loop refuses it, whichever end
# fails, and a range whose ends pass rolls as that loop does.
@pytest.mark.parametrize("snap", [(1, 0, 64, 8), (2**60, 2**59, 64, 8), (5, 3, 5, 2),
                                  (9, 2, 4, 1)], ids=str)
def test_roll_many_refuses_a_range_end_in_its_turn(snap):
    ceiling = 1 << (snap[2] - snap[3])
    for sides in (range(max(1, ceiling - 2), ceiling + 2), range(ceiling + 1, 0, -1),
                  range(4, -1, -1), range(0, 4), range(ceiling + 1, 0, -2),
                  range(max(1, ceiling - 3), ceiling + 1), range(ceiling, 0, -1)):
        pool, expected = EntropyPool.from_snapshot(snap), EntropyPool.from_snapshot(snap)
        tape, reference = TapeSource(bytes(range(60))), TapeSource(bytes(range(60)))
        got, want = [], []
        assert observe(lambda: refusal_or(lambda: pool.roll_many(sides, tape, got)), pool,
                       tape) == observe(lambda: refusal_or(
                           lambda: reference_checked(expected, sides, reference, want)),
                           expected, reference), sides
        assert got == want, sides


# The count form from any state, mostly on dice small enough to be fused,
# with counts that span several fused passes and tapes that run out
# between or inside them.
@settings(max_examples=300, deadline=None)
@given(pool_setups(), st.data())
def test_roll_many_count_matches_the_reference_loop(setup, data):
    snap, tape, seed, _ = setup
    ceiling = 1 << (snap[2] - snap[3])
    sides = data.draw(st.one_of(st.integers(1, min(ceiling, 20)), dice(ceiling)))
    count = data.draw(st.integers(0, 60))
    pool, expected = EntropyPool.from_snapshot(snap), EntropyPool.from_snapshot(snap)
    source, reference = source_pair(tape, seed)
    got, want = [], []
    assert observe(lambda: pool.roll_many(sides, source, got, count=count), pool,
                   source) == observe(lambda: reference_many(expected, [sides] * count,
                                                             reference, want),
                                      expected, reference)
    assert got == want  # the outcomes rolled before the tape ran out
    assert rest_of(source) == rest_of(reference)


def _count_and_repeat(snap, sides, count):
    """What `roll_many` does with `count=count` and with `repeat(sides, count)`:
    the error it raises (type and text), `out`, the snapshot and the bits read."""
    seen = []
    for form in ("count", "repeat"):
        pool, tape, out = EntropyPool(*snap[2:]), TapeSource(bytes(16)), []
        pool.size, pool.value = snap[:2]
        try:
            if form == "count":
                pool.roll_many(sides, tape, out, count=count)
            else:
                pool.roll_many(repeat(sides, count), tape, out)
            raised = None
        except (TypeError, ValueError) as exc:
            raised = type(exc), str(exc)
        seen.append((raised, out, pool.snapshot(), pool.bits_drawn, tape.bits_remaining))
    return seen


# Refused dice (none checked at count 0), a corrupt state (refused even at
# count 0, before the die) and a non-int die give the same error, the same
# `out` and an untouched pool and tape either way.
@pytest.mark.parametrize("snap", [(2**56, 5, 64, 8), (2, 5, 64, 8), (1, 0, 4, 2)], ids=str)
def test_roll_many_count_refuses_as_the_repeat_form_does(snap):
    for sides in (6, 2, 0, -1, (1 << 56) + 1, 6.0, "6", None):
        for count in (0, 1, 2, 5, True):
            counted, repeated = _count_and_repeat(snap, sides, count)
            assert counted == repeated, (sides, count)


def test_roll_many_count_is_refused_first_unless_an_int_at_least_0():
    # repeat(6, 1.0) raises TypeError before roll_many runs, so the count is
    # checked before the state; a negative count, which repeat takes as 0,
    # is refused as roll_batch refuses it.
    for snap in ((2**56, 5, 64, 8), (2, 5, 64, 8)):
        counted, repeated = _count_and_repeat(snap, 6, 1.0)
        assert counted[0][0] is repeated[0][0] is TypeError and counted[1:] == repeated[1:]
        counted, _ = _count_and_repeat(snap, 6, -1)
        assert counted == ((ValueError, "count must be in [0, inf], got -1"), [], snap, 0, 128)


def _count_form_lookups(monkeypatch, word_bits, chunk_bits, dice=range(1, 300)):
    """{die: its run} for each die of `dice` whose run a count-2 `roll_many` looks up."""
    looked_up, fused_run = {}, _fused_run

    def spy(n, *geometry):
        assert geometry == (word_bits, chunk_bits)
        looked_up[n] = fused_run(n, *geometry)
        return looked_up[n]

    monkeypatch.setattr(pool_module, "_fused_run", spy)
    for n in dice:
        try:
            EntropyPool(word_bits, chunk_bits).roll_many(n, SeededSource(n), count=2)
        except RangeTooLarge:
            pass
    return looked_up


def test_the_count_form_fuses_only_small_dice(monkeypatch):
    # d2 to d16 at (64, 8); at bit-wise refills no die; at (128, 64) every
    # die whose two passes fit one table (2 * 90 * 90 <= TABLE_DIGITS). The
    # gate comes before the cache, so a die it turns away is not looked up.
    assert FUSE_POWER == 2
    looked_up = _count_form_lookups(monkeypatch, 64, 8)
    assert list(looked_up) == list(range(2, 17)) and all(looked_up.values())
    assert not _count_form_lookups(monkeypatch, 64, 1)
    looked_up = _count_form_lookups(monkeypatch, 128, 64)
    assert [n for n, run in looked_up.items() if run] == list(range(2, 91))
    assert list(_count_form_lookups(monkeypatch, 6, 5, range(1, 5))) == [2]  # d3 > ceiling 2
    # k runs up to the widest pool and TABLE_DIGITS, not the count, and only
    # the two largest k have tables, each with the least size it fits from
    least, low, most, top, powers, tables = _fused_run(6, 64, 8)
    assert (least, most) == ((2**56 + 1) * 6**2, (2**56 + 1) * 6**3) and most * 6 > 2**64
    assert (low, top) == (3, 4) and powers == [1, 6, 36, 216, 1296]
    assert tables == [None] * 3 + [_table((6,) * 3), _table((6,) * 4)]
    run = _fused_run(16, 64, 8)  # d16 fits two passes, no more: one threshold
    assert run == ((2**56 + 1) * 16, 2, (2**56 + 1) * 16, 2, [1, 16, 256],
                   [None, None, _table((16, 16))])
    least, low, most, top, powers, tables = _fused_run(2, 128, 64)
    assert (low, top, most) == (9, 10, (2**64 + 1) * 2**9)
    assert len(tables[10]) * 10 <= TABLE_DIGITS < 2**11 * 11
    # a ten-d6 plan decodes by the same (6, 6, 6, 6) table
    assert RadixPlan([6] * 10).steps[0][1] is _fused_run(6, 64, 8)[5][4]


class _Adds(list):
    """A list that notes how `roll_many` fills it: 1 per append, k per
    fused pass that adds its k digits at once."""

    def __init__(self):
        super().__init__()
        self.adds = []

    def append(self, outcome):
        self.adds.append(1)
        super().append(outcome)

    def __iadd__(self, digits):
        self.adds.append(len(digits))
        return super().__iadd__(digits)


# The count loop fuses top passes from `most` up, low passes from `least`
# up, and makes one pass below. Every choice gives the same outcomes, bits
# and state, so the width of the first pass, as `out` sees it, pins each
# threshold. d16 at (64, 8) fuses two passes and no more: one threshold.
@pytest.mark.parametrize("sides, geometry", [
    (2, (64, 8)), (6, (64, 8)), (16, (64, 8)), (6, (128, 64)),
], ids=str)
def test_the_count_form_fuses_from_each_threshold(sides, geometry):
    least, low, most, top, *_ = _fused_run(sides, *geometry)
    cases = [(most, top), (most - 1, low)] if top > low else []
    for size, passes in cases + [(least, low), (least - 1, 1)]:
        snap = (size, 0, *geometry)
        pool, tape, out = EntropyPool.from_snapshot(snap), TapeSource(bytes(range(64))), _Adds()
        counted = observe(lambda: pool.roll_many(sides, tape, out, count=3 * top), pool, tape)
        pool, tape = EntropyPool.from_snapshot(snap), TapeSource(bytes(range(64)))
        repeated = observe(lambda: pool.roll_many(repeat(sides, 3 * top), tape), pool, tape)
        assert counted == repeated and out.adds[0] == passes, (size, out.adds)


def test_the_count_form_works_out_its_steps_once_per_die():
    # each die's run is cached per geometry, whatever the count; 6.0 is
    # refused by the type test ahead of the cache, whose key it would share
    # with 6
    _fused_run.cache_clear()
    pool, source = EntropyPool(), SeededSource(1)
    for count in (2, 3, 16, 64) * 5:
        pool.roll_many(6, source, count=count)
    assert _fused_run.cache_info()[:2] == (19, 1)  # hits, misses
    with pytest.raises(TypeError):
        pool.roll_many(6.0, source, count=5)
    assert _fused_run.cache_info()[:2] == (19, 1)


def test_runs_of_dice_it_does_not_fuse_leave_the_cache_to_those_it_does():
    # d20 and d52 are turned away before the cache, so the three fused dice
    # keep their runs: every call after the first round is a hit
    _fused_run.cache_clear()
    pool, source = EntropyPool(), SeededSource(1)
    for _ in range(10):
        for n in (2, 3, 6, 20, 52):
            pool.roll_many(n, source, count=16)
    assert _fused_run.cache_info()[:2] == (27, 3)  # hits, misses


# From a sliver below the one-chunk band, or a single pass that rejects,
# the count form hands the die to the iterable loop, which refills it from
# the read-ahead: only the empty pool rolls through `roll`. Tapes of every
# length up to 40 bits run out in the hand-off, after it, or not at all.
@pytest.mark.parametrize("snap, sides", [
    ((2, 1, 5, 2), 2),             # a sliver at the floor of (5, 2)
    ((17, 16, 8, 4), 3),           # a reject leaves a sliver of 2 in (8, 4)'s band
    ((4097, 4096, 16, 4), 3),      # a reject leaves a sliver of 2 below (16, 4)'s band
    ((200, 7, 16, 4), 4),          # a sliver below the band, then fused passes
], ids=str)
def test_the_count_form_hands_slivers_and_rejects_to_the_iterable_loop(monkeypatch, snap,
                                                                       sides):
    def roll(*_):
        raise AssertionError("roll called")

    for nbits in range(41):
        pool, expected = EntropyPool.from_snapshot(snap), EntropyPool.from_snapshot(snap)
        data, got, want = bytes(range(90, 95)), [], []
        tape, reference = TapeSource(data, nbits), TapeSource(data, nbits)
        with monkeypatch.context() as patched:
            patched.setattr(EntropyPool, "roll", roll)
            counted = observe(lambda: pool.roll_many(sides, tape, got, count=5), pool, tape)
        assert counted == observe(lambda: reference_many(expected, [sides] * 5, reference, want),
                                  expected, reference), nbits
        assert got == want, nbits


def test_runs_of_five_dice_in_turn_cache_at_most_half_the_tables():
    # each cached run pins its two tables, so the cache holds
    # MAX_TABLES // 2 runs and its runs pin at most MAX_TABLES tables
    _fused_run.cache_clear()
    pool, source = EntropyPool(), SeededSource(1)
    for _ in range(3):
        for n in (2, 3, 4, 5, 6):
            pool.roll_many(n, source, count=40)
    assert _fused_run.cache_info().currsize <= MAX_TABLES // 2


def test_the_count_form_rolls_6_0_and_true_as_the_repeat_form_after_6_and_1():
    # 6.0 and True equal 6 and 1, so they would find those dice's cached runs
    pool, source = EntropyPool(), SeededSource(1)
    pool.roll_many(6, source, count=5)
    pool.roll_many(1, source, count=5)
    for snap in ((2**56, 5, 64, 8), (2**60, 2**59, 64, 8)):
        counted, repeated = _count_and_repeat(snap, 6.0, 5)
        assert counted == repeated and counted[0][0] is TypeError
        counted, repeated = _count_and_repeat(snap, True, 5)
        assert counted == repeated and counted[1] == [0] * 5


def test_runs_of_four_dice_in_turn_keep_their_tables():
    # each run fuses only its two largest k, so four dice need 8 tables,
    # which the cache holds: after the first round, every table is a hit
    _table.cache_clear()
    pool, source = EntropyPool(), SeededSource(1)
    for n in (2, 3, 6, 16):
        pool.roll_many(n, source, count=40)
    built = _table.cache_info().misses
    for _ in range(20):
        for n in (2, 3, 6, 16):
            pool.roll_many(n, source, count=40)
    assert _table.cache_info().misses == built <= MAX_TABLES


def test_roll_many_refuses_a_die_equal_to_the_last_if_not_an_int():
    # A die is checked unless it is the very object last checked, so 6.0
    # after 6 is refused, after the first outcome.
    pool, tape, out = EntropyPool(), TapeSource(bytes(16)), []
    with pytest.raises(TypeError):
        pool.roll_many([6, 6.0], tape, out)
    assert len(out) == 1 and tape.bits_remaining == 128 - pool.bits_drawn


# roll_many reads its refills in 256-bit spans. From an empty (64, 8) pool
# the first fill takes 64 bits, so a tape of 56 + 8k + r bits leaves k - 1
# whole chunks (k >= 1) and r odd bits for the band: the first span read
# runs short below k = 33, a later one from there on, and the chunks must
# still run out at the same roll as in the roll loop; the dice take about
# 400 bits in all. Each large die shrinks the pool below the band, so a wide
# refill tops the read-ahead up, or reads just what it needs.
@pytest.mark.parametrize("r", range(8))
def test_roll_many_on_a_short_tape_runs_out_where_the_roll_loop_does(r):
    sides = ([6] * 12 + [1 << 40] + [6, 52, 3] * 4) * 3
    data = bytes(range(7, 250, 3))
    for k in range(50):
        pool, expected, got, want = EntropyPool(), EntropyPool(), [], []
        tape, reference = TapeSource(data, 56 + 8 * k + r), TapeSource(data, 56 + 8 * k + r)
        assert observe(lambda: pool.roll_many(sides, tape, got), pool, tape) == observe(
            lambda: reference_many(expected, sides, reference, want), expected, reference), k
        assert got == want, k


# One chunk lifts a pool of 2**48 + 1 states to 2**56 + 256, which a die
# of 2**56 accepts with nothing left over. The next die finds the empty
# pool and rolls it through roll, whose first fill must read the bits after
# the chunk taken, not after the span read ahead. That fill reads 64 bits,
# so tapes of 8 to 71 bits run out in it and longer ones roll on. A tape of
# 256 bits or more is read a whole span ahead, 248 bits of it given back.
@pytest.mark.parametrize("nbits", [8, 63, 64, 71, 72, 80, 200, 256, 263, 330])
def test_roll_many_gives_back_its_read_ahead_before_roll_fills_an_emptied_pool(nbits):
    snap, sides, data = (2**48 + 1, 0, 64, 8), [2**56, 6, 6, 52], bytes(range(100, 145))
    pool, expected = EntropyPool.from_snapshot(snap), EntropyPool.from_snapshot(snap)
    tape, reference, got, want = TapeSource(data, nbits), TapeSource(data, nbits), [], []
    assert observe(lambda: pool.roll_many(sides, tape, got), pool, tape) == observe(
        lambda: reference_many(expected, sides, reference, want), expected, reference)
    assert got == want and got[0] == data[0]  # the first die emptied the pool


def test_roll_many_refuses_a_first_die_of_none_unread():
    # A pool in the one-chunk band would refill before its pass, so a first
    # die that roll refuses must be refused before that read.
    snap, tape, out = (2**56, 2**55, 64, 8), TapeSource(bytes(16)), []
    pool = EntropyPool.from_snapshot(snap)
    with pytest.raises(TypeError):
        pool.roll_many([None, 6], tape, out)
    assert (out, pool.snapshot(), pool.bits_drawn, tape.bits_remaining) == (
        [], snap, 0, 128)


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


def test_roll_calls_the_reference_pair_once_per_pass(monkeypatch):
    # Each pass of a lone roll is one top_off call and then one roll_step
    # call, the calls the traced benchmark divides by. From the d3 sliver a
    # one-chunk refill and then a full one land on 2**64 - 1 and reject.
    calls = []
    for name in ("top_off", "roll_step"):
        def spy(pool, arg, name=name, original=getattr(EntropyPool, name)):
            calls.append((name, original(pool, arg)))
            return calls[-1][1]
        monkeypatch.setattr(EntropyPool, name, spy)
    pool = EntropyPool.from_snapshot((2**56, 2**56 - 1, 64, 8))
    assert pool.roll(3, TapeSource(b"\xff" * 9 + bytes(8))) == 0
    assert calls == [("top_off", 8), ("roll_step", None), ("top_off", 64),
                     ("roll_step", None), ("top_off", 64), ("roll_step", 0)]
    assert pool.bits_drawn == 136
    calls.clear()  # above the ceiling a pass still calls both; top_off reads nothing
    assert pool.roll(3, TapeSource(b"")) == 0
    assert calls == [("top_off", 0), ("roll_step", 0)]


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
# rejects on every pass while a negative value accepts on every pass. Every
# such state is refused on entry, before a bit is read, at any size: the tape
# is finite, so a roll that loops runs out instead of hanging.
CORRUPT_POOLS = pytest.mark.parametrize("size,value,drawn", [
    (2**64, 2**64, 0),  # above the ceiling
    (2**56, 2**56, 0),  # the one-chunk band: refused before its read
    (2, 5, 0),  # below the floor: refused before its wide refill
    (0, 0, 0),
    (-5, 3, 0),
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
    assert pool.snapshot() == (size, value, 64, 8)


@CORRUPT_POOLS
def test_roll_many_refuses_a_corrupt_pool_as_roll_does(size, value, drawn):
    pool, tape, out = EntropyPool(), TapeSource(bytes(16)), []
    pool.size, pool.value = size, value
    with pytest.raises(ValueError, match=r"^value must be in \[0, "):
        pool.roll_many([6, 6], tape, out)
    assert (out, pool.bits_drawn, tape.bits_remaining) == ([], drawn, 128 - drawn)
    assert pool.snapshot() == (size, value, 64, 8)


# The state is checked before the die: a corrupt pool names its own value,
# whatever die it is asked for, and roll_many refuses it even with no dice.
@pytest.mark.parametrize("die", [6, 0, (1 << 56) + 1, 6.0], ids=str)
def test_corrupt_pool_is_refused_before_its_die(die):
    pool, tape = EntropyPool(), TapeSource(bytes(16))
    pool.size, pool.value = 2, 5
    for dice in ([die], []):
        with pytest.raises(ValueError, match=r"^value must be in \[0, 1\], got 5$"):
            pool.roll_many(dice, tape)
    with pytest.raises(ValueError, match=r"^value must be in \[0, 1\], got 5$"):
        pool.roll(die, tape)
    assert (pool.snapshot(), pool.bits_drawn, tape.bits_remaining) == ((2, 5, 64, 8), 0, 128)


# roll_many reads every refill of a pool that is not empty inline, wider than
# one chunk or not: only the empty pool goes through `roll`, and so through
# `top_off` and `roll_step`.
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
                pool.roll_many([3], TapeSource(bytes(range(1, 41))))
            assert roll_like_reference(snap, 3)[1] == pool.bits_drawn >= least


@WIDE_REFILLS
def test_wide_refill_running_out_leaves_the_pool_untouched(word_bits, chunk_bits, size, drawn):
    snap = (size, 1, word_bits, chunk_bits)
    pool, tape = EntropyPool.from_snapshot(snap), TapeSource(b"\xff" * 8, drawn - 1)
    with pytest.raises(EntropyExhausted):
        pool.roll(3, tape)
    assert (pool.snapshot(), pool.bits_drawn, tape.bits_remaining) == (snap, 0, drawn - 1)


def test_negative_value_is_refused_at_its_first_refill():
    # Above the ceiling a negative value would accept on every pass with no
    # refill due, so only the check on entry can refuse it: the first roll does.
    pool, source = EntropyPool(), SeededSource(1)
    pool.size, pool.value = 2**60, -1
    with pytest.raises(ValueError, match=r"^value must be in \[0, "):
        pool.roll(6, source)
    assert (pool.snapshot(), pool.bits_drawn) == ((2**60, -1, 64, 8), 0)
