"""Exhaustive small worlds: every pool state, die and tape of a tiny pool.

For every geometry with word_bits <= 4, `roll`, `roll_batch` of one
and of two draws, two rolls in a row, `roll_many` over two dice and
`roll_many`'s count form over up to three of one die must agree with the reference pool of `pool_oracle` (a refill written out
there, then a `roll_step` pass, until a pass accepts; it never calls
`top_off`) on every state (size <= 2**word_bits, value < size), every
die up to the ceiling, and every tape. Tapes are walked as a prefix
tree: one that runs out is extended by each next bit, one on which the
op completes is a leaf, since further bits stay unread.
Both sides must give the same outcome or EntropyExhausted, the same
outcomes appended before it, the same snapshot, `bits_drawn` and tape
bits left.
"""
import itertools
import math

import pytest

import dicepool.pool
from dicepool import EntropyExhausted, EntropyPool, RadixPlan, TapeSource, roll_batch
from pool_oracle import (observe, reference_batch, reference_batches, reference_many,
                         reference_roll)

WORLDS = [(w, b) for w in range(1, 5) for b in range(1, w + 1)]
MAX_TAPE_BITS = 10  # a tape still running out this long is compared, not extended


def states(word_bits):
    return [(size, value) for size in range(1, (1 << word_bits) + 1)
            for value in range(size)]


def run(op, snap, bits, nbits):
    """`observe` of op(pool, tape, out) from `snap`, and the list `out` it appended to."""
    pool, tape, out = EntropyPool.from_snapshot(snap), TapeSource.from_int(bits, nbits), []
    return (*observe(lambda: op(pool, tape, out), pool, tape), out)


def walk(snap, op, reference):
    """Compare `op` with `reference` from `snap` on every tape."""
    tapes = [(0, 0)]
    while tapes:
        bits, nbits = tapes.pop()
        got = run(op, snap, bits, nbits)
        assert got == run(reference, snap, bits, nbits), (snap, f"{bits:0{nbits}b}")
        if got[0] is EntropyExhausted and nbits < MAX_TAPE_BITS:
            tapes += [(bits << 1, nbits + 1), (bits << 1 | 1, nbits + 1)]


def plans(ceiling, head=()):
    """Every plan of ranges >= 2 whose product is at most `ceiling`, after `head`."""
    found = []
    for n in range(2, ceiling + 1):
        if math.prod(head) * n <= ceiling:
            found += [head + (n,)] + plans(ceiling, head + (n,))
    return found


# Below word_bits 5, only chunk_bits 1 refills a non-empty pool by more than
# one chunk; (5, 2) is the smallest world where that refill reads two chunks.
@pytest.mark.parametrize("word_bits,chunk_bits", WORLDS + [(5, 2)])
def test_roll_matches_the_reference_loop_everywhere(word_bits, chunk_bits):
    ceiling = 1 << (word_bits - chunk_bits)
    for size, value in states(word_bits):
        snap = (size, value, word_bits, chunk_bits)
        for sides in range(1, ceiling + 1):
            walk(snap, lambda pool, tape, _: pool.roll(sides, tape),
                 lambda pool, tape, _: reference_roll(pool, sides, tape))


# A value >= size would reject on every pass and a negative value would
# accept on every pass; at any size, each is refused on entry with no bit
# read and the pool as it was. Where from_snapshot accepts the size, the
# refusal is the text from_snapshot raises for the same snapshot.
@pytest.mark.parametrize("word_bits,chunk_bits", WORLDS)
def test_corrupt_states_are_refused_everywhere(word_bits, chunk_bits):
    ceiling, top = 1 << (word_bits - chunk_bits), 1 << word_bits
    corrupt = [(size, value) for size in range(-1, top + 2)
               for value in (-2, -1, *range(max(size, 0), top + 2))]
    for size, value in corrupt:
        snap = (size, value, word_bits, chunk_bits)
        text = None
        if 1 <= size <= top:
            with pytest.raises(ValueError) as rebuilt:
                EntropyPool.from_snapshot(snap)
            text = str(rebuilt.value)
        for sides, many in itertools.product(range(1, ceiling + 1), (False, True)):
            pool, tape = EntropyPool(word_bits, chunk_bits), TapeSource(b"\xff" * 4)
            pool.size, pool.value = size, value
            with pytest.raises(ValueError, match=r"^value must be in \[0, ") as refused:
                pool.roll_many([sides], tape) if many else pool.roll(sides, tape)
            assert (pool.snapshot(), pool.bits_drawn, tape.bits_remaining) == (
                snap, 0, 32), (snap, sides, many)
            assert text in (None, str(refused.value)), (snap, sides, many)


@pytest.mark.parametrize("word_bits,chunk_bits", WORLDS)
def test_roll_batch_matches_the_reference_loop_everywhere(word_bits, chunk_bits):
    ceiling = 1 << (word_bits - chunk_bits)
    for ranges in plans(ceiling):
        plan = RadixPlan(ranges)
        for size, value in states(word_bits):
            snap = (size, value, word_bits, chunk_bits)
            walk(snap, lambda pool, tape, _: roll_batch(pool, plan, tape),
                 lambda pool, tape, _: reference_batch(pool, ranges, tape))
            # two draws in one call: a tape may run out on the second, after
            # the first draw's digits are in `out`
            walk(snap, lambda pool, tape, out: roll_batch(pool, plan, tape, 2, out),
                 lambda pool, tape, out: reference_batches(pool, ranges, tape, 2, out))


@pytest.mark.parametrize("word_bits,chunk_bits", WORLDS)
def test_two_rolls_match_the_reference_loop_everywhere(word_bits, chunk_bits):
    ceiling = 1 << (word_bits - chunk_bits)
    snap = (1, 0, word_bits, chunk_bits)  # the first roll leaves the second its state
    for first, second in itertools.product(range(1, ceiling + 1), repeat=2):
        walk(snap, lambda pool, tape, _: (pool.roll(first, tape), pool.roll(second, tape)),
             lambda pool, tape, _: (reference_roll(pool, first, tape),
                                    reference_roll(pool, second, tape)))


# Every pair of dice, with tapes that run out on the second die too (the
# first outcome stays in `out`). From every state, but in the two worlds
# where that takes over 10 s, from the states at the edges of roll_many's
# routes: the floor below which it calls roll, the one-chunk band above it,
# the ceiling and the full pool.
@pytest.mark.parametrize("word_bits,chunk_bits", WORLDS + [(5, 2)])
def test_roll_many_matches_the_reference_loop_on_every_pair(word_bits, chunk_bits):
    ceiling = 1 << (word_bits - chunk_bits)
    floor = ceiling >> chunk_bits
    if (word_bits, chunk_bits) in ((4, 1), (5, 2)):
        sizes = sorted({1, max(1, floor), floor + 1, ceiling, ceiling + 1, 1 << word_bits})
        starts = [(size, value) for size in sizes for value in {0, size // 2, size - 1}]
    else:
        starts = states(word_bits)
    for size, value in starts:
        for pair in itertools.product(range(1, ceiling + 1), repeat=2):
            walk((size, value, word_bits, chunk_bits),
                 lambda pool, tape, out: pool.roll_many(iter(pair), tape, out),
                 lambda pool, tape, out: reference_many(pool, pair, tape, out))


# A run of one die, count 0 to 3. Under the real gate d2 is fused wherever
# chunk_bits >= 2; with the gate opened to every die up to 2**chunk_bits
# (power 1), d3 is fused at (4, 2) and (5, 2) too (d4 never is at (4, 2):
# only one pass fits there, as 5 * 4 > 16). The gate comes before the
# run's cache, so a run cached under one gate never leaks into a case
# under another; the dice whose run is looked up are recorded, and d3's
# must be under the opened gate alone. A tape may run out after a fused
# pass's outcomes are in `out`. Every state and die, but in the two
# worlds where that takes over 10 s, three values of every size and the
# dice up to 2**chunk_bits, the only ones any gate fuses.
@pytest.mark.parametrize("word_bits,chunk_bits,fuse_power",
                         [(w, b, dicepool.pool.FUSE_POWER) for w, b in WORLDS + [(5, 2)]]
                         + [(4, 2, 1), (5, 2, 1)])
def test_roll_many_count_matches_the_reference_loop_everywhere(monkeypatch, word_bits,
                                                               chunk_bits, fuse_power):
    looked_up, fused_run = set(), dicepool.pool._fused_run
    monkeypatch.setattr(dicepool.pool, "_fused_run",
                        lambda *key: looked_up.add(key) or fused_run(*key))
    monkeypatch.setattr(dicepool.pool, "FUSE_POWER", fuse_power)
    ceiling = 1 << (word_bits - chunk_bits)
    starts, dice = states(word_bits), range(1, ceiling + 1)
    if (word_bits, chunk_bits) in ((4, 1), (5, 2)):
        starts = {(size, value) for size, _ in starts for value in (0, size // 2, size - 1)}
        dice = range(1, min(ceiling, 1 << chunk_bits) + 1)
    for size, value in starts:
        for sides, count in itertools.product(dice, range(4)):
            walk((size, value, word_bits, chunk_bits),
                 lambda pool, tape, out: pool.roll_many(sides, tape, out, count=count),
                 lambda pool, tape, out: reference_many(pool, [sides] * count, tape, out))
    assert ((3, word_bits, chunk_bits) in looked_up) == (fuse_power == 1)
