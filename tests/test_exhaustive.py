"""Exhaustive small worlds: every pool state, die and tape of a tiny pool.

For every geometry with word_bits <= 4, `roll`, `roll_batch`, two
rolls in a row and `roll_many` over two dice must agree with the
reference pool of `pool_oracle` (a refill written out there, then a
`roll_step` pass, until a pass accepts; it never calls `top_off`) on
every state (size <= 2**word_bits, value < size), every die up to the
ceiling, and every tape. Tapes are
walked as a prefix tree: one that runs out is extended by each next bit,
one on which the op completes is a leaf, since further bits stay unread.
Both sides must give the same outcome or EntropyExhausted, the same
outcomes appended before it, the same snapshot, `bits_drawn` and tape
bits left.
"""
import itertools
import math

import pytest

from dicepool import EntropyExhausted, EntropyPool, RadixPlan, TapeSource, roll_batch
from pool_oracle import observe, reference_batch, reference_many, reference_roll

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


# A value >= size rejects on every pass and is refused at its first reject.
# A negative value would accept on every pass: at or below the ceiling a
# refill is due, and it is refused before a bit is read.
@pytest.mark.parametrize("word_bits,chunk_bits", WORLDS)
def test_corrupt_states_are_refused_everywhere(word_bits, chunk_bits):
    ceiling = 1 << (word_bits - chunk_bits)
    corrupt = [(size, value) for size in range(1, (1 << word_bits) + 1)
               for value in range(size, (1 << word_bits) + 2)]
    negative = [(size, value) for size in range(1, ceiling + 1) for value in (-2, -1)]
    for size, value in corrupt + negative:
        for sides, many in itertools.product(range(1, ceiling + 1), (False, True)):
            pool, tape = EntropyPool(word_bits, chunk_bits), TapeSource(b"\xff" * 4)
            pool.size, pool.value = size, value
            with pytest.raises(ValueError, match=r"^value must be in \[0, "):
                pool.roll_many([sides], tape) if many else pool.roll(sides, tape)
            if value < 0:
                assert (pool.bits_drawn, tape.bits_remaining) == (0, 32), (size, value, many)


@pytest.mark.parametrize("word_bits,chunk_bits", WORLDS)
def test_roll_batch_matches_the_reference_loop_everywhere(word_bits, chunk_bits):
    ceiling = 1 << (word_bits - chunk_bits)
    for ranges in plans(ceiling):
        plan = RadixPlan(ranges)
        for size, value in states(word_bits):
            walk((size, value, word_bits, chunk_bits),
                 lambda pool, tape, _: roll_batch(pool, plan, tape),
                 lambda pool, tape, _: reference_batch(pool, ranges, tape))


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
