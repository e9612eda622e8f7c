"""The one reference pool that every differential test compares against.

It advances a pool only through `roll_step` and a refill written out
here, so no test compares `top_off` or `roll` with itself. The refill
counts whole chunks one at a time until the size would pass the ceiling,
then makes one read before any write: a source that runs out leaves the
pool and the source as they were, as `top_off` and `roll` do.
"""
import math

from hypothesis import strategies as st

from dicepool import EntropyExhausted, RangeTooLarge
from dicepool.radix import decode_mixed_radix


def reference_top_off(pool, source):
    """Refill `pool` past 2**(word_bits - chunk_bits); returns the bits drawn."""
    ceiling, drawn = 1 << (pool.word_bits - pool.chunk_bits), 0
    while pool.size << drawn <= ceiling:
        drawn += pool.chunk_bits
    if drawn:
        piece = source.next_bits(drawn)
        pool.size <<= drawn
        pool.value = pool.value << drawn | piece
        pool.bits_drawn += drawn
    return drawn


def reference_roll(pool, sides, source):
    """Refill, then make one `roll_step` pass, until a pass accepts."""
    while True:
        reference_top_off(pool, source)
        outcome = pool.roll_step(sides)
        if outcome is not None:
            return outcome


def reference_many(pool, sides, source, out):
    """A `reference_roll` per die of `sides`, each outcome appended to `out`."""
    for n in sides:
        out.append(reference_roll(pool, n, source))
    return out


def reference_checked(pool, sides, source, out):
    """`reference_many`, with each die checked in its turn as `roll` checks
    an int die: ValueError below 1, RangeTooLarge above the ceiling."""
    ceiling = 1 << (pool.word_bits - pool.chunk_bits)
    for n in sides:
        if not 1 <= n <= ceiling:
            raise (ValueError if n < 1 else RangeTooLarge)(n)
        out.append(reference_roll(pool, n, source))
    return out


def refusal_or(call):
    """What `call()` returns, or the type of the ValueError it raises."""
    try:
        return call()
    except ValueError as refused:
        return type(refused)


def reference_batch(pool, ranges, source):
    """One reference roll of the product of `ranges`, as its mixed-radix digits."""
    if not ranges:  # an empty plan leaves the pool untouched
        return []
    return decode_mixed_radix(reference_roll(pool, math.prod(ranges), source), ranges)


def reference_batches(pool, ranges, source, count, out):
    """`count` reference batches in a row, their digits appended to `out`."""
    for _ in range(count):
        out += reference_batch(pool, ranges, source)
    return out


def observe(call, pool, source):
    """What `call()` did: its outcome or EntropyExhausted, the snapshot and
    `bits_drawn` of `pool`, and the bits left on `source` (None if not a tape)."""
    try:
        outcome = call()
    except EntropyExhausted:
        outcome = EntropyExhausted
    return outcome, pool.snapshot(), pool.bits_drawn, getattr(source, "bits_remaining", None)


def dice(ceiling):
    """A die a pool with this ceiling rolls: often small, sometimes up to the ceiling."""
    return st.one_of(st.integers(1, min(ceiling, 64)), st.integers(1, ceiling))
