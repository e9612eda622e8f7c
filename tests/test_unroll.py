"""Inverse replay: the pool loses no bit but the accept/reject flags.

The public record of a run (each die, its outcome, and the fresh bits
its roll drew) fixes the pool's size path. Undoing every step from the
final pool value must then land on the empty pool's value 0 and give
back, bit for bit, the exact tape prefix the pool consumed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicepool import EntropyExhausted, EntropyPool, SeededSource, TapeSource
import pool_oracle


def size_path(word_bits, chunk_bits, record):
    """Rebuild the steps behind `record`, a list of (sides, outcome, drawn).

    `outcome` is None for a roll cut short by EntropyExhausted. Returns
    the final size and a list of (step, size before it, detail) where a
    step is "refill" (detail: bits read), "accept" (sides, outcome) or
    "reject" (sides, the keep it cut at).
    """
    ceiling = 1 << (word_bits - chunk_bits)
    size, steps = 1, []
    for sides, outcome, drawn in record:
        spent = 0
        while True:
            if size <= ceiling:  # the fewest whole chunks that lift size past it
                width = chunk_bits
                while size << width <= ceiling:
                    width += chunk_bits
                if outcome is None and spent + width > drawn:
                    break  # the refill that ran out; it changes nothing
                steps.append(("refill", size, width))
                size, spent = size << width, spent + width
            assert spent <= drawn
            # A pass accepts iff the roll draws nothing more: a reject
            # leaves size < sides <= ceiling, so a refill always follows.
            if outcome is not None and spent == drawn:
                steps.append(("accept", size, (sides, outcome)))
                size //= sides
                break
            assert size % sides, "a pool of whole dice cannot reject"
            steps.append(("reject", size, (sides, size // sides)))
            size %= sides
        assert spent == drawn
    return size, steps


def unroll(steps, value):
    """Undo `steps` from the final `value`: (start value, bits read, width)."""
    bits, width = 0, 0
    for step, size, detail in reversed(steps):
        if step == "accept":
            sides, outcome = detail
            assert 0 <= outcome < sides
            value = value * sides + outcome
        elif step == "reject":
            sides, keep = detail
            value += sides * keep
        else:
            bits |= (value & ((1 << detail) - 1)) << width
            value >>= detail
            width += detail
        assert 0 <= value < size
    return value, bits, width


def roll_all(pool, dice, source):
    """Roll `dice` until one runs the source dry; the public record."""
    record = []
    for sides in dice:
        before = pool.bits_drawn
        try:
            outcome = pool.roll(sides, source)
        except EntropyExhausted:
            record.append((sides, None, pool.bits_drawn - before))
            break
        record.append((sides, outcome, pool.bits_drawn - before))
    return record


def check_round_trip(pool, record):
    """Unroll `pool` along `record`: (the consumed bits as one integer, steps)."""
    size, steps = size_path(pool.word_bits, pool.chunk_bits, record)
    assert size == pool.size
    start, bits, width = unroll(steps, pool.value)
    assert start == 0
    assert width == pool.bits_drawn
    return bits, steps


@st.composite
def runs(draw):
    word_bits = draw(st.integers(1, 130))
    chunk_bits = draw(st.integers(1, word_bits))
    ceiling = 1 << (word_bits - chunk_bits)
    dice = draw(st.lists(pool_oracle.dice(ceiling), max_size=40))
    return word_bits, chunk_bits, dice, draw(st.binary(max_size=600))


@settings(max_examples=300, deadline=None)
@given(runs())
def test_unroll_recovers_the_consumed_tape(run):
    word_bits, chunk_bits, dice, tape = run
    pool, source = EntropyPool(word_bits, chunk_bits), TapeSource(tape)
    record = roll_all(pool, dice, source)
    bits, _ = check_round_trip(pool, record)
    drawn = pool.bits_drawn
    assert source.bits_remaining == 8 * len(tape) - drawn
    assert bits == int.from_bytes(tape, "big") >> (8 * len(tape) - drawn)


@pytest.mark.parametrize("word_bits,chunk_bits", [(64, 8), (64, 1), (13, 5)])
def test_unroll_long_seeded_run(word_bits, chunk_bits):
    ceiling = 1 << (word_bits - chunk_bits)
    faces = [2, 3, 6, 7, 52, 1000, 2**40 + 1, ceiling // 3 + 1, ceiling - 1]
    dice = [min(faces[i % len(faces)], ceiling) for i in range(2000)]
    pool = EntropyPool(word_bits, chunk_bits)
    record = roll_all(pool, dice, SeededSource(11))
    bits, steps = check_round_trip(pool, record)
    assert bits == SeededSource(11).next_bits(pool.bits_drawn)
    assert {step for step, _, _ in steps} == {"refill", "accept", "reject"}
