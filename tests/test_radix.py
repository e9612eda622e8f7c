"""Mixed-radix batching and the batched/sequential equivalence."""

import pytest

from dicepool import (
    EntropyPool,
    RadixPlan,
    SeededSource,
    TapeSource,
    decode_mixed_radix,
    encode_mixed_radix,
    equivalence_check,
    roll_batch,
)


def test_plan_product():
    assert RadixPlan((2, 3)).product == 6
    assert RadixPlan([4, 4, 4]).product == 64
    assert RadixPlan(()).product == 1


def test_plan_rejects_nonpositive_range():
    with pytest.raises(ValueError):
        RadixPlan((2, 0))


def test_decode_least_significant_first():
    assert decode_mixed_radix(5, (2, 3)) == [1, 2]


@pytest.mark.parametrize("ranges", [(2, 3), (3, 5), (4, 4, 4), (7,), (1, 5, 1)])
def test_decode_encode_bijection(ranges):
    plan = RadixPlan(ranges)
    seen = set()
    for value in range(plan.product):
        digits = decode_mixed_radix(value, ranges)
        assert all(0 <= d < n for d, n in zip(digits, ranges))
        assert encode_mixed_radix(digits, ranges) == value
        seen.add(tuple(digits))
    assert len(seen) == plan.product


def test_encode_validates_digits():
    with pytest.raises(ValueError):
        encode_mixed_radix([2, 0], (2, 3))
    with pytest.raises(ValueError):
        encode_mixed_radix([0], (2, 3))


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
        assert encode_mixed_radix(digits, plan.ranges) == value % 64
        assert pool.size == 4


def test_equivalence_single_byte():
    tape = TapeSource(bytes([0xA7]))
    assert equivalence_check(tape, RadixPlan((2, 3)), word_bits=8, chunk_bits=8)


def test_equivalence_exhaustive_one_byte_tapes():
    plan = RadixPlan((2, 3))
    for value in range(256):
        tape = TapeSource(bytes([value]))
        assert equivalence_check(tape, plan, word_bits=8, chunk_bits=8)


def test_equivalence_singleton_plan():
    for value in (0, 100, 255):
        tape = TapeSource(bytes([value]))
        assert equivalence_check(tape, RadixPlan((6,)), word_bits=8, chunk_bits=8)


def test_equivalence_empty_plan():
    assert equivalence_check(TapeSource(b""), RadixPlan(()))


def test_equivalence_does_not_consume_tape():
    tape = TapeSource(bytes([0xA7]))
    equivalence_check(tape, RadixPlan((2, 3)), word_bits=8, chunk_bits=8)
    assert tape.bits_remaining == 8
