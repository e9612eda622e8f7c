"""Mixed-radix batching and the batched/sequential equivalence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicepool import (
    EntropyPool,
    RadixPlan,
    SeededSource,
    TapeSource,
    decode_mixed_radix,
    roll_batch,
)


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
