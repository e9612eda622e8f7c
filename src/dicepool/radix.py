"""Batched rolling: one product-range draw decoded as a mixed-radix number.

When several ranges n_1..n_j are known up front, a single roll over
n_1 * ... * n_j costs at most one bit of rounding overhead in total; the
digits of the outcome, taken with n_1 as the least significant radix,
are the individual rolls. Digit order matters: least-significant-first
matches what sequential rolling peels off the pool (value mod n first),
which is what makes the two procedures agree draw for draw.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .pool import EntropyPool
from .sources import EntropySource, TapeSource


@dataclass(frozen=True)
class RadixPlan:
    """An ordered sequence of die ranges rolled as one product draw."""

    ranges: tuple[int, ...]

    def __init__(self, ranges: Iterable[int]) -> None:
        object.__setattr__(self, "ranges", tuple(int(n) for n in ranges))
        for n in self.ranges:
            if n < 1:
                raise ValueError(f"every range must be >= 1, got {n}")

    @functools.cached_property
    def product(self) -> int:
        return math.prod(self.ranges)


def decode_mixed_radix(value: int, ranges: Sequence[int]) -> list[int]:
    """Digits of `value` with ranges[0] as the least significant radix."""
    digits = []
    for n in ranges:
        value, digit = divmod(value, n)
        digits.append(digit)
    return digits


def encode_mixed_radix(digits: Sequence[int], ranges: Sequence[int]) -> int:
    """Inverse of decode: digits back to the product-range value."""
    if len(digits) != len(ranges):
        raise ValueError("digit count must match range count")
    value = 0
    for digit, n in zip(reversed(digits), reversed(ranges)):
        if not 0 <= digit < n:
            raise ValueError(f"digit {digit} out of range [0, {n})")
        value = value * n + digit
    return value


def roll_batch(pool: EntropyPool, plan: RadixPlan, source: EntropySource) -> list[int]:
    """Roll every range in `plan` via one product-range draw.

    Returns the outcomes in plan order. An empty plan returns an empty
    list and leaves the pool untouched. The product must satisfy the
    usual roll bound (product <= 2**(word_bits - chunk_bits)).
    """
    if not plan.ranges:
        return []
    return decode_mixed_radix(pool.roll(plan.product, source), plan.ranges)


def equivalence_check(
    tape: TapeSource,
    plan: RadixPlan,
    *,
    word_bits: int = 64,
    chunk_bits: int = 8,
) -> bool:
    """Check that one batched draw equals sequential rolls, bit for bit.

    Two pools are preloaded by topping off from identical copies of
    `tape` (the given source is forked, not consumed), then a single
    composite attempt runs on each with no further refill: one reduction
    over the product range on the first pool, a chain of one reduction
    per range on the second. Returns True when both succeed with
    identical digit sequences and identical final pool states, or both
    fail their accept test. After a failure the two leftover pools
    legitimately differ (the sequential side has already emitted early
    digits), so failure states are not compared.
    """
    if not plan.ranges:
        return True
    batch_pool = EntropyPool(word_bits, chunk_bits)
    batch_pool.top_off(tape.fork())
    seq_pool = EntropyPool(word_bits, chunk_bits)
    seq_pool.top_off(tape.fork())

    outcome = batch_pool.roll_step(plan.product)
    batch_digits = None if outcome is None else decode_mixed_radix(outcome, plan.ranges)

    seq_digits: list[int] | None = []
    for n in plan.ranges:
        digit = seq_pool.roll_step(n)
        if digit is None:
            seq_digits = None
            break
        seq_digits.append(digit)

    if batch_digits is None or seq_digits is None:
        return batch_digits is None and seq_digits is None
    return batch_digits == seq_digits and batch_pool.snapshot() == seq_pool.snapshot()
