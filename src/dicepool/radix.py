"""Batched rolling: one product-range draw decoded as a mixed-radix number.

When several ranges n_1..n_j are known up front, a single roll over
n_1 * ... * n_j costs at most one bit of rounding overhead in total; the
digits of the outcome, taken with n_1 as the least significant radix,
are the individual rolls. Digit order matters: least-significant-first
matches what sequential rolling peels off the pool (value mod n first),
which is what makes the two procedures agree draw for draw.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .pool import EntropyPool
from .sources import EntropySource, _int_in


class RadixPlan(namedtuple("RadixPlan", "ranges product")):
    """An ordered sequence of die ranges rolled as one product draw.

    `product` is computed from the ranges when the plan is made, so a
    plan compares, hashes, prints and pickles by its ranges alone.
    """

    __slots__ = ()

    def __new__(cls, ranges: Iterable[int]) -> RadixPlan:
        ranges = tuple([_int_in("range", n, 1) for n in ranges])
        return super().__new__(cls, ranges, math.prod(ranges))

    def __getnewargs__(self) -> tuple[tuple[int, ...]]:
        return (self.ranges,)

    def __repr__(self) -> str:
        return f"RadixPlan(ranges={self.ranges!r})"


def decode_mixed_radix(value: int, ranges: Sequence[int]) -> list[int]:
    """Digits of `value` with ranges[0] as the least significant radix."""
    digits = []
    for n in ranges:
        digits.append(value % n)
        value //= n
    return digits


def roll_batch(pool: EntropyPool, plan: RadixPlan, source: EntropySource) -> list[int]:
    """Roll every range in `plan` via one product-range draw.

    Returns the outcomes in plan order. An empty plan returns an empty
    list and leaves the pool untouched. The product must satisfy the
    usual roll bound (product <= 2**(word_bits - chunk_bits)).
    """
    if not plan.ranges:
        return []
    return decode_mixed_radix(pool.roll(plan.product, source), plan.ranges)

