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
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .pool import EntropyPool
from .sources import EntropySource


@dataclass(frozen=True)
class RadixPlan:
    """An ordered sequence of die ranges rolled as one product draw."""

    ranges: tuple[int, ...]

    def __init__(self, ranges: Iterable[int]) -> None:
        object.__setattr__(self, "ranges", tuple(map(operator.index, ranges)))
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


def roll_batch(pool: EntropyPool, plan: RadixPlan, source: EntropySource) -> list[int]:
    """Roll every range in `plan` via one product-range draw.

    Returns the outcomes in plan order. An empty plan returns an empty
    list and leaves the pool untouched. The product must satisfy the
    usual roll bound (product <= 2**(word_bits - chunk_bits)).
    """
    if not plan.ranges:
        return []
    return decode_mixed_radix(pool.roll(plan.product, source), plan.ranges)

