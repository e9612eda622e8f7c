"""Batched rolling: one product-range draw decoded as a mixed-radix number.

One roll over the product of ranges n_1..n_j costs at most one bit of
rounding in all. Its digits, n_1 least significant, decoded by `pool`'s
digit tables, are the rolls sequential rolling makes, draw for draw.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .pool import MAX_TABLES, TABLE_DIGITS, EntropyPool, _table
from .sources import EntropySource, _int_in


class RadixPlan(namedtuple("RadixPlan", "ranges product steps")):
    """An ordered sequence of die ranges rolled as one product draw.

    `product` and `steps` derive from the ranges (`_make` and `_replace`
    rebuild them), so a plan compares, hashes, prints and pickles by its
    ranges. `steps` has a (size, table) pair per group of consecutive ranges,
    least significant first: table[d] is group value d's digits, or None.
    """

    __slots__ = ()

    def __new__(cls, ranges: Iterable[int]) -> RadixPlan:
        ranges = tuple([_int_in("range", n, 1) for n in ranges])
        return super().__new__(cls, ranges, math.prod(ranges), _steps(ranges))

    @classmethod
    def _make(cls, fields: Iterable) -> RadixPlan:
        return cls(next(iter(fields)))  # product and steps are always rebuilt

    def __getnewargs__(self) -> tuple[tuple[int, ...]]:
        return (self.ranges,)

    def __hash__(self) -> int:
        return hash(self.ranges)  # never walks the tables

    def __repr__(self) -> str:
        return f"RadixPlan(ranges={self.ranges!r})"


def _steps(ranges: tuple[int, ...]) -> tuple[tuple[int, tuple | None], ...]:
    """Group consecutive ranges greedily under the digit cap."""
    groups, size = [[]], 1
    for n in ranges:
        size *= n
        if size * (len(groups[-1]) + 1) > TABLE_DIGITS:
            groups.append([])
            size = n
        groups[-1].append(n)
    steps, tabled = [], set()
    for group in map(tuple, groups):
        if len(group) > 1 and (group in tabled or len(tabled) < MAX_TABLES):
            tabled.add(group)
            steps.append((math.prod(group), _table(group)))
        else:
            steps += [(n, None) for n in group]
    return tuple(steps)


def decode_mixed_radix(value: int, ranges: Sequence[int]) -> list[int]:
    """Digits of `value` with ranges[0] as the least significant radix."""
    digits = []
    for n in ranges:
        digits.append(value % n)
        value //= n
    return digits


def roll_batch(pool: EntropyPool, plan: RadixPlan, source: EntropySource, count: int = 1,
               out: list[int] | None = None) -> list[int]:
    """Roll every range in `plan` by one product-range draw, `count` times.

    Appends the outcomes to `out` (a new list if None), in plan order, and
    returns it. The draws are one `pool.roll_many(plan.product, source,
    count=count)` call, so bits and pool end as after `count` calls of
    `pool.roll(plan.product, source)`; if a draw raises, the draws before it
    are still decoded into `out`. An empty plan appends nothing and leaves
    the pool untouched. The product must be at most `pool.refill_ceiling`
    and `count` an int >= 0.
    """
    count = _int_in("count", count, 0)
    if out is None:
        out = []
    if not plan.ranges:
        return out
    values: list[int] = []
    try:
        pool.roll_many(plan.product, source, values, count=count)
    finally:  # the draws made before a raise are decoded too
        steps, append = plan.steps, out.append
        for value in values:
            for size, table in steps:
                if table is None:
                    append(value % size)
                else:
                    out += table[value % size]
                value //= size
    return out
