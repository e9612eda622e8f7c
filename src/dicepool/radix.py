"""Batched rolling: one product-range draw decoded as a mixed-radix number.

When several ranges n_1..n_j are known up front, one roll over their
product costs at most one bit of rounding overhead in total; its digits,
with n_1 as the least significant radix, are the individual rolls in the
order sequential rolling peels them off the pool (value mod n first), so
the two agree draw for draw. `roll_batch` makes any number of such
draws in one `EntropyPool.roll_many` call. Runs of ranges decode by
digit tables that TABLE_DIGITS and MAX_TABLES bound, whatever the
plan's length; the tables and their cache live in `pool`, whose count
form decodes fused runs of one die by the same tables.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .pool import MAX_TABLES, TABLE_DIGITS, EntropyPool, _table
from .sources import EntropySource, _int_in


class RadixPlan(namedtuple("RadixPlan", "ranges product steps")):
    """An ordered sequence of die ranges rolled as one product draw.

    `product` and `steps` are derived from the ranges, and `_make` and
    `_replace` rebuild them too, so a plan compares, hashes, prints and
    pickles by its ranges alone. `steps` holds one (size, table) pair per
    group of consecutive ranges, least significant first: table[d] is the
    digits of group value d; a None table is one range decoded alone.
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
    """Roll every range in `plan` via one product-range draw, `count` times.

    Appends the outcomes to `out` (a new list if None), in plan order,
    draw after draw, and returns it. The `count` draws are one
    `pool.roll_many(plan.product, source, count=count)` call, so they
    draw the bits, and leave the pool, as `count` calls of
    `pool.roll(plan.product, source)` would (a product small enough is
    fused); if a draw raises (a tape runs out), the draws before it are
    still decoded into `out`. An empty plan appends nothing and leaves
    the pool untouched. The product must satisfy the usual roll bound
    (product <= 2**(word_bits - chunk_bits)); `count` must be an int >= 0.
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
