"""Closed-form model of the entropy the pool's reduction pass wastes.

That waste is the information its biased accept test reveals, and
0 * log 0 = 0 makes p in {0, 1} total.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .sources import _int_in

ESTIMATE_REGIME_FACTOR = 4  # large-pool estimate wants pool_size >= 4 * sides


def binary_entropy(p: float) -> float:
    """-p*log2(p) - (1-p)*log2(1-p), the information in one biased flip."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    # log1p keeps the (1-p) term accurate for tiny p, where 1.0 - p rounds to 1.
    return -p * math.log2(p) - (1.0 - p) * math.log1p(-p) / math.log(2.0)


def waste_per_roll(p: float) -> float:
    """Expected waste per accepted roll: binary_entropy(p) / p.

    A pass wastes binary_entropy(p) and an accept takes 1/p passes on
    average. Strictly decreasing in p on (0, 1], zero at p = 1.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    return binary_entropy(p) / p


def efficiency_estimate(sides: int, pool_size: int) -> float:
    """Large-pool estimate of output entropy over entropy consumed.

    1 - (sides / (2*pool_size)) * (1 + ln 2 + ln pool_size - ln sides) / ln sides

    Valid for 2 <= sides and pool_size >= ESTIMATE_REGIME_FACTOR * sides;
    below that it is an extrapolation.
    """
    sides, pool_size = _int_in("sides", sides, 2), _int_in("pool_size", pool_size, 1)
    ln_sides = math.log(sides)
    deficit = (sides / (2.0 * pool_size)) * (
        (1.0 + math.log(2.0) + math.log(pool_size) - ln_sides) / ln_sides
    )
    return 1.0 - deficit


class WastePoint(namedtuple("WastePoint", "p waste_iter waste_roll")):
    """Accept probability p, bits lost per pass and per accepted roll."""

    __slots__ = ()


def waste_point(sides: int, pool_size: int) -> WastePoint:
    """Waste of the reduction pass the pool makes on `pool_size` states.

    The accept and offcut shares are each one correctly rounded int/int
    division. The entropy comes from the offcut share, (pool_size % sides)
    / pool_size, which keeps its precision where p rounds to 1. A pool smaller than the die accepts
    nothing: p is 0 and the waste per roll is infinite.
    """
    sides, pool_size = _int_in("sides", sides, 1), _int_in("pool_size", pool_size, 1)
    offcut = pool_size % sides
    accepted = pool_size - offcut
    p = accepted / pool_size
    waste_iter = binary_entropy(offcut / pool_size)
    waste_roll = waste_iter / p if accepted else math.inf
    return WastePoint(p, waste_iter, waste_roll)
