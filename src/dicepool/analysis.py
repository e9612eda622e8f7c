"""Closed-form model of entropy waste in recycled die rolling.

Pure functions. Pool sizes enter as integers, so each accept or offcut
share is one correctly rounded int/int division. The accept/reject test
of each reduction pass is a biased coin flip, and the information that
flip reveals is exactly the entropy the pass loses; everything here
follows from that. The 0 * log 0 = 0 convention makes p in {0, 1} total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ESTIMATE_REGIME_FACTOR = 4  # large-pool estimate wants pool_size >= 4 * sides


def binary_entropy(p: float) -> float:
    """-p*log2(p) - (1-p)*log2(1-p), the information in one biased flip."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    # log1p keeps the (1-p) term accurate for tiny p, where 1.0 - p rounds to 1.
    return -p * math.log2(p) - (1.0 - p) * math.log1p(-p) / math.log(2.0)


def waste_per_iteration(pool_size: int, sides: int, keep: int) -> float:
    """Expected entropy lost by one reduction pass, from the ledger.

    Before the pass the pool holds log2(pool_size) bits. With
    probability sides*keep/pool_size the pass succeeds, leaving
    log2(keep) bits in the pool plus log2(sides) bits of output;
    otherwise the leftover sliver holds log2(pool_size - sides*keep)
    bits. The shortfall of the expected after-total is the waste.
    Equals binary_entropy(sides*keep/pool_size); the identity is checked
    numerically in the tests rather than assumed here.
    """
    if pool_size < 1 or sides < 1 or keep < 1:
        raise ValueError("pool_size, sides and keep must all be positive")
    accepted = sides * keep
    if accepted > pool_size:
        raise ValueError(
            f"sides*keep = {accepted} exceeds pool_size = {pool_size}"
        )
    p = accepted / pool_size
    waste = math.log2(pool_size) - p * (math.log2(keep) + math.log2(sides))
    leftover = pool_size - accepted
    if leftover:
        waste -= (leftover / pool_size) * math.log2(leftover)
    return waste


def waste_per_roll(p: float) -> float:
    """Expected waste per accepted roll: binary_entropy(p) / p.

    One pass wastes binary_entropy(p) and succeeding takes 1/p passes on
    average. Strictly decreasing in p on (0, 1], zero at p = 1.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    return binary_entropy(p) / p


def efficiency_estimate(sides: int, pool_size: int) -> float:
    """Large-pool estimate of output entropy over entropy consumed.

    1 - (sides / (2*pool_size)) * (1 + ln 2 + ln pool_size - ln sides) / ln sides

    Valid for 2 <= sides and pool_size >= ESTIMATE_REGIME_FACTOR * sides;
    below that the point value is an extrapolation.
    """
    if sides < 2:
        raise ValueError(f"estimate needs sides >= 2, got {sides}")
    if pool_size < 1:
        raise ValueError(f"pool_size must be positive, got {pool_size}")
    ln_sides = math.log(sides)
    deficit = (sides / (2.0 * pool_size)) * (
        (1.0 + math.log(2.0) + math.log(pool_size) - ln_sides) / ln_sides
    )
    return 1.0 - deficit


@dataclass(frozen=True)
class NaiveModel:
    """Tight-fit rejection sampling: draw ceil(log2(sides)) fresh bits,
    reject and redraw everything if the word is out of range."""

    sides: int
    word_bits: int       # ceil(log2(sides))
    expected_bits: float
    efficiency: float


def naive_baseline(sides: int) -> NaiveModel:
    """Analytical cost of the discard-everything rejection sampler."""
    if sides < 2:
        raise ValueError(f"baseline needs sides >= 2, got {sides}")
    word_bits = (sides - 1).bit_length()
    accept = sides / float(1 << word_bits)
    expected_bits = word_bits / accept
    return NaiveModel(sides, word_bits, expected_bits, math.log2(sides) / expected_bits)


@dataclass(frozen=True)
class WastePoint:
    """Waste at one operating point of the reduction pass."""

    keep: int         # states retained in the pool on success
    p: float          # accept probability sides*keep/pool_size
    waste_iter: float # bits lost per pass
    waste_roll: float # bits lost per accepted roll


def waste_point(sides: int, pool_size: int, keep: int) -> WastePoint:
    """Waste of one reduction pass that keeps `keep` states on success.

    sides*keep of the pool_size states are accepted. The entropy comes
    from the offcut share, since h(p) = h(1 - p) and that share keeps
    its precision where p rounds to 1. keep = 0 accepts nothing: p is 0
    and the waste per roll is infinite.
    """
    accepted = sides * keep
    p = accepted / pool_size
    waste_iter = binary_entropy((pool_size - accepted) / pool_size)
    waste_roll = waste_iter / p if accepted else math.inf
    return WastePoint(keep, p, waste_iter, waste_roll)


def waste_monotonicity_table(sides: int, pool_size: int) -> list[WastePoint]:
    """Waste per roll for every feasible keep value, 1..pool_size//sides.

    waste_roll decreases strictly as p grows, so the maximal keep
    (= pool_size // sides) is always the cheapest; this table makes that
    claim checkable point by point.
    """
    if sides < 1:
        raise ValueError(f"sides must be positive, got {sides}")
    if pool_size < sides:
        raise ValueError(
            f"pool_size must be at least sides, got {pool_size} < {sides}"
        )
    return [waste_point(sides, pool_size, keep)
            for keep in range(1, pool_size // sides + 1)]
