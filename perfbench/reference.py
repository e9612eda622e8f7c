"""Independent reference for the benchmark's output checks.

SplitMix64 bytes plus the pool reduction (top off, then divmod accept
or recycle) at dicepool's default geometry: a 64-bit pool refilled in
8-bit chunks. Nothing here imports dicepool, so a defect in the package
cannot hide in its own oracle.
"""

from __future__ import annotations

import hashlib
import math

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MULT1 = 0xBF58476D1CE4E5B9
MULT2 = 0x94D049BB133111EB
CHUNK_BITS = 8
REFILL_CEILING = 1 << (64 - CHUNK_BITS)

BENCH_CSV_HEADER = (
    "sampler,n,rolls,bits_in,pool_delta,entropy_out,"
    "waste_per_roll,efficiency,chi_square,dof"
)


def splitmix64_bytes(seed: int):
    """The seeded stream, one byte at a time, most significant byte first."""
    state = seed & MASK64
    while True:
        state = (state + GAMMA) & MASK64
        z = ((state ^ (state >> 30)) * MULT1) & MASK64
        z = ((z ^ (z >> 27)) * MULT2) & MASK64
        yield from (z ^ (z >> 31)).to_bytes(8, "big")


class RefPool:
    """Pool plus its seeded source; `bits` counts the fresh bits drawn."""

    def __init__(self, seed: int) -> None:
        self._next_byte = splitmix64_bytes(seed).__next__
        self.size = 1
        self.value = 0
        self.bits = 0

    def roll(self, sides: int) -> int:
        while True:
            while self.size <= REFILL_CEILING:
                self.size <<= CHUNK_BITS
                self.value = (self.value << CHUNK_BITS) | self._next_byte()
                self.bits += CHUNK_BITS
            keep, offcut = divmod(self.size, sides)
            cutoff = self.size - offcut
            if self.value < cutoff:
                self.size = keep
                self.value, outcome = divmod(self.value, sides)
                return outcome
            self.size = offcut
            self.value -= cutoff


def digest(data: bytes) -> int:
    """64-bit digest that stands in for an op's whole output."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def chi_square(counts) -> float:
    """Pearson statistic against the uniform expectation."""
    expected = sum(counts) / len(counts)
    return sum((c - expected) ** 2 for c in counts) / expected


def bench_csv(sides: int, rolls: int, seed: int) -> tuple[str, int, list[int]]:
    """Expected `dicepool bench` stdout, its fresh-bit count and histogram."""
    pool = RefPool(seed)
    counts = [0] * sides
    for _ in range(rolls):
        counts[pool.roll(sides)] += 1
    pool_delta = math.log2(pool.size) - 0.0
    entropy_out = rolls * math.log2(sides)
    spent = pool.bits - pool_delta
    cells = [
        "recycler", str(sides), str(rolls), str(pool.bits),
        *(format(x, ".10g") for x in (
            pool_delta, entropy_out, (spent - entropy_out) / rolls,
            entropy_out / spent, chi_square(counts),
        )),
        str(sides - 1),
    ]
    return f"{BENCH_CSV_HEADER}\n{','.join(cells)}\n", pool.bits, counts


def shuffle(deck: int, seed: int) -> tuple[list[int], int]:
    """Fisher-Yates from deck-1 down to 1, one roll per swap."""
    pool = RefPool(seed)
    order = list(range(deck))
    for i in range(deck - 1, 0, -1):
        j = pool.roll(i + 1)
        order[i], order[j] = order[j], order[i]
    return order, pool.bits


def plan_rolls(sides: int, dice: int, count: int, seed: int) -> tuple[str, int, list[int]]:
    """Expected `dicepool roll --plan` stdout for `dice` dice of `sides`
    sides per line, plus its fresh-bit count and digit histogram.

    Each line is one product-range roll decoded least significant digit
    first.
    """
    pool = RefPool(seed)
    product = sides ** dice
    counts = [0] * sides
    lines = []
    for _ in range(count):
        value = pool.roll(product)
        digits = []
        for _ in range(dice):
            value, d = divmod(value, sides)
            digits.append(d)
            counts[d] += 1
        lines.append(" ".join(map(str, digits)))
    return "\n".join(lines) + "\n", pool.bits, counts
