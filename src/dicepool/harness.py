"""Empirical validation: metered benchmarks, exhaustive small-pool
enumeration, chi-square uniformity, and a variable-radix shuffle demo.

Benchmarks read the fresh bits drawn from the pool's own lifetime
counter, `EntropyPool.bits_drawn`, and correct for entropy still
resident in the pool at the end of a run, so short runs do not
misreport up to a word's worth of stored bits as waste:

    waste_per_roll = (bits_in - pool_delta - entropy_out) / rolls
    efficiency     = entropy_out / (bits_in - pool_delta)
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

from .pool import EntropyPool
from .sources import EntropySource, SeededSource

MAX_ENUM_TAPE_BITS = 16
MAX_ENUM_SIDES = 20
MAX_TABLE_SIZE = 1 << 20  # largest bench die and shuffle deck: one list slot each


def chi_square(counts: Sequence[int]) -> tuple[float, int]:
    """Pearson statistic against the uniform expectation.

    Returns (statistic, degrees of freedom = categories - 1). Validity
    of the chi-square approximation wants an expected count of at least
    5 per category; that is the caller's business, not checked here.
    """
    if len(counts) < 2:
        raise ValueError("need at least two categories")
    if any(c < 0 for c in counts):
        raise ValueError("counts must be nonnegative")
    total = sum(counts)
    if total == 0:
        raise ValueError("need at least one observation")
    expected = total / len(counts)
    stat = sum((c - expected) ** 2 for c in counts) / expected
    return stat, len(counts) - 1


@dataclass
class BenchReport:
    """Aggregate statistics of one benchmark run.

    The first ten fields are the frozen CSV row, in column order.
    `counts` (per-outcome histogram) and `elapsed` (wall-clock seconds,
    reported but never asserted) are extras kept out of the CSV.
    """

    sampler: str
    n: int
    rolls: int
    bits_in: int
    pool_delta: float
    entropy_out: float
    waste_per_roll: float
    efficiency: float
    chi_square: float
    dof: int
    counts: list[int] = field(default_factory=list, repr=False)
    elapsed: float = 0.0

    CSV_COLUMNS: ClassVar[tuple[str, ...]] = (
        "sampler", "n", "rolls", "bits_in", "pool_delta", "entropy_out",
        "waste_per_roll", "efficiency", "chi_square", "dof",
    )

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(cls.CSV_COLUMNS)

    def csv_row(self) -> str:
        cells = []
        for name in self.CSV_COLUMNS:
            value = getattr(self, name)
            cells.append(format(value, ".10g") if isinstance(value, float) else str(value))
        return ",".join(cells)

    def summary(self) -> str:
        return (
            f"{self.sampler}: n={self.n} rolls={self.rolls}\n"
            f"  bits in          {self.bits_in}\n"
            f"  pool delta       {self.pool_delta:+.4f} bits\n"
            f"  entropy out      {self.entropy_out:.4f} bits\n"
            f"  waste per roll   {self.waste_per_roll:.6g} bits\n"
            f"  efficiency       {self.efficiency:.6f}\n"
            f"  chi-square       {self.chi_square:.4f} (dof {self.dof})\n"
            f"  elapsed          {self.elapsed:.3f} s"
        )


def _check_bench_args(sides: int, rolls: int) -> None:
    if sides < 2:
        raise ValueError(f"bench needs sides >= 2, got {sides}")
    if sides > MAX_TABLE_SIZE:
        raise ValueError(f"bench needs sides <= {MAX_TABLE_SIZE}, got {sides}")
    if rolls < 1:
        raise ValueError(f"rolls must be positive, got {rolls}")


def _assemble(sampler: str, sides: int, rolls: int, bits_in: int,
              pool_delta: float, counts: list[int], start: float) -> BenchReport:
    entropy_out = rolls * math.log2(sides)
    spent = bits_in - pool_delta
    stat, dof = chi_square(counts)
    return BenchReport(
        sampler=sampler,
        n=sides,
        rolls=rolls,
        bits_in=bits_in,
        pool_delta=pool_delta,
        entropy_out=entropy_out,
        waste_per_roll=(spent - entropy_out) / rolls,
        efficiency=entropy_out / spent,
        chi_square=stat,
        dof=dof,
        counts=counts,
        elapsed=time.perf_counter() - start,
    )


def bench_recycler(sides: int, rolls: int, seed: int = 1, *,
                   word_bits: int = 64, chunk_bits: int = 8) -> BenchReport:
    """Benchmark the recycling roller: `rolls` draws on one pool."""
    _check_bench_args(sides, rolls)
    start = time.perf_counter()
    pool = EntropyPool(word_bits, chunk_bits)
    source = SeededSource(seed)
    counts = [0] * sides
    for _ in range(rolls):
        counts[pool.roll(sides, source)] += 1
    # A fresh pool holds no entropy, so its end entropy is the delta.
    return _assemble("recycler", sides, rolls, pool.bits_drawn, pool.entropy(),
                     counts, start)


def bench_naive(sides: int, rolls: int, seed: int = 1) -> BenchReport:
    """Benchmark tight-fit rejection: fresh word per try, discard on miss."""
    _check_bench_args(sides, rolls)
    start = time.perf_counter()
    word = (sides - 1).bit_length()
    source = SeededSource(seed)
    counts = [0] * sides
    bits_in = 0
    for _ in range(rolls):
        draw = source.next_bits(word)
        bits_in += word
        while draw >= sides:
            draw = source.next_bits(word)
            bits_in += word
        counts[draw] += 1
    return _assemble("naive", sides, rolls, bits_in, 0.0, counts, start)


@dataclass
class EnumerationResult:
    """Exact outcome histogram of one reduction pass over all tapes.

    Every pool value in [0, 2**tape_bits) is driven through one
    reduction with refill disabled. Exactness means: each outcome is hit
    by the same number of tapes, and the rejected tapes land exactly
    once on every leftover state.
    """

    tape_bits: int
    sides: int
    counts: list[int]
    discard_states: list[tuple[int, int]]

    @property
    def pool_size(self) -> int:
        return 1 << self.tape_bits

    @property
    def uniform(self) -> bool:
        keep = self.pool_size // self.sides
        return all(c == keep for c in self.counts)

    @property
    def coverage_exact(self) -> bool:
        leftover = self.pool_size % self.sides
        want = [(leftover, v) for v in range(leftover)]
        return sorted(self.discard_states) == want

    @property
    def exact(self) -> bool:
        return self.uniform and self.coverage_exact


def enumerate_exact(tape_bits: int, sides: int) -> EnumerationResult:
    """Drive one reduction over every possible tape of `tape_bits` bits."""
    if not 1 <= tape_bits <= MAX_ENUM_TAPE_BITS:
        raise ValueError(
            f"tape_bits must be in [1, {MAX_ENUM_TAPE_BITS}], got {tape_bits}"
        )
    if not 1 <= sides <= MAX_ENUM_SIDES:
        raise ValueError(f"sides must be in [1, {MAX_ENUM_SIDES}], got {sides}")
    pool_size = 1 << tape_bits
    counts = [0] * sides
    discard_states: list[tuple[int, int]] = []
    for value in range(pool_size):
        pool = EntropyPool.from_snapshot((pool_size, value, tape_bits, 1))
        outcome = pool.roll_step(sides)
        if outcome is None:
            discard_states.append((pool.size, pool.value))
        else:
            counts[outcome] += 1
    return EnumerationResult(tape_bits, sides, counts, discard_states)


def shuffle(deck: int, seed: int = 1, *, source: EntropySource | None = None,
            word_bits: int = 64, chunk_bits: int = 8) -> list[int]:
    """Fisher-Yates permutation of range(deck) driven by one shared pool.

    Rolls a deck-sided die, then deck-1, and so on down to 2: a
    different radix every round, all recycled through the same pool.
    """
    if not 1 <= deck <= MAX_TABLE_SIZE:
        raise ValueError(f"deck must be in [1, {MAX_TABLE_SIZE}], got {deck}")
    if source is None:
        source = SeededSource(seed)
    pool = EntropyPool(word_bits, chunk_bits)
    order = list(range(deck))
    for i in range(deck - 1, 0, -1):
        j = pool.roll(i + 1, source)
        order[i], order[j] = order[j], order[i]
    return order
