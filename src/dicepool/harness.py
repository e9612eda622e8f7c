"""Empirical validation: metered benchmarks, exhaustive small-pool
enumeration, chi-square uniformity, and a variable-radix shuffle demo.

Benchmarks count the pool's own `bits_drawn` and correct for the entropy
left in the pool, so a short run counts no stored bits as waste:

    waste_per_roll = (bits_in - pool_delta - entropy_out) / rolls
    efficiency     = entropy_out / (bits_in - pool_delta)
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from collections.abc import Sequence

from .pool import EntropyPool
from .sources import EntropySource, SeededSource, _int_in

MAX_ENUM_TAPE_BITS = 16
MAX_ENUM_SIDES = 20
MAX_TABLE_SIZE = 1 << 20  # largest bench die and shuffle deck: one list slot each
BENCH_BLOCK = 1 << 12  # most outcomes bench_recycler holds at once, whatever `rolls`
BYTE_TALLY_SIDES = 16  # bench_recycler tallies dice of up to this many faces by bytes.count


def chi_square(counts: Sequence[int]) -> tuple[float, int]:
    """Pearson statistic against the uniform expectation: (statistic, dof).

    dof is the number of categories less one. Fewer than two categories, a
    negative count or no observation raises ValueError. The approximation
    wants an expected count of at least 5 per category; the caller checks it.
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


_CSV_COLUMNS = (
    "sampler", "n", "rolls", "bits_in", "pool_delta", "entropy_out",
    "waste_per_roll", "efficiency", "chi_square", "dof",
)


class BenchReport(namedtuple("BenchReport", _CSV_COLUMNS + ("elapsed",),
                             defaults=(0.0,))):
    """Aggregate statistics of one benchmark run.

    The first ten fields are the frozen CSV row, in column order; `elapsed`
    (wall-clock seconds, reported, never asserted) stays out of the CSV.
    """

    __slots__ = ()

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(_CSV_COLUMNS)

    def csv_row(self) -> str:
        return ",".join(format(value, ".10g") if isinstance(value, float) else str(value)
                        for value in self[:len(_CSV_COLUMNS)])

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
        elapsed=time.perf_counter() - start,
    )


def bench_recycler(sides: int, rolls: int, seed: int = 1, *,
                   word_bits: int = 64, chunk_bits: int = 8) -> BenchReport:
    """Benchmark the recycling roller: `rolls` draws on one pool."""
    sides, rolls = _int_in("sides", sides, 2, MAX_TABLE_SIZE), _int_in("rolls", rolls, 1)
    start = time.perf_counter()
    pool = EntropyPool(word_bits, chunk_bits)
    source = SeededSource(seed)
    counts = [0] * sides
    block: list[int] = []
    for done in range(0, rolls, BENCH_BLOCK):
        block.clear()
        pool.roll_many(sides, source, block, count=min(BENCH_BLOCK, rolls - done))
        if sides <= BYTE_TALLY_SIDES:  # one bytes.count per face beats a Python loop
            data = bytearray(block)
            for face in range(sides):
                counts[face] += data.count(face)
        else:
            for outcome in block:
                counts[outcome] += 1
    # A fresh pool holds no entropy, so its end entropy is the delta.
    return _assemble("recycler", sides, rolls, pool.bits_drawn, pool.entropy(),
                     counts, start)


def bench_naive(sides: int, rolls: int, seed: int = 1) -> BenchReport:
    """Benchmark tight-fit rejection: fresh word per try, discard on miss."""
    sides, rolls = _int_in("sides", sides, 2, MAX_TABLE_SIZE), _int_in("rolls", rolls, 1)
    start = time.perf_counter()
    word = (sides - 1).bit_length()
    source = SeededSource(seed)
    next_bits = source.next_bits
    counts = [0] * sides
    bits_in = 0
    for _ in range(rolls):
        draw = next_bits(word)
        bits_in += word
        while draw >= sides:
            draw = next_bits(word)
            bits_in += word
        counts[draw] += 1
    return _assemble("naive", sides, rolls, bits_in, 0.0, counts, start)


class EnumerationResult(namedtuple("EnumerationResult",
                                    "tape_bits sides counts discard_states")):
    """Exact outcome histogram of one refill-free pass over every pool value.

    Exact means that each outcome is hit by the same number of tapes and
    the rejected tapes land once on every leftover state.
    """

    __slots__ = ()

    @property
    def pool_size(self) -> int:
        return 1 << self.tape_bits

    @property
    def exact(self) -> bool:
        keep, leftover = divmod(self.pool_size, self.sides)
        want = [(leftover, v) for v in range(leftover)]
        return (all(c == keep for c in self.counts)
                and sorted(self.discard_states) == want)


def enumerate_exact(tape_bits: int, sides: int) -> EnumerationResult:
    """Drive one reduction over every possible tape of `tape_bits` bits."""
    tape_bits = _int_in("tape_bits", tape_bits, 1, MAX_ENUM_TAPE_BITS)
    sides = _int_in("sides", sides, 1, MAX_ENUM_SIDES)
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


def shuffle(deck: int, source: EntropySource | None = None, *,
            word_bits: int = 64, chunk_bits: int = 8) -> list[int]:
    """Fisher-Yates permutation of range(deck): dice deck down to 2 on one pool.

    `source` defaults to SeededSource(1).
    """
    deck = _int_in("deck", deck, 1, MAX_TABLE_SIZE)
    if source is None:
        source = SeededSource(1)
    pool = EntropyPool(word_bits, chunk_bits)
    order = list(range(deck))
    for i, j in zip(range(deck - 1, 0, -1), pool.roll_many(range(deck, 1, -1), source)):
        order[i], order[j] = order[j], order[i]
    return order
