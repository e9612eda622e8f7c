"""The entropy pool state machine behind every die roll.

A pool is a value known to be uniformly distributed over [0, size); it
stores log2(size) bits of entropy, fractional amounts included (a
hidden 6-state value is worth 2.585 bits). Rolling an n-sided die
factors the pool into an outcome in [0, n) plus a smaller pool of
size // n states; when the pool value falls in the unusable top sliver
of the range, the draw fails but the sliver itself is still uniform, so
it is kept as the new, smaller pool instead of being thrown away. Fresh
entropy only ever enters through `top_off`, in fixed-size chunks.
"""

from __future__ import annotations

from math import log2
from operator import index

from .sources import EntropySource, _int_in, _refusal

MAX_WORD_BITS = 1 << 16  # widest pool: bounds the ceiling and every refill read


class RangeTooLarge(ValueError):
    """Requested die range exceeds what a topped-off pool can cover."""


class EntropyPool:
    """Uniform value over a known range, refillable in fixed bit chunks.

    `size` counts the equally likely states, `value` is the current state
    in [0, size). `word_bits` bounds the range (size <= 2**word_bits,
    word_bits <= MAX_WORD_BITS) and `chunk_bits` is the refill
    granularity; the default (64, 8) refills byte-wise into a 64-bit
    word, `chunk_bits=1` gives bit-exact refills for theoretical experiments.
    `bits_drawn` counts every fresh bit the pool has ever read.

    A pool plus its source form one logical owner context: operations
    mutate state and must be externally serialized. Run parallel
    experiments on independent pool/source pairs.
    """

    __slots__ = ("size", "value", "word_bits", "chunk_bits", "refill_ceiling",
                 "bits_drawn")

    def __init__(self, word_bits: int = 64, chunk_bits: int = 8) -> None:
        self.word_bits = word_bits = _int_in("word_bits", word_bits, 1, MAX_WORD_BITS)
        self.chunk_bits = chunk_bits = _int_in("chunk_bits", chunk_bits, 1, word_bits)
        # Largest size that still admits (and demands) another chunk, and
        # the largest die a roll accepts; fixed for the pool's lifetime.
        self.refill_ceiling = 1 << (word_bits - chunk_bits)
        self.size = 1    # the empty pool: one state, zero entropy
        self.value = 0
        self.bits_drawn = 0

    def entropy(self) -> float:
        """Stored entropy in bits: log2(size)."""
        return log2(self.size)

    def top_off(self, source: EntropySource) -> int:
        """Refill from `source` until size exceeds 2**(word_bits - chunk_bits).

        A pool at or below the ceiling draws the most whole
        chunk_bits-wide chunks that fit the word, which is the same count
        as the fewest that lift the size past the ceiling, in one read of
        whole chunks; the big-endian source contract makes that read
        equal to reading chunk by chunk. On return the pool holds more
        than word_bits - chunk_bits bits of entropy (it is left untouched
        if it already did). Returns the number of fresh bits drawn and
        adds it to `bits_drawn`.

        The refill is atomic: the read comes before any write, so if the
        source runs out, EntropyExhausted propagates with the pool
        unchanged, and a tape keeps every bit it had.
        """
        size = self.size
        if size > self.refill_ceiling:
            return 0
        chunk = self.chunk_bits
        # size << d fits the word (at most 2**word_bits states) iff size - 1
        # has at most word_bits - d bits: the widest whole-chunk d that fits.
        drawn = (self.word_bits - (size - 1).bit_length()) // chunk * chunk
        piece = source.next_bits(drawn)
        self.size = size << drawn
        self.value = (self.value << drawn) | piece
        self.bits_drawn += drawn
        return drawn

    def roll_step(self, sides: int) -> int | None:
        """One reduction pass with no refill.

        Splits the current range into sides * keep accepted states plus a
        leftover sliver, where keep = size // sides. The value is
        accepted iff its quotient value // sides is below keep; then the
        pool keeps the quotient (a uniform draw over [0, keep)) and the
        remainder mod `sides` is returned as the outcome. Otherwise
        returns None and the pool becomes the sliver, re-based to start
        at zero; no entropy beyond the accept/reject test outcome is
        lost. `sides` must be an int (operator.index), so a float range
        raises TypeError.
        """
        sides = index(sides)  # inline, not _int_in: this runs once per pass
        if sides < 1:
            raise ValueError(_refusal("sides", sides, 1))
        size, value = self.size, self.value
        keep = size // sides
        quotient = value // sides
        if quotient < keep:  # for ints, the same test as value < sides * keep
            self.size = keep
            self.value = quotient
            return value % sides
        cutoff = sides * keep
        self.size = size - cutoff
        self.value = value - cutoff
        return None

    def roll(self, sides: int, source: EntropySource) -> int:
        """Roll a fair `sides`-sided die, refilling from `source` as needed.

        Returns the outcome in [0, sides); the fresh bits it draws are
        added to `bits_drawn`. Tops off before any pass that finds the
        pool at or below the ceiling, not just on entry, so the accept
        chance stays high even once recycling has shrunk the pool. Requires
        1 <= sides <= 2**(word_bits - chunk_bits): that guarantees the
        topped-off pool covers the range and the loop cannot stall. If a
        refill runs out of bits, EntropyExhausted propagates and the
        passes already made stay applied. A non-int `sides` raises
        TypeError before any bit is drawn.
        """
        sides = index(sides)  # inline, not _int_in: this runs once per roll
        ceiling = self.refill_ceiling
        if not 1 <= sides <= ceiling:
            refused = ValueError if sides < 1 else RangeTooLarge
            raise refused(_refusal("sides", sides, 1, ceiling))
        while True:
            if self.size <= ceiling:
                self.top_off(source)
            outcome = self.roll_step(sides)
            if outcome is not None:
                return outcome

    def snapshot(self) -> tuple[int, int, int, int]:
        """State as plain integers: (size, value, word_bits, chunk_bits)."""
        return (self.size, self.value, self.word_bits, self.chunk_bits)

    @classmethod
    def from_snapshot(cls, snap: tuple[int, int, int, int]) -> "EntropyPool":
        """Rebuild a pool from `snapshot` output; also handy for preloads."""
        size, value, word_bits, chunk_bits = snap
        pool = cls(word_bits, chunk_bits)
        pool.size = _int_in("size", size, 1, 1 << pool.word_bits)
        pool.value = _int_in("value", value, 0, pool.size - 1)
        return pool
