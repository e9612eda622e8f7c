"""The entropy pool state machine behind every die roll.

A pool is a value known to be uniformly distributed over [0, size); it
stores log2(size) bits of entropy, fractional amounts included (a
hidden 6-state value is worth 2.585 bits). Rolling an n-sided die
factors the pool into an outcome in [0, n) plus a smaller pool of
size // n states; when the pool value falls in the unusable top sliver
of the range, the draw fails but the sliver itself is still uniform, so
it is kept as the new, smaller pool instead of being thrown away. Fresh
entropy only ever enters in whole fixed-size chunks: through `top_off`,
or through `roll`'s one refill rule, a single read of the chunks
`top_off` would draw. `roll_many` rolls a run of dice, fixed or
changing, as a loop of `roll` calls would, with the pool state held in
locals between them; runs of small dice belong there.
"""

from __future__ import annotations

from collections.abc import Iterable
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

    __slots__ = ("size", "value", "word_bits", "chunk_bits", "refill_ceiling", "bits_drawn")

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
        sides = index(sides)  # inline, not _int_in: roll calls this on each empty pool
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
        added to `bits_drawn`. This is the reference pair, `top_off` then
        `roll_step` until a pass accepts, written inline with one refill
        rule: before every pass that finds the pool at or below the
        ceiling, not just on entry, it reads the width `top_off` would
        read, the most whole chunks that fit the word, in one
        `next_bits` call before any write, so the accept chance stays
        high even once recycling has shrunk the pool. The empty pool
        (size 1) calls the pair itself, once, ahead of the loop, with the
        same outcome, state and `bits_drawn`: those are the calls
        `perfbench/run.py --trace 1` divides by, so the pair stays until
        the trace counts what the pool did (ROADMAP direction 1). Runs of
        small dice belong to `roll_many`.
        Requires 1 <= sides <= 2**(word_bits - chunk_bits): that
        guarantees the topped-off pool covers the range and the loop
        cannot stall. If a refill runs out of bits, EntropyExhausted
        propagates and the passes already made stay applied. A non-int
        `sides` raises TypeError before any bit is drawn. The slots are
        writable, so a state can be corrupt, and it raises ValueError
        instead of looping forever: a one-state pool whose value is not
        0, and a negative value at a refill (it would accept on every
        pass), before a bit is read; a value >= size, which rejects on
        every pass, at its first reject.
        """
        sides = index(sides)  # inline, not _int_in: this runs once per roll
        ceiling = self.refill_ceiling
        if not 1 <= sides <= ceiling:
            refused = ValueError if sides < 1 else RangeTooLarge
            raise refused(_refusal("sides", sides, 1, ceiling))
        size = self.size
        if size == 1:  # the empty pool fills through the reference pair
            if self.value:  # corrupt: one state leaves only the value 0
                raise ValueError(_refusal("value", self.value, 0, 0))
            self.top_off(source)
            outcome = self.roll_step(sides)
            if outcome is not None:
                return outcome
            size = self.size
        while True:
            value = self.value
            if size <= ceiling:  # a refill is due: read what top_off would
                if value < 0:  # corrupt: a negative value would accept forever
                    raise ValueError(_refusal("value", value, 0, size - 1))
                chunk = self.chunk_bits
                drawn = (self.word_bits - (size - 1).bit_length()) // chunk * chunk
                value = value << drawn | source.next_bits(drawn)  # before any write
                self.bits_drawn += drawn
                size <<= drawn
            keep = size // sides
            quotient = value // sides
            if quotient < keep:
                self.size = keep
                self.value = quotient
                return value % sides
            if value >= size:  # corrupt: every pass would reject, so refuse
                raise ValueError(_refusal("value", value, 0, size - 1))
            cutoff = sides * keep
            self.size = size = size - cutoff
            self.value = value - cutoff

    def roll_many(self, sides: Iterable[int], source: EntropySource,
                  out: list[int] | None = None) -> list[int]:
        """Roll one die per item of `sides`, in order; returns `out` with
        the outcomes appended (a new list if `out` is None).

        The same as calling `roll(n, source)` for each n and appending the
        results: the same outcomes, bits drawn and final state, and the
        same refusals (each die is checked as `roll` checks it, when its
        turn comes). `sides` may be any iterable, such as
        `itertools.repeat(6, count)` or, for a shuffle, `range(deck, 1, -1)`,
        and the dice may change from one roll to the next. The loop holds
        the pool state in locals, makes the reduction pass inline, and
        writes the state back when it ends, also when it raises: if a die
        is refused or the source runs out, the outcomes rolled before it
        stay in `out` and the pool is left as the `roll` loop would leave
        it. It is the loop for runs of small dice, so it keeps the
        one-chunk band (ceiling >> chunk_bits, ceiling], where one chunk
        tops the pool off: it reads that chunk inline without working out
        the width. A pool at or below the band (the empty pool, or one a
        reject or a large die has shrunk) rolls that one outcome through
        `roll`, which reads the wider refill.
        """
        if out is None:
            out = []
        append, next_bits = out.append, source.next_bits
        ceiling, chunk = self.refill_ceiling, self.chunk_bits
        floor = ceiling >> chunk  # 0 when two chunks overfill the word
        size, value = self.size, self.value
        try:
            for n in sides:
                n = index(n)
                if not 1 <= n <= ceiling:
                    refused = ValueError if n < 1 else RangeTooLarge
                    raise refused(_refusal("sides", n, 1, ceiling))
                while True:
                    if size <= ceiling:
                        if size <= floor:  # wider than one chunk: roll reads it
                            self.size, self.value = size, value
                            try:
                                append(self.roll(n, source))
                            finally:
                                size, value = self.size, self.value
                            break
                        if value < 0:  # a corrupt state would accept forever
                            raise ValueError(_refusal("value", value, 0, size - 1))
                        value = value << chunk | next_bits(chunk)
                        self.bits_drawn += chunk
                        size <<= chunk
                    keep = size // n
                    quotient = value // n
                    if quotient < keep:
                        append(value % n)
                        size, value = keep, quotient
                        break
                    if value >= size:  # a corrupt state would reject forever
                        raise ValueError(_refusal("value", value, 0, size - 1))
                    cutoff = n * keep
                    size -= cutoff
                    value -= cutoff
        finally:
            self.size, self.value = size, value
        return out

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
