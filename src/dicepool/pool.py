"""The entropy pool state machine behind every die roll.

`top_off` and `roll_step` are the reference pair, one refill and one
reduction pass, and `roll` calls them pass after pass. `roll_many` is the
one fast loop; README.md, "How `roll_many` works", tells how it works.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from itertools import product, repeat
from math import log2
from operator import index

from .sources import EntropyExhausted, EntropySource, _int_in, _refusal

MAX_WORD_BITS = 1 << 16  # widest pool: bounds the ceiling and every refill read
TABLE_DIGITS = 1 << 14  # digits one table holds: entries times ranges
MAX_TABLES = 8  # distinct tables one plan holds, the table cache, and what cached runs pin
FUSE_POWER = 2  # roll_many's count form fuses a die n with n**FUSE_POWER <= 2**chunk_bits


class RangeTooLarge(ValueError):
    """Requested die range exceeds what a topped-off pool can cover."""


class EntropyPool:
    """Uniform value over a known range, refillable in fixed bit chunks.

    `size` counts the equally likely states and `value` is the current one,
    in [0, size). `word_bits`, at most MAX_WORD_BITS, bounds the size to
    2**word_bits; `chunk_bits` is the refill width, 8 bits into a 64-bit
    word by default. `refill_ceiling`, 2**(word_bits - chunk_bits), is the
    largest size that takes a chunk and the largest die. `bits_drawn` counts
    every fresh bit read. A pool and its source are one owner context: the
    caller serializes their use, and parallel runs use their own pairs.
    """

    __slots__ = ("size", "value", "word_bits", "chunk_bits", "refill_ceiling", "bits_drawn")

    def __init__(self, word_bits: int = 64, chunk_bits: int = 8) -> None:
        self.word_bits = word_bits = _int_in("word_bits", word_bits, 1, MAX_WORD_BITS)
        self.chunk_bits = chunk_bits = _int_in("chunk_bits", chunk_bits, 1, word_bits)
        self.refill_ceiling = 1 << (word_bits - chunk_bits)
        self.size = 1    # the empty pool: one state, zero entropy
        self.value = 0
        self.bits_drawn = 0

    def entropy(self) -> float:
        """Stored entropy in bits: log2(size)."""
        return log2(self.size)

    def top_off(self, source: EntropySource) -> int:
        """Refill from `source` until size exceeds 2**(word_bits - chunk_bits).

        A pool at or below that ceiling reads, in one `next_bits` call, the most
        whole chunks that fit the word: as many, and the same bits, as reading
        the fewest chunks that lift it past the ceiling one at a time. Returns
        the bits drawn (0 above the ceiling), also added to `bits_drawn`. The
        read comes before any write: if the source runs out, EntropyExhausted
        propagates with pool and tape unchanged. A corrupt state stays corrupt.
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
        """One reduction pass with no refill: the outcome, or None on a reject.

        With keep = size // sides, the pass accepts iff value // sides < keep:
        the pool keeps that quotient, uniform over [0, keep), and the outcome is
        value % sides. A reject keeps the top size - sides * keep states,
        re-based to zero. `sides` goes through operator.index (a float raises
        TypeError) and must be at least 1. A corrupt state gives a meaningless pass.
        """
        sides = index(sides)  # inline, not _int_in: roll calls this on every pass
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
        """Roll a fair `sides`-sided die from `source`: an outcome in [0, sides).

        The reference loop: `top_off` then `roll_step`, one call of each per
        pass, until a pass accepts. Refused before any bit is read: a corrupt
        state (the slots are writable) raises ValueError unless
        0 <= value < size, before the die is checked; then a non-int `sides`
        raises TypeError, sides < 1 ValueError and sides > `refill_ceiling`
        RangeTooLarge. Refill, accept and reject keep a valid state valid. If a
        refill runs out, EntropyExhausted propagates with the passes made kept.
        """
        size, value = self.size, self.value
        # corrupt: a valid state stays valid until return
        if not 0 <= value < size:
            raise ValueError(_refusal("value", value, 0, size - 1))
        sides = index(sides)  # inline, not _int_in: this runs once per roll
        ceiling = self.refill_ceiling
        if not 1 <= sides <= ceiling:
            refused = ValueError if sides < 1 else RangeTooLarge
            raise refused(_refusal("sides", sides, 1, ceiling))
        while True:
            self.top_off(source)
            outcome = self.roll_step(sides)
            if outcome is not None:
                return outcome

    def roll_many(self, sides: Iterable[int] | int, source: EntropySource,
                  out: list[int] | None = None, *, count: int | None = None) -> list[int]:
        """Roll one die per item of `sides`, or with `count` the die `sides` that
        many times; return `out` (a new list if None) with the outcomes appended.

        The outcomes, `bits_drawn`, final state and refusals are those of a
        loop of `roll(n, source)` calls. Each die is checked as `roll` checks
        it, in its turn, after the outcomes before it are in `out`. A corrupt
        state raises ValueError on entry unless 0 <= value < size, before any
        die is checked or a bit is read, even if `sides` is empty. If a die is
        refused or the source raises EntropyExhausted, the earlier outcomes stay
        in `out` and the pool is left as the `roll` loop would leave it. A
        finite tape runs out at the same roll, with the same `out` prefix and
        tape position: once a read of whole spans runs short, the call reads
        one chunk at a time. Bits read ahead and not taken go back through
        `source.unread` before the call returns or raises, and before it calls
        `roll`; nothing else may read the source during the call, the `sides`
        iterable included.

        The count form, `roll_many(n, source, out, count=k)`, gives what
        `roll_many(repeat(n, k), source, out)` gives. `count` must be an int
        >= 0 and is checked first; the die is checked only if count >= 1. It
        caches at most MAX_TABLES // 2 runs, which pin at most MAX_TABLES
        tables. How: README.md, "How `roll_many` works".
        """
        word_bits, ceiling, chunk = self.word_bits, self.refill_ceiling, self.chunk_bits
        run, rest = None, 0  # the count form's run, and the dice it has left
        if count is not None:
            count = _int_in("count", count, 0)
            # a small int die: 6.0 and True never find 6's and 1's run
            if (count > 1 and type(sides) is int and 1 < sides <= ceiling
                    and sides ** FUSE_POWER <= 1 << chunk):
                run = _fused_run(sides, word_bits, chunk)
            if run is None:
                sides = repeat(sides, count)
        size, value = self.size, self.value
        # corrupt: a valid state stays valid until return
        if not 0 <= value < size:
            raise ValueError(_refusal("value", value, 0, size - 1))
        if out is None:
            out = []
        append, next_bits = out.append, source.next_bits
        floor = ceiling >> chunk  # 0 when two chunks overfill the word
        mask, span = (1 << chunk) - 1, (256 // chunk or 1) * chunk  # whole chunks of 256 bits
        ahead = left = 0  # the read-ahead, and how many of its low bits are untaken
        octets, bytewise = b"", chunk == 8  # at 8-bit chunks, the span's bytes, low first
        n = object()  # the last die checked; fresh, so a first die of None is checked too
        if run is not None:  # one die, count times, several passes at a time
            n, rest, sides, (least, low, most, top, powers, tables) = sides, count, (), run
        ranged = type(sides) is range and (not sides or 1 <= sides[0] <= ceiling
                                           and 1 <= sides[-1] <= ceiling)
        try:
            while True:
                for die in sides:
                    if ranged:  # every die of a range lies between its two ends
                        n = die
                    elif die is not n:  # index(int) is the int: a repeated int is checked once
                        n = index(die)
                        if not 1 <= n <= ceiling:
                            refused = ValueError if n < 1 else RangeTooLarge
                            raise refused(_refusal("sides", n, 1, ceiling))
                    while True:
                        if size <= ceiling:
                            if size > floor:  # one chunk tops the pool off
                                if not left:
                                    try:
                                        ahead = next_bits(span)
                                    except EntropyExhausted:  # short of a span: a chunk at a time
                                        span = chunk
                                        ahead = next_bits(span)
                                    left = span
                                    self.bits_drawn += span  # less what is given back
                                    octets = bytewise and ahead.to_bytes(span >> 3, "little")
                                left -= chunk
                                value = value << chunk | (octets[left >> 3] if octets
                                                          else ahead >> left & mask)
                                size <<= chunk
                            elif size == 1:  # the empty pool: through roll, for perfbench's trace
                                source.unread(ahead & ((1 << left) - 1), left)
                                self.bits_drawn -= left
                                left = 0
                                self.size, self.value = size, value
                                try:
                                    append(self.roll(n, source))
                                finally:
                                    size, value = self.size, self.value
                                break
                            else:  # top_off's width, topped up by the fewest whole spans
                                drawn = (word_bits - (size - 1).bit_length()) // chunk * chunk
                                if left < drawn:
                                    more = (drawn - left + span - 1) // span * span
                                    try:
                                        fresh = next_bits(more)
                                    except EntropyExhausted:  # just the shortfall, then chunks
                                        span, more = chunk, drawn - left
                                        fresh = next_bits(more)
                                    ahead = (ahead & ((1 << left) - 1)) << more | fresh
                                    octets = b""  # ahead is new: band refills shift till a span
                                    left += more
                                    self.bits_drawn += more  # less what is given back
                                left -= drawn
                                value = value << drawn | ahead >> left & ((1 << drawn) - 1)
                                size <<= drawn
                        keep = size // n
                        quotient = value // n
                        if quotient < keep:
                            append(value % n)
                            size, value = keep, quotient
                            break
                        cutoff = n * keep
                        size -= cutoff
                        value -= cutoff
                while rest:  # the count form's fast path; the loop above rolls the rest
                    if size <= ceiling:
                        if size <= floor:  # below the one-chunk band: hand the die over
                            break
                        if not left:
                            try:
                                ahead = next_bits(span)
                            except EntropyExhausted:  # too few bits for a span: hand the die over
                                break
                            left = span
                            self.bits_drawn += span  # less what is given back
                            octets = bytewise and ahead.to_bytes(span >> 3, "little")
                        left -= chunk
                        value = value << chunk | (octets[left >> 3] if octets
                                                  else ahead >> left & mask)
                        size <<= chunk
                    if size >= least:  # low passes fit with no refill between, top from most up
                        k = top if size >= most else low
                        if k <= rest:  # k passes over n accept iff one pass over n**k does
                            power = powers[k]
                            keep = size // power
                            quotient = value // power
                            if quotient < keep:
                                out += tables[k][value % power]
                                size, value = keep, quotient
                                rest -= k
                                continue
                    keep = size // n  # one pass: too few fit, too few dice left, or a reject
                    quotient = value // n
                    if quotient >= keep:  # a reject: hand the die over
                        break
                    append(value % n)
                    size, value = keep, quotient
                    rest -= 1
                else:
                    return out
                sides, rest = (n,), rest - 1  # the loop above rolls this one die
        finally:
            self.size, self.value = size, value
            source.unread(ahead & ((1 << left) - 1), left)  # what the pool did not take
            self.bits_drawn -= left

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


@lru_cache(maxsize=MAX_TABLES)
def _table(group: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The digits of every value below the group's product, least significant first."""
    return tuple([digits[::-1] for digits in product(*map(range, group[::-1]))])


@lru_cache(maxsize=MAX_TABLES // 2)  # each run pins two tables: at most MAX_TABLES in all
def _fused_run(n: int, word_bits: int, chunk_bits: int) -> tuple | None:
    """The count form's run of the int die n, or None if fewer than two passes fit.

    The run is (least, low, most, top, powers, tables). k passes fit with no
    refill between them from the size (ceiling + 1) * n**(k - 1) up; top is
    the largest k the widest pool and TABLE_DIGITS allow, low = max(2, top - 1),
    and `least` and `most` are the sizes low and top passes fit from. For
    k = low and top, powers[k] = n**k and tables[k] = `_table((n,) * k)`
    (README.md, "How `roll_many` works").
    """
    ceiling = 1 << (word_bits - chunk_bits)
    sizes, powers = [ceiling + 1], [1, n]
    while sizes[-1] * n <= 1 << word_bits and powers[-1] * n * len(powers) <= TABLE_DIGITS:
        sizes.append(sizes[-1] * n)
        powers.append(powers[-1] * n)
    top = len(sizes)
    if top < 2:
        return None
    low = max(2, top - 1)
    tables = [None] * low + [_table((n,) * k) for k in range(low, top + 1)]
    return sizes[low - 1], low, sizes[-1], top, powers, tables
