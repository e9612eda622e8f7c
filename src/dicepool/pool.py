"""The entropy pool state machine behind every die roll.

A pool is a value known to be uniformly distributed over [0, size); it
stores log2(size) bits of entropy, fractional amounts included (a
hidden 6-state value is worth 2.585 bits). Rolling an n-sided die
factors the pool into an outcome in [0, n) plus a smaller pool of
size // n states; when the pool value falls in the unusable top sliver
of the range, the draw fails but the sliver itself is still uniform, so
it is kept as the new, smaller pool instead of being thrown away. Fresh
entropy only ever enters in whole fixed-size chunks, through `top_off`
or `roll_many`'s read-ahead. `top_off` and `roll_step` are the
reference pair, one refill and one reduction pass, and `roll` is that
pair called pass after pass: the readable reference, which pays two
method calls a pass. `roll_many` is the one fast loop: it rolls a run of dice, fixed or
changing, small or as wide as a product draw, as a loop of `roll` calls
would, with the pool state held in locals between them; runs of dice
belong there. It takes every refill, one chunk or wider, from bits read
ahead in 256-bit spans (at 8-bit chunks, a one-chunk refill indexes the
span's bytes) and gives the bits its pool did not take back to the
source (`EntropySource.unread`) before anything else may read it,
so the source serves the same bits in the same order either way; only
the empty pool rolls through `roll`. Its count form,
`roll_many(n, source, count=k)`, rolls a run of one small die several
passes at a time: on a pool above the ceiling, k passes all accept iff
one pass over n**k does, with the same outcomes, state and bits, so it
makes that one pass and takes the k outcomes from a digit table (the
tables radix plans use, in one bounded cache). Each die's run, its
thresholds and two tables, is worked out once and cached; the dice left
cap k in the loop. The run's rare passes (a refill below the one-chunk
band, a reject, a short read) and other dice go through the iterable
loop. A `range` of dice is checked once, by its two ends. `roll` and
`roll_many` refuse a state outside 0 <= value < size on entry, before a
bit is read; each step keeps a valid state valid.
"""

from __future__ import annotations

from bisect import bisect_right
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
        unchanged, and a tape keeps every bit it had. It does not check
        the state: a corrupt one (value outside [0, size)) stays corrupt.
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
        raises TypeError. It does not check the state: a corrupt one
        (value outside [0, size)) gives a meaningless pass.
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
        """Roll a fair `sides`-sided die, refilling from `source` as needed.

        Returns the outcome in [0, sides); the fresh bits it draws are
        added to `bits_drawn`. This is the reference pair itself:
        `top_off` then `roll_step`, pass after pass, until a pass
        accepts, so the accept chance stays high even once recycling has
        shrunk the pool. Each pass is one call of each, the calls
        `perfbench/run.py --trace 1` divides by. A lone call pays for
        those two method calls on every pass; runs of dice belong to
        `roll_many`, the one fast loop, which gives the same outcomes,
        state and `bits_drawn`. Requires
        1 <= sides <= 2**(word_bits - chunk_bits): that guarantees the
        topped-off pool covers the range and the loop cannot stall. If a
        refill runs out of bits, EntropyExhausted propagates and the
        passes already made stay applied. A non-int `sides` raises
        TypeError before any bit is drawn. A corrupt state (the slots are
        writable) raises ValueError on entry unless 0 <= value < size,
        before the die is checked or a bit is read; refill, accept and
        reject each keep a valid state valid, so the loop checks nothing
        more.
        """
        size, value = self.size, self.value
        if not 0 <= value < size:  # corrupt: a valid state stays valid until return
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
        """Roll one die per item of `sides`, in order, or with `count` the
        one die `sides` that many times; returns `out` with the outcomes
        appended (a new list if `out` is None).

        The same as calling `roll(n, source)` for each n and appending the
        results: the same outcomes, bits drawn and final state, and the same
        refusals: each die is checked as `roll` checks it, when its turn
        comes, after the outcomes before it are in `out`. A corrupt state
        raises ValueError on entry unless 0 <= value < size, before any die is
        checked or a bit is read, even if `sides` is empty. `sides` may be any
        iterable, such as `itertools.repeat(6, count)` or, for a shuffle,
        `range(deck, 1, -1)`, and the dice may change from one roll to the
        next. The loop holds the pool state in locals, makes the reduction
        pass inline, and writes the state back when it ends, also when it
        raises: if a die is refused or the source runs out, the outcomes
        rolled before it stay in `out` and the pool is left as the `roll` loop
        would leave it. Every refill comes from a read-ahead filled in spans,
        the most whole chunks that fit 256 bits (one `SeededSource` pull). A
        pool in the one-chunk band (ceiling >> chunk_bits, ceiling], where one
        chunk tops it off, takes that chunk without working out the width,
        reading a span when the read-ahead is empty; at 8-bit chunks each span
        read also makes the span's bytes, least significant first, and the
        chunk is a byte of them, not a shift of the read-ahead. A pool below
        the band (one a reject or a large die, such as a product draw, has
        shrunk) takes the width `top_off` would read, topping the read-ahead
        up first, if it holds too few bits, with the fewest whole spans that
        cover the shortfall, in one `next_bits` call; that top-up replaces the
        read-ahead, so it drops the bytes, and band refills shift until the
        next span read. Only the empty pool (size 1) rolls that one outcome
        through `roll`, which fills it by `top_off` and `roll_step`. Before
        that `roll` call, and when the loop ends or raises, the bits the pool
        did not take go back to the source with `source.unread`; by the
        big-endian source contract the pool takes the same bits in the same
        order as `roll`'s reads, and the source is left as the `roll` loop
        would leave it. So while the call runs, nothing else may read the
        source, the `sides` iterable included. A read of whole spans that runs
        out is made again for just the bits the refill needs, and the rest of
        the call reads one chunk at a time, so a finite tape runs out at the
        same roll as in the `roll` loop. Each die is checked when it is not
        the object last checked: a run of one int object is checked once, any
        other die each time, but a `range` whose two ends pass is checked
        once, on entry, by those ends. A range whose ends fail is checked die
        by die, so its first bad die is still refused in its turn.

        The count form, `roll_many(n, source, out, count=k)`, gives what
        `roll_many(repeat(n, k), source, out)` gives: the same outcomes,
        state, `bits_drawn` and refusals, and the same EntropyExhausted at
        the same roll with the same `out` prefix and tape position.
        `count` must be an int >= 0 and is checked first; the die is
        checked only if count >= 1. An int die 2 <= n <= ceiling with
        n**FUSE_POWER <= 2**chunk_bits (d2 to d16 at (64, 8)), whose two
        passes fit one table, and a count of at least 2 take a loop of
        their own; that gate is tested before the cache, so no other die
        takes a place in it. The run, the thresholds and the two digit
        tables, is worked out once per die and geometry and cached. After
        each one-chunk refill, the most passes k with
        size >= (ceiling + 1) * n**(k - 1), so that no refill falls
        between them, are made as one pass over n**k, whose digits,
        least significant first, come from the `(n,) * k` digit table,
        if k is one of the two largest that can fit and at most the
        dice left. Otherwise, or if that pass rejects, one pass over n
        is made. Every other case hands that one die to the iterable
        loop, which rolls it as any other, and the run resumes after it:
        a pool below the one-chunk band (the empty pool or a sliver), a
        single pass that rejects, and a span read that runs short. Any
        other die or count goes through the iterable loop as
        `repeat(n, count)`.
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
        if not 0 <= value < size:  # corrupt: a valid state stays valid until return
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
            n, rest, sides, (sizes, powers, tables, low) = sides, count, (), run
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
                            elif size == 1:  # the empty pool: roll fills it by the reference pair
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
                    k = bisect_right(sizes, size)  # the most passes with no refill between
                    if low <= k <= rest:  # k passes over n accept iff one pass over n**k does
                        power = powers[k]
                        keep = size // power
                        quotient = value // power
                        if quotient < keep:
                            out += tables[k][value % power]
                            size, value = keep, quotient
                            rest -= k
                            continue
                    keep = size // n  # one pass: k too small or too few dice left
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
    """What `roll_many`'s count form needs to roll a run of the int die n
    several passes at a time, or None if fewer than two passes fit.

    For k = 1, 2, ..., top: sizes[k - 1] = (ceiling + 1) * n**(k - 1), the
    least size from which k passes fit with no refill between them, and
    powers[k] = n**k. top stops at the widest pool and at TABLE_DIGITS;
    the loop's `k <= rest` test stops k at the dice left. Only the top two
    k, from low = max(2, top - 1), are fused, by their digit tables
    tables[k] = `_table((n,) * k)`: after a refill, the pool a fused pass
    left fits one of them at (64, 8), and a cache of MAX_TABLES // 2 runs
    holds at most MAX_TABLES tables, so runs of up to four dice in turn
    keep theirs. `roll_many` looks it up only for a die its gate passes,
    an int 2 <= n <= ceiling with n**FUSE_POWER <= 2**chunk_bits: a
    larger one too rarely fits a second pass above the ceiling to pay for
    choosing k (at (64, 8), d2 to d16 are fused; fused, d20 rolled as
    fast, d52 and d90 about 10% and 15% slower), and 6.0 or True never
    finds the entry of 6 or 1. Worked out once per die and geometry.
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
    return sizes, powers, tables, low
