"""Unbiased-bit providers behind a single `next_bits` interface.

Bits are big-endian within and across reads: the first bit emitted is
the top bit of the first value, so two 8-bit reads give the bits of one
16-bit read. A source has one owner: never share it concurrently.
"""

from __future__ import annotations

import os
from math import inf
from operator import index

_MASK64 = (1 << 64) - 1

# SplitMix64 (Vigna / Steele et al.): 64-bit additive state, mix output.
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MULT1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MULT2 = 0x94D049BB133111EB
# SeededSource makes four outputs per pull, output i in 128-bit lane 3 - i
# of one int: wide enough that a lane masked to 64 bits times a 64-bit
# multiplier never carries into the next lane.
_LANE_ONES = sum(1 << 128 * i for i in range(4))  # times x: x in every lane
_LANE_MASK = _MASK64 * _LANE_ONES  # the low 64 bits of every lane
_LANE_STEPS = sum((i + 1) * _SPLITMIX_GAMMA << 128 * (3 - i) for i in range(4))
_PULL_STEP = 4 * _SPLITMIX_GAMMA & _MASK64
# Packing the lanes: each odd lane drops 64 bits onto the even one below,
# then the top 128-bit pair drops 128 bits onto the bottom one.
_PAIRS_MASK = ((1 << 128) - 1) * (1 | 1 << 256)
_MASK256 = (1 << 256) - 1


def _refusal(name: str, value: int, low: int, high: float = inf) -> str:
    """The one range-refusal text, `NAME must be in [LOW, HIGH], got VALUE`.

    An int wider than 64 bits prints as 2**k or as a k-bit int, since Python
    refuses to print one past 4300 digits.
    """
    def show(n: float) -> str:
        bits = 0 if n == inf else abs(n).bit_length()
        if bits <= 64:
            return str(n)
        if abs(n) == 1 << (bits - 1):
            return f"{'-' if n < 0 else ''}2**{bits - 1}"
        return f"a {'negative ' if n < 0 else ''}{bits}-bit int"

    return f"{name} must be in [{show(low)}, {show(high)}], got {show(value)}"


def _int_in(name: str, value: int, low: int, high: float = inf) -> int:
    """`value` as an int (operator.index), refused unless low <= value <= high."""
    value = index(value)
    if not low <= value <= high:
        raise ValueError(_refusal(name, value, low, high))
    return value


class EntropyExhausted(RuntimeError):
    """A finite source ran out of bits. Tapes never wrap around silently."""


class EntropySource:
    """Producer of unbiased bits, served from words of `pull_bits` bits.

    A subclass implements `_pull()`, the next word of `pull_bits` fresh bits
    (64 unless the class sets it), and inherits `next_bits`, which serves any
    read width and pulls a word only when its buffer is short. A subclass
    that overrides `next_bits` must override `unread` too, or the inherited
    one would park bits its `next_bits` never serves: defining such a class
    raises TypeError. `unread(bits, count)` gives back the last `count` bits
    read, `bits` in [0, 2**count), so the next read serves them first:
    reading 64 bits and giving back 40 leaves the source as reading 24 would.
    """

    pull_bits = 64  # the width of one `_pull()` word
    _buf = 0  # empty until the first read gives the instance its own
    _nbuf = 0

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "next_bits" in vars(cls) and "unread" not in vars(cls):
            raise TypeError(f"{cls.__name__} overrides next_bits but not unread")

    def next_bits(self, count: int) -> int:
        """Return the next `count` bits as an integer in [0, 2**count)."""
        count = index(count)  # inline (hot), and first: a bad count keeps the buffer
        if count < 1:
            raise ValueError(_refusal("count", count, 1))
        buf, nbuf = self._buf, self._nbuf - count  # bits left after this read
        while nbuf < 0:
            buf = (buf << self.pull_bits) | self._pull()
            nbuf += self.pull_bits
        out = buf >> nbuf
        self._buf, self._nbuf = buf - (out << nbuf), nbuf
        return out

    def unread(self, bits: int, count: int) -> None:
        """Put back `bits`, the last `count` bits read, ahead of the rest."""
        self._buf, self._nbuf = bits << self._nbuf | self._buf, self._nbuf + count

    def _pull(self) -> int:
        raise NotImplementedError


class SeededSource(EntropySource):
    """Deterministic SplitMix64 source for reproducible experiments.

    Regression fixtures freeze the stream, so changing the generator is a
    breaking change. Not a cryptographic source. The seed is taken mod 2**64
    (seed + 2**64 replays seed). Each `_pull()` makes the next four outputs,
    first output most significant: the stream a pull per output would give.
    """

    pull_bits = 256

    def __init__(self, seed: int) -> None:
        self._state = _int_in("seed", seed, 0) & _MASK64

    def _pull(self) -> int:
        # Output i mixes the state stepped i + 1 times, in all four lanes at once.
        state = self._state
        self._state = (state + _PULL_STEP) & _MASK64
        z = (state * _LANE_ONES + _LANE_STEPS) & _LANE_MASK
        z = ((z ^ z >> 30) & _LANE_MASK) * _SPLITMIX_MULT1 & _LANE_MASK
        z = ((z ^ z >> 27) & _LANE_MASK) * _SPLITMIX_MULT2 & _LANE_MASK
        z = (z ^ z >> 31) & _LANE_MASK
        z = (z | z >> 64) & _PAIRS_MASK
        return (z | z >> 128) & _MASK256


class OsSource(EntropySource):
    """Operating-system randomness (os.urandom, 32 bytes a pull). Not reproducible.

    Raises the platform's error (NotImplementedError or OSError) if none exists.
    """

    pull_bits = 256

    def _pull(self) -> int:
        return int.from_bytes(os.urandom(32), "big")


class TapeSource(EntropySource):
    """Finite, replayable bit tape: the first `nbits` bits of `data`, MSB first.

    Reading past the end raises EntropyExhausted. `nbits` must be an int
    (operator.index); one read of the whole tape gives its big-endian value.
    """

    def __init__(self, data: bytes, nbits: int | None = None) -> None:
        self._data = bytes(data)
        total = 8 * len(self._data)
        self._nbits = total if nbits is None else _int_in("nbits", nbits, 0, total)
        self._pos = 0

    @classmethod
    def from_int(cls, value: int, nbits: int) -> "TapeSource":
        """Tape whose `nbits` bits spell `value` (big-endian)."""
        nbits = _int_in("nbits", nbits, 0)
        value = _int_in("value", value, 0, (1 << nbits) - 1)
        nbytes = (nbits + 7) // 8
        data = (value << (8 * nbytes - nbits)).to_bytes(nbytes, "big")
        return cls(data, nbits)

    @property
    def bits_remaining(self) -> int:
        return self._nbits - self._pos

    def next_bits(self, count: int) -> int:
        count = _int_in("count", count, 1)
        end = self._pos + count
        if end > self._nbits:
            raise EntropyExhausted(f"tape exhausted after {self._nbits} bits")
        last = (end + 7) // 8  # the bytes covering [pos, end)
        window = int.from_bytes(self._data[self._pos // 8:last], "big")
        self._pos = end
        return (window >> (8 * last - end)) & ((1 << count) - 1)

    def unread(self, bits: int, count: int) -> None:
        self._pos -= count


class CountingSource(EntropySource):
    """Transparent wrapper that totals the bits handed out.

    `bits_delivered` is the sum of the read widths served, less the bits
    given back with `unread`; a read that fails (tape exhaustion) adds nothing.
    """

    def __init__(self, inner: EntropySource) -> None:
        self.inner = inner
        self.bits_delivered = 0

    def next_bits(self, count: int) -> int:
        out = self.inner.next_bits(count)
        self.bits_delivered += count
        return out

    def unread(self, bits: int, count: int) -> None:
        self.inner.unread(bits, count)
        self.bits_delivered -= count
