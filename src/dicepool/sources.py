"""Unbiased-bit providers behind a single `next_bits` interface.

Bit order is big-endian within and across chunks: the first bit a source
ever emits is the most significant bit of the first value returned, so
reading 16 bits as two 8-bit chunks yields the same bits as one 16-bit
read.  Sources are single-owner mutable objects; hand them between
threads if you like, but never share one concurrently.
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


def _refusal(name: str, value: int, low: int, high: float = inf) -> str:
    """The one range-refusal text, `NAME must be in [LOW, HIGH], got VALUE`.

    An int wider than 64 bits prints as 2**k, or else as a k-bit int:
    Python refuses to print one past 4300 digits.
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
    """Producer of unbiased bits, served from 64-bit words.

    A subclass implements `_pull()` returning the next 64-bit word of
    fresh bits and inherits `next_bits`, which serves any chunk size. The
    FIFO buffer keeps the oldest bit on top, so chunked reads agree with
    one wide read; a read takes its bits off the top with one shift and
    one subtract. A source that is not word-based overrides `next_bits`.
    """

    _buf = 0  # empty until the first read gives the instance its own
    _nbuf = 0

    def next_bits(self, count: int) -> int:
        """Return the next `count` bits as an integer in [0, 2**count)."""
        count = index(count)  # inline (hot), and first: a bad count keeps the buffer
        if count < 1:
            raise ValueError(_refusal("count", count, 1))
        buf, nbuf = self._buf, self._nbuf - count  # bits left after this read
        while nbuf < 0:
            buf = (buf << 64) | self._pull()
            nbuf += 64
        out = buf >> nbuf
        self._buf, self._nbuf = buf - (out << nbuf), nbuf
        return out

    def _pull(self) -> int:
        raise NotImplementedError


class SeededSource(EntropySource):
    """Deterministic pseudorandom source for reproducible experiments.

    Backed by SplitMix64, a standard 64-bit-state generator. The choice
    is fixed per release: regression fixtures freeze the exact stream,
    so changing the generator is a breaking change. Statistical quality
    is ample for the uniformity harness; this is not a cryptographic
    source. The seed is taken mod 2**64, so seed + 2**64 replays seed.
    """

    def __init__(self, seed: int) -> None:
        self._state = _int_in("seed", seed, 0) & _MASK64

    def _pull(self) -> int:
        z = self._state = (self._state + _SPLITMIX_GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _SPLITMIX_MULT1) & _MASK64
        z = ((z ^ (z >> 27)) * _SPLITMIX_MULT2) & _MASK64
        return z ^ (z >> 31)


class OsSource(EntropySource):
    """Operating-system randomness (os.urandom). Not reproducible.

    Raises the platform's error (NotImplementedError/OSError) if no OS
    randomness facility exists. Excluded from regression fixtures.
    """

    def _pull(self) -> int:
        return int.from_bytes(os.urandom(8), "big")


class TapeSource(EntropySource):
    """Finite, replayable bit tape.

    The tape is the first `nbits` bits of `data`, most significant bit of
    each byte first; interpreted as one big-endian integer, that is the
    exact value a fresh reader of the whole tape would get. Reading past
    the end raises EntropyExhausted. `nbits` must be an int
    (operator.index), so a fractional tape length raises TypeError.
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


class CountingSource(EntropySource):
    """Transparent wrapper that totals the bits handed out.

    `bits_delivered` is the exact sum of chunk sizes served so far; a
    request that fails (tape exhaustion) adds nothing.
    """

    def __init__(self, inner: EntropySource) -> None:
        self.inner = inner
        self.bits_delivered = 0

    def next_bits(self, count: int) -> int:
        out = self.inner.next_bits(count)
        self.bits_delivered += count
        return out
