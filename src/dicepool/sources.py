"""Unbiased-bit providers behind a single `next_bits` interface.

Bit order is big-endian within and across chunks: the first bit a source
ever emits is the most significant bit of the first value returned, so
reading 16 bits as two 8-bit chunks yields the same bits as one 16-bit
read.  Sources are single-owner mutable objects; hand them between
threads if you like, but never share one concurrently.
"""

from __future__ import annotations

import os

_MASK64 = (1 << 64) - 1

# SplitMix64 (Vigna / Steele et al.): 64-bit additive state, mix output.
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MULT1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MULT2 = 0x94D049BB133111EB


class EntropyExhausted(RuntimeError):
    """A finite source ran out of bits. Tapes never wrap around silently."""


class EntropySource:
    """Abstract producer of unbiased bits."""

    def next_bits(self, count: int) -> int:
        """Return the next `count` bits as an integer in [0, 2**count)."""
        raise NotImplementedError


class _BufferedSource(EntropySource):
    """Base for word-producing sources; serves arbitrary chunk sizes.

    Subclasses implement `_pull()` returning the next 64-bit word of
    fresh bits. The FIFO buffer keeps the oldest bit in the most
    significant position, which is what makes chunked reads agree with
    one wide read.
    """

    def __init__(self) -> None:
        self._buf = 0
        self._nbuf = 0

    def _pull(self) -> int:
        raise NotImplementedError

    def next_bits(self, count: int) -> int:
        if count < 1:
            raise ValueError(f"bit count must be positive, got {count}")
        while self._nbuf < count:
            self._buf = (self._buf << 64) | self._pull()
            self._nbuf += 64
        self._nbuf -= count
        out = self._buf >> self._nbuf
        self._buf &= (1 << self._nbuf) - 1
        return out


class SeededSource(_BufferedSource):
    """Deterministic pseudorandom source for reproducible experiments.

    Backed by SplitMix64, a standard 64-bit-state generator. The choice
    is fixed per release: regression fixtures freeze the exact stream,
    so changing the generator is a breaking change. Statistical quality
    is ample for the uniformity harness; this is not a cryptographic
    source. The seed is taken mod 2**64, so seed + 2**64 replays seed.
    """

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        super().__init__()
        self._state = seed & _MASK64

    def _pull(self) -> int:
        self._state = (self._state + _SPLITMIX_GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _SPLITMIX_MULT1) & _MASK64
        z = ((z ^ (z >> 27)) * _SPLITMIX_MULT2) & _MASK64
        return z ^ (z >> 31)


class OsSource(_BufferedSource):
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
    the end raises EntropyExhausted.
    """

    def __init__(self, data: bytes, nbits: int | None = None) -> None:
        self._data = bytes(data)
        total = 8 * len(self._data)
        if nbits is None:
            nbits = total
        if not 0 <= nbits <= total:
            raise ValueError(f"nbits must be in [0, {total}], got {nbits}")
        self._nbits = nbits
        self._pos = 0

    @classmethod
    def from_int(cls, value: int, nbits: int) -> "TapeSource":
        """Tape whose `nbits` bits spell `value` (big-endian)."""
        if nbits < 0 or value < 0 or value >> nbits:
            raise ValueError("value must fit in nbits")
        nbytes = (nbits + 7) // 8
        data = (value << (8 * nbytes - nbits)).to_bytes(nbytes, "big")
        return cls(data, nbits)

    @property
    def bits_remaining(self) -> int:
        return self._nbits - self._pos

    def next_bits(self, count: int) -> int:
        if count < 1:
            raise ValueError(f"bit count must be positive, got {count}")
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
