"""Every integer boundary shares one gate: one TypeError, one refusal text."""

import re
from math import inf

import pytest

from dicepool import (
    EntropyPool, RadixPlan, RangeTooLarge, SeededSource, TapeSource, bench_naive,
    bench_recycler, efficiency_estimate, enumerate_exact, shuffle, waste_point,
)
from dicepool.harness import MAX_TABLE_SIZE

# id: (call(x, tape), name, low, high, a refused value)
GATED = {
    "word_bits": (lambda x, tape: EntropyPool(x, 1), "word_bits", 1, 1 << 16, 0),
    "chunk_bits": (lambda x, tape: EntropyPool(64, x), "chunk_bits", 1, 64, 65),
    "snapshot-size": (lambda x, tape: EntropyPool.from_snapshot((x, 0, 8, 1)),
                      "size", 1, 256, 257),
    "snapshot-value": (lambda x, tape: EntropyPool.from_snapshot((8, x, 8, 1)),
                       "value", 0, 7, 8),
    "tape-nbits": (lambda x, tape: TapeSource(b"\xff", x), "nbits", 0, 8, 9),
    "tape-count": (lambda x, tape: tape.next_bits(x), "count", 1, inf, 0),
    "from_int-value": (lambda x, tape: TapeSource.from_int(x, 2), "value", 0, 3, 4),
    "from_int-nbits": (lambda x, tape: TapeSource.from_int(0, x), "nbits", 0, inf, -1),
    "seed": (lambda x, tape: SeededSource(x), "seed", 0, inf, -1),
    "plan-range": (lambda x, tape: RadixPlan([2, x]), "range", 1, inf, 0),
    "waste_point-sides": (lambda x, tape: waste_point(x, 8), "sides", 1, inf, 0),
    "waste_point-pool_size": (lambda x, tape: waste_point(6, x), "pool_size", 1, inf, 0),
    "estimate-sides": (lambda x, tape: efficiency_estimate(x, 8), "sides", 2, inf, 1),
    "estimate-pool_size": (lambda x, tape: efficiency_estimate(6, x),
                           "pool_size", 1, inf, 0),
    "bench_recycler-sides": (lambda x, tape: bench_recycler(x, 1),
                             "sides", 2, MAX_TABLE_SIZE, 1),
    "bench_naive-rolls": (lambda x, tape: bench_naive(6, x), "rolls", 1, inf, 0),
    "enumerate-tape_bits": (lambda x, tape: enumerate_exact(x, 3),
                            "tape_bits", 1, 16, 17),
    "enumerate-sides": (lambda x, tape: enumerate_exact(3, x), "sides", 1, 20, 21),
    "shuffle-deck": (lambda x, tape: shuffle(x, tape), "deck", 1, MAX_TABLE_SIZE, 0),
}


@pytest.mark.parametrize("case", GATED.values(), ids=GATED.keys())
def test_integer_gate(case):
    call, name, low, high, refused = case
    tape = TapeSource(bytes(range(8)))
    with pytest.raises(TypeError):
        call(6.0, tape)
    refusal = f"{name} must be in [{low}, {high}], got {refused}"
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        call(refused, tape)
    assert tape.bits_remaining == 64  # neither refusal read a bit
    call(low, tape)  # the low end passes


def test_wide_snapshot_size_is_named_as_a_power():
    with pytest.raises(ValueError, match=re.escape("got 2**70000")):
        EntropyPool.from_snapshot((1 << 70000, 5, 65536, 8))


def test_wide_die_is_refused_as_too_large():
    pool, source = EntropyPool(65536, 8), SeededSource(1)
    # an int past 4300 digits cannot be printed; the refusal names its width
    refusal = "sides must be in [1, 2**65528], got a 65529-bit int"
    with pytest.raises(RangeTooLarge, match=re.escape(refusal)):
        pool.roll((1 << 65528) + 1, source)
    assert (pool.snapshot(), pool.bits_drawn) == ((1, 0, 65536, 8), 0)
