"""Benchmarks, exhaustive enumeration, chi-square, shuffle."""

import re
import time
import tracemalloc

import pytest

from dicepool import (
    EntropyExhausted,
    SeededSource,
    TapeSource,
    bench_naive,
    bench_recycler,
    chi_square,
    enumerate_exact,
    shuffle,
)
from dicepool.harness import BENCH_BLOCK, MAX_TABLE_SIZE

SHUFFLE_52_SEED_7 = [
    21, 44, 14, 33, 6, 47, 22, 30, 34, 24, 35, 2, 27, 0, 36, 23, 4, 28,
    8, 32, 50, 19, 37, 10, 49, 31, 17, 9, 25, 38, 43, 26, 45, 39, 18, 13,
    46, 16, 29, 20, 1, 3, 41, 12, 15, 48, 51, 5, 7, 42, 40, 11,
]

def test_chi_square_perfectly_uniform():
    assert chi_square((100, 100, 100)) == (0.0, 2)


def test_chi_square_two_categories():
    assert chi_square((120, 80)) == (8.0, 1)


@pytest.mark.parametrize("counts", [(5,), (), (0, 0), (3, -1)])
def test_chi_square_degenerate(counts):
    with pytest.raises(ValueError):
        chi_square(counts)


def test_power_of_two_bench_wastes_nothing():
    report = bench_recycler(2, 1000)
    assert report.waste_per_roll == 0.0
    assert report.efficiency == 1.0
    assert report.bits_in - report.pool_delta == 1000.0


def test_bench_ledger_closure():
    report = bench_recycler(6, 5000, seed=3)
    recombined = (
        report.entropy_out + report.pool_delta + report.rolls * report.waste_per_roll
    )
    assert report.bits_in == pytest.approx(recombined, abs=1e-6)
    assert report.waste_per_roll > -1e-9
    assert 0.0 < report.efficiency <= 1.0
    assert report.n == 6 and report.dof == 5


def test_bench_is_deterministic():
    a = bench_recycler(6, 2000, seed=5)
    b = bench_recycler(6, 2000, seed=5)
    assert a.csv_row() == b.csv_row()


@pytest.mark.parametrize("run,row", [
    (lambda: bench_recycler(6, 3000, seed=10),
     "recycler,6,3000,7816,61.11249784,7754.887502,0,1,2.568,5"),
    (lambda: bench_naive(6, 3000, seed=10),
     "naive,6,3000,11898,0,7754.887502,1.381037499,0.6517807617,0.628,5"),
    (lambda: bench_recycler(33, 5000, seed=4, word_bits=13, chunk_bits=5),
     "recycler,33,5000,25705,6.475733431,25221.9706,0.09531073396,"
     "0.9814559908,18.7852,32"),
], ids=["recycler-d6", "naive-d6", "recycler-d33-W13-B5"])
def test_bench_pinned_rows(run, row):
    assert run().csv_row() == row


def test_bench_elapsed_is_the_time_the_run_took():
    for bench in (bench_recycler, bench_naive):
        start = time.perf_counter()
        report = bench(6, 3 * BENCH_BLOCK + 5)
        assert 0 < report.elapsed <= time.perf_counter() - start


def test_bench_recycler_memory_is_bounded():
    # --rolls has no upper bound; outcomes are held a block at a time, so a
    # million rolls peak far below the 8 MB one list of them would take
    tracemalloc.start()
    try:
        bench_recycler(6, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_bench_naive_power_of_two_bits_exact():
    report = bench_naive(32, 100)
    assert report.bits_in == 500
    assert report.waste_per_roll == 0.0


def test_bench_naive_three_sided():
    report = bench_naive(3, 20000, seed=2)
    assert report.bits_in / report.rolls == pytest.approx(8 / 3, abs=0.05)


def test_bench_argument_validation():
    with pytest.raises(ValueError):
        bench_recycler(1, 10)
    with pytest.raises(ValueError):
        bench_recycler(6, 0)
    with pytest.raises(ValueError):
        bench_naive(1, 10)
    for bench in (bench_recycler, bench_naive):
        with pytest.raises(ValueError):
            bench(MAX_TABLE_SIZE + 1, 1)  # refused before the histogram is made
    with pytest.raises(ValueError):
        bench_recycler(6, 1, word_bits=(1 << 16) + 1)  # the pool refuses the width
    with pytest.raises(ValueError, match=re.escape("sides must be in [2, 1048576], got 1")):
        bench_naive(1, 10)
    with pytest.raises(ValueError, match=re.escape("rolls must be in [1, inf], got 0")):
        bench_naive(6, 0)


@pytest.mark.parametrize("call,args", [
    (bench_naive, (6.0, 10)),
    (bench_recycler, (6.0, 10)),
    (bench_recycler, (6, 10.0)),
    (shuffle, (52.0,)),
    (enumerate_exact, (3.0, 3)),
    (enumerate_exact, (3, 3.0)),
], ids=lambda v: getattr(v, "__name__", repr(v)))
def test_harness_integers_must_be_ints(call, args):
    with pytest.raises(TypeError):
        call(*args)


def test_csv_row_shape():
    report = bench_recycler(6, 100, seed=1)
    row = report.csv_row()
    assert row.startswith("recycler,6,100,")
    assert len(row.split(",")) == 10


def test_summary_mentions_key_fields():
    text = bench_recycler(6, 100, seed=1).summary()
    assert "efficiency" in text
    assert "chi-square" in text


def test_enumerate_exact_three_sided():
    result = enumerate_exact(3, 3)
    assert result.counts == [2, 2, 2]
    assert sorted(result.discard_states) == [(2, 0), (2, 1)]
    assert result.exact


def test_enumerate_exact_power_of_two_has_no_discards():
    result = enumerate_exact(8, 16)
    assert result.counts == [16] * 16
    assert result.discard_states == []
    assert result.exact


def test_enumerate_exact_five_sided():
    result = enumerate_exact(4, 5)
    assert result.counts == [3] * 5
    assert result.discard_states == [(1, 0)]
    assert result.exact


def test_enumerate_range_above_pool_discards_all():
    result = enumerate_exact(1, 3)
    assert result.counts == [0, 0, 0]
    assert sorted(result.discard_states) == [(2, 0), (2, 1)]
    assert result.exact


@pytest.mark.parametrize("tape_bits,sides", [(17, 3), (0, 3), (3, 21), (3, 0)])
def test_enumerate_bounds(tape_bits, sides):
    with pytest.raises(ValueError):
        enumerate_exact(tape_bits, sides)


def test_recycler_beats_baseline_everywhere():
    # every non-power-of-two range in [3, 64]
    for sides in range(3, 65):
        if sides & (sides - 1) == 0:
            continue
        recycled = bench_recycler(sides, 10**5, seed=1)
        rejected = bench_naive(sides, 10**5, seed=1)
        assert recycled.efficiency > rejected.efficiency, sides


def test_shuffle_single_card_uses_no_entropy():
    assert shuffle(1, source=TapeSource(b"")) == [0]


def test_shuffle_is_permutation():
    for seed in (1, 2, 3):
        order = shuffle(52, SeededSource(seed))
        assert sorted(order) == list(range(52))


def test_shuffle_fixture():
    assert shuffle(52, SeededSource(7)) == SHUFFLE_52_SEED_7


def test_shuffle_exhaustive_uniformity():
    # All 512 nine-bit tapes, bit-granular refills: each order of a
    # 3-card deck appears exactly 85 times and 2 tapes run out of bits.
    counts: dict[tuple[int, ...], int] = {}
    exhausted = 0
    for value in range(512):
        tape = TapeSource.from_int(value, 9)
        try:
            order = tuple(shuffle(3, source=tape, word_bits=8, chunk_bits=1))
        except EntropyExhausted:
            exhausted += 1
            continue
        counts[order] = counts.get(order, 0) + 1
    assert exhausted == 2
    assert len(counts) == 6
    assert set(counts.values()) == {85}


def test_shuffle_domain():
    with pytest.raises(ValueError):
        shuffle(0)
    with pytest.raises(ValueError):
        shuffle(MAX_TABLE_SIZE + 1)
    with pytest.raises(ValueError):
        shuffle(52, word_bits=(1 << 16) + 1)  # the pool refuses the width
