"""Acceptance suite: one test per criterion, each at its stated tolerance.

Each test prints a single PASS line with the measured numbers (visible
under `pytest -s` or in the captured output); a failing assert is the
FAIL signal for that criterion.
"""

import math
import random
import time

from dicepool import (
    CountingSource,
    EntropyExhausted,
    EntropyPool,
    RadixPlan,
    SeededSource,
    TapeSource,
    bench_naive,
    bench_recycler,
    binary_entropy,
    efficiency_estimate,
    enumerate_exact,
    roll_batch,
    waste_per_roll,
    waste_point,
)

# Central 99.8% bands of the chi-square distribution, keyed by degrees of
# freedom: (quantile 0.001, quantile 0.999). Precomputed, not derived in CI.
CHI2_BANDS = {
    2: (0.002001000667167068, 13.815510557964274),
    5: (0.2102126026292192, 20.515005652432873),
    32: (12.810654582803634, 62.487219057088474),
}


def test_naive_baseline_reproduction():
    start = time.perf_counter()
    report = bench_naive(33, 10**6, seed=1)
    elapsed = time.perf_counter() - start
    bits_per_roll = report.bits_in / report.rolls
    assert abs(bits_per_roll - 11.636) <= 0.05
    assert abs(report.efficiency - 0.4335) <= 0.005
    assert elapsed < 10.0
    print(
        f"PASS naive baseline: {bits_per_roll:.4f} bits/roll, "
        f"efficiency {report.efficiency:.4f} [{elapsed:.1f}s]"
    )


def test_recycler_near_lossless():
    start = time.perf_counter()
    report = bench_recycler(6, 10**6, seed=1, word_bits=64, chunk_bits=8)
    elapsed = time.perf_counter() - start
    assert report.waste_per_roll < 1e-3
    assert report.efficiency > 0.999
    assert elapsed < 10.0
    print(
        f"PASS near-lossless recycler: waste {report.waste_per_roll:.3g} bits/roll, "
        f"efficiency {report.efficiency:.6f} [{elapsed:.1f}s]"
    )


def _brute_force_histogram(tape_bits, sides):
    # Independent oracle: same reduction, different arithmetic. Forms the
    # accepted count as an explicit product and reduces each value with
    # product/subtract steps instead of the pool's divmod path.
    pool_size = 2**tape_bits
    keep = pool_size // sides
    accepted = sides * keep
    counts = [0] * sides
    leftovers = []
    for value in range(pool_size):
        if value < accepted:
            counts[value - sides * (value // sides)] += 1
        else:
            leftovers.append((pool_size - accepted, value - accepted))
    return counts, leftovers


def _ledger_waste(pool_size, sides, keep):
    # Independent oracle: the entropy one pass that keeps `keep` states
    # loses, from the ledger. Before the pass the pool holds
    # log2(pool_size) bits. With probability sides*keep/pool_size it
    # succeeds, leaving log2(keep) bits plus log2(sides) bits of output;
    # otherwise the offcut holds log2(pool_size - sides*keep) bits. The
    # shortfall of the expected after-total is the waste.
    accepted = sides * keep
    p = accepted / pool_size
    waste = math.log2(pool_size) - p * (math.log2(keep) + math.log2(sides))
    offcut = pool_size - accepted
    if offcut:
        waste -= (offcut / pool_size) * math.log2(offcut)
    return waste


def test_exact_uniformity_oracle():
    start = time.perf_counter()
    cases = 0
    for tape_bits in range(1, 13):
        for sides in range(1, 13):
            result = enumerate_exact(tape_bits, sides)
            assert result.exact, (tape_bits, sides)
            counts, leftovers = _brute_force_histogram(tape_bits, sides)
            assert result.counts == counts, (tape_bits, sides)
            assert result.discard_states == leftovers, (tape_bits, sides)
            cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS exact uniformity oracle: {cases} (tape_bits, sides) cases [{elapsed:.1f}s]")


def test_waste_identity():
    rng = random.Random(2024)
    worst = 0.0
    for _ in range(10**4):
        pool_size = rng.randrange(1, 1 << 20)
        sides = rng.randrange(1, pool_size + 1)
        keep = rng.randrange(1, pool_size // sides + 1)
        ledger = _ledger_waste(pool_size, sides, keep)
        flip = binary_entropy(sides * keep / pool_size)
        pooled = _ledger_waste(pool_size, sides, pool_size // sides)
        point = waste_point(sides, pool_size).waste_iter
        gap = max(abs(ledger - flip), abs(pooled - point))
        worst = max(worst, gap)
        assert gap <= 1e-12
    print(f"PASS waste identity: 10^4 random triples, worst gap {worst:.2e}")


def _waste_rows(sides, pool_size):
    # (p, waste per roll) for every pass that keeps 1..pool_size//sides states
    rows = []
    for keep in range(1, pool_size // sides + 1):
        p = sides * keep / pool_size
        rows.append((p, waste_per_roll(p)))
    return rows


def test_waste_monotonicity():
    rng = random.Random(77)
    for _ in range(100):
        sides = rng.randrange(2, 65)
        pool_size = rng.randrange(sides, 4097)
        rows = _waste_rows(sides, pool_size)
        for (p_a, waste_a), (p_b, waste_b) in zip(rows, rows[1:]):
            assert waste_b <= waste_a
            if p_b > p_a:
                assert waste_b < waste_a
    rows = _waste_rows(3, 64)
    assert len(rows) == 21 and rows[-1][0] == 63 / 64
    assert all(b[1] < a[1] for a, b in zip(rows, rows[1:]))
    assert _waste_rows(2, 4)[-1] == (1.0, 0.0)  # exact division wastes nothing
    assert _waste_rows(5, 5) == [(1.0, 0.0)]
    steps = 0
    for sides in (3, 6, 33):
        pool_size = 4 * sides
        last = efficiency_estimate(sides, pool_size)
        while pool_size <= 1 << 24:
            pool_size *= 2
            eta = efficiency_estimate(sides, pool_size)
            assert eta >= last
            last = eta
            steps += 1
    print(f"PASS monotonicity: 100 waste tables strict, {steps} estimate doublings non-decreasing")


def _batched_attempt(data, plan):
    pool = EntropyPool(16, 8)
    try:
        digits = roll_batch(pool, plan, TapeSource(data))
    except EntropyExhausted:
        return None
    return digits, pool.snapshot()


def _sequential_attempt(data, plan):
    pool = EntropyPool(16, 8)
    tape = TapeSource(data)
    digits = []
    try:
        for sides in plan.ranges:
            digits.append(pool.roll(sides, tape))
    except EntropyExhausted:
        return None
    return digits, pool.snapshot()


def test_sequential_batch_equivalence():
    start = time.perf_counter()
    for ranges in ((2, 3), (3, 5), (4, 4, 4), (6,)):
        plan = RadixPlan(ranges)
        cutoff = 65536 - 65536 % plan.product
        for value in range(65536):
            data = value.to_bytes(2, "big")
            batched = _batched_attempt(data, plan)
            sequential = _sequential_attempt(data, plan)
            discarded = value >= cutoff
            assert (batched is None) == (sequential is None) == discarded, (ranges, value)
            if batched is not None:
                assert batched == sequential, (ranges, value)
    elapsed = time.perf_counter() - start
    print(f"PASS sequential/batched equivalence: 4 plans x 65536 tapes [{elapsed:.1f}s]")


def test_uniformity_at_scale():
    stats = []
    for sides in (3, 6, 33):
        report = bench_recycler(sides, 10**6, seed=1)
        low, high = CHI2_BANDS[sides - 1]
        assert low <= report.chi_square <= high, (sides, report.chi_square)
        stats.append(f"n={sides}: {report.chi_square:.2f}")
    print("PASS uniformity at scale: " + ", ".join(stats))


def test_power_of_two_exactness():
    for exponent in range(1, 9):
        sides = 1 << exponent
        pool = EntropyPool(64, 8)
        source = CountingSource(SeededSource(1))
        before = pool.entropy()
        rolls = 2000
        for _ in range(rolls):
            pool.roll(sides, source)
            # The pool size stays a power of two, so sides divides it and
            # there is never an offcut to reject.
            assert pool.size & (pool.size - 1) == 0
        spent = source.bits_delivered - (pool.entropy() - before)
        assert spent == rolls * exponent  # exactly log2(sides) bits per roll
        assert bench_recycler(sides, 500, seed=1).waste_per_roll == 0.0
    print("PASS power-of-two exactness: ranges 2..256, ledger exact at zero tolerance")
