"""The three closed-loop workloads: one client, one op at a time.

Each workload turns an op seed into the arguments of one call into a
public dicepool entry point, runs that call, and reduces its output to
a digest, a fresh-bit count and the bits left in the pool. The
reference in `reference.py` recomputes the same figures for the check.
"""

from __future__ import annotations

import math
import re
from array import array

import dicepool
from dicepool import cli, harness
from dicepool.sources import CountingSource, SeededSource

import reference

# Chi-square bands no fair die leaves with probability above ~1e-8.
CHI_BAND_DOF5 = (0.002, 50.0)
CHI_BAND_DOF51 = (10.0, 140.0)

# Operating point of the waste model: the middle of the refill band
# (2**56, 2**64] that a default pool's size stays in between rolls.
MODEL_POOL_SIZE = 1 << 60


class Sink:
    """Stand-in for stdout that holds only the current op's output.

    `write` is a bare list append, so printing costs the same at the
    first op as at the ten-thousandth; `take` empties it after timing.
    """

    def __init__(self) -> None:
        self._parts: list[str] = []
        self.write = self._parts.append

    def flush(self) -> None:
        pass

    def take(self) -> str:
        text = "".join(self._parts)
        self._parts.clear()
        return text


class Workload:
    """Shared shape; subclasses fill in the op and its reference."""

    name: str
    rolls_per_op: int
    min_ops: int              # ops run even past the deadline; bits_per_roll uses these
    die_ranges: list[tuple[int, int]]  # (sides, rolls of that range) per op

    def prepare(self, seed: int):
        """Arguments of the op, built outside the timed region."""
        raise NotImplementedError

    def call(self, prepared):
        """The timed call into dicepool."""
        raise NotImplementedError

    def observe(self, result, text: str) -> tuple[int, int, float]:
        """(digest, fresh bits or -1 if unseen, pool bits left) of one op."""
        raise NotImplementedError

    def expect(self, seed: int) -> tuple[int, int, object]:
        """Reference (digest, fresh bits, sample for the chi-square band)."""
        raise NotImplementedError

    def program_bits(self, seed: int) -> int:
        """Fresh bits of an op whose call does not expose its source."""
        raise NotImplementedError

    def band_failures(self, samples: list) -> set[int]:
        """Indices of ops that fail the fixed chi-square band."""
        return {i for i, counts in enumerate(samples)
                if not in_band(reference.chi_square(counts), CHI_BAND_DOF5)}

    def entropy_per_op(self) -> float:
        return sum(count * math.log2(sides) for sides, count in self.die_ranges)

    def model_waste_per_roll(self) -> float:
        """analysis' expected waste per outcome at MODEL_POOL_SIZE."""
        m = MODEL_POOL_SIZE
        total = 0.0
        for sides, count in self.die_ranges:
            p = (m - m % sides) / m
            total += count * dicepool.analysis.waste_per_roll(p)
        return total / self.rolls_per_op


def in_band(stat: float, band: tuple[float, float]) -> bool:
    return band[0] <= stat <= band[1]


class BenchD6(Workload):
    """`dicepool bench -n 6` in process: one long-lived pool, fixed die."""

    name = "bench-d6"
    _row = re.compile(r"recycler,6,(\d+),(\d+),([^,]+),")

    def __init__(self, rolls: int = 20_000, min_ops: int = 100) -> None:
        self.rolls_per_op = rolls
        self.min_ops = min_ops
        self.die_ranges = [(6, rolls)]

    def prepare(self, seed):
        return ["bench", "-n", "6", "--rolls", str(self.rolls_per_op), "--seed", str(seed)]

    def call(self, argv):
        return cli.main(argv)

    def observe(self, rc, text):
        header, row = text.splitlines()
        match = self._row.match(row)
        if rc != 0 or header != reference.BENCH_CSV_HEADER or match is None:
            raise ValueError(f"unexpected bench output: {text!r}")
        return reference.digest(text.encode()), int(match[2]), float(match[3])

    def expect(self, seed):
        text, bits, counts = reference.bench_csv(6, self.rolls_per_op, seed)
        return reference.digest(text.encode()), bits, counts


class Shuffle52(Workload):
    """`harness.shuffle(52)`: the range changes every roll, fresh pool each op."""

    name = "shuffle-52"
    rolls_per_op = 51

    def __init__(self, min_ops: int = 2_000) -> None:
        self.min_ops = min_ops
        self.die_ranges = [(sides, 1) for sides in range(52, 1, -1)]

    def prepare(self, seed):
        return seed

    def call(self, seed):
        source = CountingSource(SeededSource(seed))
        return harness.shuffle(52, source=source), source

    def observe(self, result, text):
        order, source = result
        return reference.digest(bytes(order)), source.bits_delivered, 0.0

    def expect(self, seed):
        order, bits = reference.shuffle(52, seed)
        return reference.digest(bytes(order)), bits, order[0]

    def band_failures(self, samples):
        """One band for the whole run: the card dealt to position 0."""
        counts = [0] * 52
        for card in samples:
            counts[card] += 1
        if in_band(reference.chi_square(counts), CHI_BAND_DOF51):
            return set()
        return set(range(len(samples)))


class RollPlanCli(Workload):
    """`dicepool roll --plan 6,...,6` in process: ten d6 per product draw."""

    name = "roll-plan-cli"
    dice = 10

    def __init__(self, count: int = 1_000, min_ops: int = 100) -> None:
        self.count = count
        self.rolls_per_op = count * self.dice
        self.min_ops = min_ops
        self.die_ranges = [(6 ** self.dice, count)]
        self._plan = ",".join(["6"] * self.dice)

    def prepare(self, seed):
        return ["roll", "--plan", self._plan, "-c", str(self.count),
                "--source", "seeded", "--seed", str(seed)]

    def call(self, argv):
        return cli.main(argv)

    def observe(self, rc, text):
        if rc != 0:
            raise ValueError(f"roll exited with {rc}")
        return reference.digest(text.encode()), -1, 0.0

    def expect(self, seed):
        text, bits, counts = reference.plan_rolls(6, self.dice, self.count, seed)
        return reference.digest(text.encode()), bits, counts

    def program_bits(self, seed):
        """Replays the CLI's call sequence through a counting source."""
        source = CountingSource(SeededSource(seed))
        pool = dicepool.EntropyPool()
        plan = dicepool.RadixPlan([6] * self.dice)
        for _ in range(self.count):
            dicepool.roll_batch(pool, plan, source)
        return source.bits_delivered


WORKLOADS = {w.name: w for w in (BenchD6, Shuffle52, RollPlanCli)}


class OpLog:
    """Per-op observations in flat arrays, so the log barely adds to RSS."""

    def __init__(self) -> None:
        self.seeds = array("Q")
        self.latency_ns = array("q")
        self.digest = array("Q")
        self.bits = array("q")
        self.pool_left = array("d")
        self.nbytes = array("q")
        self.errors = 0           # ops that raised or printed something unreadable
        self.first_error = ""

    def __len__(self) -> int:
        return len(self.seeds)


def run_op(workload: Workload, seed: int, sink: Sink, log: OpLog, clock) -> None:
    """One closed-loop op: prepare, time the call, then record its output."""
    prepared = workload.prepare(seed)
    t0 = clock()
    try:
        result = workload.call(prepared)
    except Exception as exc:  # a failed op is counted and the run goes on
        result = exc
    t1 = clock()
    text = sink.take()
    try:
        if isinstance(result, Exception):
            raise ValueError(f"op raised {result!r}")
        digest, bits, pool_left = workload.observe(result, text)
    except ValueError as exc:
        log.errors += 1
        log.first_error = log.first_error or str(exc)
        digest, bits, pool_left = 0, -1, 0.0
    log.seeds.append(seed)
    log.latency_ns.append(t1 - t0)
    log.digest.append(digest)
    log.bits.append(bits)
    log.pool_left.append(pool_left)
    log.nbytes.append(len(text))


def check(workload: Workload, log: OpLog) -> list[bool]:
    """Compare every op with the reference; True where the op is correct.

    Fills in `log.bits` for ops whose call hides its source.
    """
    ok = []
    samples = []
    for i, seed in enumerate(log.seeds):
        digest, bits, sample = workload.expect(seed)
        if log.bits[i] < 0 and log.digest[i]:
            log.bits[i] = workload.program_bits(seed)
        ok.append(log.digest[i] == digest and log.bits[i] == bits)
        samples.append(sample)
    for i in workload.band_failures(samples):
        ok[i] = False
    return ok
