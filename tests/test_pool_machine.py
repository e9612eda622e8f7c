"""One pool driven by a random mix of calls, against a model of the pool.

The live pool takes `roll`, `roll_many` (over a list of dice, or one
die `count` times), `roll_batch`, `top_off`, `roll_step` and a snapshot
restored into a fresh pool, in any order, on one tape. The model is a second pool on a copy of the tape that only
ever advances through the reference pool of `pool_oracle`: its refill,
written out there and never `top_off`, and `roll_step` passes until one
accepts, with batch digits decoded by `decode_mixed_radix`, one
`reference_batch` per draw of a `roll_batch` call. After every
call both must give the same outcome or EntropyExhausted, the same
snapshot, the same bits drawn and the same tape bits left, and the live
state must satisfy 0 <= value < size <= 2**word_bits.
"""
import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from dicepool import EntropyPool, RadixPlan, TapeSource, roll_batch
from pool_oracle import (dice, observe, reference_batches, reference_many, reference_roll,
                         reference_top_off)


class PoolMachine(RuleBasedStateMachine):
    @initialize(data=st.data())
    def start(self, data):
        word_bits = data.draw(st.one_of(st.integers(1, 130), st.sampled_from([13, 64])))
        chunk_bits = data.draw(st.integers(1, word_bits))
        size = data.draw(st.one_of(st.just(1), st.integers(1, 1 << word_bits)))
        snap = (size, data.draw(st.integers(0, size - 1)), word_bits, chunk_bits)
        tape = data.draw(st.binary(max_size=120))
        self.pool, self.model = EntropyPool.from_snapshot(snap), EntropyPool.from_snapshot(snap)
        self.source, self.reference = TapeSource(tape), TapeSource(tape)
        self.restored_bits = 0  # bits drawn by the pools a restore replaced

    def check(self, call, model_call):
        outcome, snap, drawn, left = observe(call, self.pool, self.source)
        assert (outcome, snap, self.restored_bits + drawn, left) == observe(
            model_call, self.model, self.reference)

    @rule(data=st.data())
    def roll(self, data):
        sides = data.draw(dice(self.pool.refill_ceiling))
        self.check(lambda: self.pool.roll(sides, self.source),
                   lambda: reference_roll(self.model, sides, self.reference))

    @rule(data=st.data())
    def roll_many(self, data):
        sides = data.draw(st.lists(dice(self.pool.refill_ceiling), max_size=8))
        got, want = [], []
        self.check(lambda: self.pool.roll_many(iter(sides), self.source, got),
                   lambda: reference_many(self.model, sides, self.reference, want))
        assert got == want  # also the outcomes rolled before the tape ran out

    @rule(data=st.data())
    def roll_run(self, data):
        ceiling = self.pool.refill_ceiling
        sides = data.draw(st.one_of(st.integers(1, min(ceiling, 16)), dice(ceiling)))
        count = data.draw(st.integers(0, 12))
        got, want = [], []
        self.check(lambda: self.pool.roll_many(sides, self.source, got, count=count),
                   lambda: reference_many(self.model, [sides] * count, self.reference, want))
        assert got == want  # also the outcomes rolled before the tape ran out

    @rule(data=st.data())
    def batch(self, data):
        ceiling, ranges = self.pool.refill_ceiling, []
        for n in data.draw(st.lists(st.integers(1, 64), max_size=6)):
            if math.prod(ranges) * n <= ceiling:
                ranges.append(n)
        plan, count = RadixPlan(ranges), data.draw(st.integers(0, 4))
        got, want = [], []
        self.check(lambda: roll_batch(self.pool, plan, self.source, count, got),
                   lambda: reference_batches(self.model, ranges, self.reference, count, want))
        assert got == want  # also the digits drawn before the tape ran out

    @rule()
    def top_off(self):
        self.check(lambda: self.pool.top_off(self.source),
                   lambda: reference_top_off(self.model, self.reference))

    @rule(data=st.data())
    def roll_step(self, data):
        sides = data.draw(dice(self.pool.refill_ceiling))
        self.check(lambda: self.pool.roll_step(sides), lambda: self.model.roll_step(sides))

    @rule()
    def restore(self):
        self.restored_bits += self.pool.bits_drawn
        self.pool = EntropyPool.from_snapshot(self.pool.snapshot())
        self.check(lambda: None, lambda: None)

    @invariant()
    def state_is_valid(self):
        assert 0 <= self.pool.value < self.pool.size <= 1 << self.pool.word_bits


TestPoolMachine = PoolMachine.TestCase
TestPoolMachine.settings = settings(max_examples=100, stateful_step_count=30,
                                    deadline=None)
