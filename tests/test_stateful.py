"""Stateful (model-based) property tests with hypothesis.

Random interleaved operation sequences against
:class:`LogicalClockRecord`, with invariants checked after every step:
monotone under positive rates; value and left-limit agree except at
jumps; multiplier reads back.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.sim.clock import HardwareClock
from repro.sim.rates import PiecewiseConstantRate
from repro.sim.trace import LogicalClockRecord


class RecordMachine(RuleBasedStateMachine):
    """Drive a LogicalClockRecord with random checkpoints and jumps."""

    def __init__(self):
        super().__init__()
        rates = PiecewiseConstantRate([0.0, 7.0, 13.0], [1.0, 0.9, 1.1])
        self.record = LogicalClockRecord(HardwareClock(rates))
        self.now = 0.0
        self.observations = [(0.0, 0.0)]

    @rule(advance=st.floats(0.01, 5.0))
    def pass_time(self, advance):
        self.now += advance
        self.observations.append((self.now, self.record.value(self.now)))

    @rule(multiplier=st.sampled_from([1.0, 1.2, 1.7, 2.0]))
    def change_rate(self, multiplier):
        self.record.checkpoint(self.now, multiplier)

    @rule(bump=st.floats(0.0, 3.0))
    def jump(self, bump):
        self.record.jump(self.now, self.record.value(self.now) + bump)

    @invariant()
    def values_monotone(self):
        values = [v for _, v in self.observations]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    @invariant()
    def left_limit_never_exceeds_value(self):
        assert self.record.value_left(self.now) <= self.record.value(self.now) + 1e-9

    @invariant()
    def rate_positive(self):
        assert self.record.rate_at(self.now) > 0


RecordMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestRecordMachine = RecordMachine.TestCase
