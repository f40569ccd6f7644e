"""Deeper exactness properties of the trace evaluation.

These complement test_trace.py: the *local* skew and per-pair extrema are
cross-checked against dense sampling on randomized executions of the real
algorithm (not just hand-built records), and the convexity argument for
the spread is exercised at interior crossing points.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.node import AoptAlgorithm
from repro.core.params import SyncParams
from repro.sim.delays import UniformDelay
from repro.sim.drift import RandomWalkDrift
from repro.sim.runner import run_execution
from repro.topology.generators import line, ring

# The dense-sampling oracles here check the one skew fold independently,
# so they run with the engine-parity suite (`make test-parity`).
pytestmark = pytest.mark.parity


def randomized_trace(seed: int, topology, horizon=60.0):
    params = SyncParams.recommended(epsilon=0.08, delay_bound=1.0)
    return run_execution(
        topology,
        AoptAlgorithm(params),
        RandomWalkDrift(0.08, step_period=3.0, step_size=0.05, seed=seed),
        UniformDelay(0.0, 1.0, seed=seed),
        horizon,
    )


class TestLocalSkewExactness:
    @given(seed=st.integers(0, 1000))
    @settings(max_examples=8, deadline=None)
    def test_local_skew_dominates_dense_sampling(self, seed):
        trace = randomized_trace(seed, ring(5))
        reported = trace.local_skew().value
        rng = random.Random(seed)
        for _ in range(300):
            t = rng.uniform(0.0, trace.horizon)
            for a, b in trace.topology.edges():
                assert abs(trace.skew(a, b, t)) <= reported + 1e-9

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=8, deadline=None)
    def test_pair_skew_dominates_dense_sampling(self, seed):
        trace = randomized_trace(seed, line(4))
        reported = trace.max_pair_skew(0, 3).value
        rng = random.Random(seed)
        for _ in range(300):
            t = rng.uniform(0.0, trace.horizon)
            assert abs(trace.skew(0, 3, t)) <= reported + 1e-9

    def test_extremum_time_is_attained(self):
        trace = randomized_trace(3, line(4))
        extremum = trace.global_skew()
        # Evaluating at the reported time reproduces the reported value
        # (up to the left/right limit choice).
        values = [trace.logical[n].value(extremum.time) for n in trace.logical]
        left = [trace.logical[n].value_left(extremum.time) for n in trace.logical]
        spread = max(max(values) - min(values), max(left) - min(left))
        assert spread == pytest.approx(extremum.value, abs=1e-9)

    def test_windowed_extrema_nest(self):
        """max over [a, b] ≤ max over [0, horizon] and windows tile."""
        trace = randomized_trace(5, line(5))
        full = trace.global_skew().value
        halves = [
            trace.global_skew(0.0, trace.horizon / 2).value,
            trace.global_skew(trace.horizon / 2, trace.horizon).value,
        ]
        assert max(halves) == pytest.approx(full, abs=1e-9)
        assert all(h <= full + 1e-12 for h in halves)


class TestSkewSymmetry:
    def test_pair_skew_symmetric(self):
        trace = randomized_trace(7, line(4))
        forward = trace.max_pair_skew(0, 3)
        backward = trace.max_pair_skew(3, 0)
        assert forward.value == pytest.approx(backward.value)

    def test_global_skew_at_least_local(self):
        trace = randomized_trace(9, ring(6))
        assert trace.global_skew().value >= trace.local_skew().value - 1e-12
