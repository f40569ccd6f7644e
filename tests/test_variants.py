"""Tests for the §6 and §8 model variants."""

import math

import pytest

from repro.analysis.complexity import bit_stats
from repro.analysis.metrics import check_envelope
from repro.core.bounds import global_skew_bound
from repro.core.node import AoptAlgorithm
from repro.core.params import SyncParams
from repro.errors import ConfigurationError
from repro.sim.delays import ConstantDelay, UniformDelay
from repro.sim.drift import ConstantDrift, PerNodeDrift, TwoGroupDrift
from repro.sim.runner import run_execution
from repro.topology.generators import line, star
from repro.variants import (
    BitBudgetAoptAlgorithm,
    BoundedDelayAoptAlgorithm,
    DiscreteAoptAlgorithm,
    ExternalAoptAlgorithm,
    HardwareEnvelopeAoptAlgorithm,
    MinGapAoptAlgorithm,
    bit_budget_params,
    bounded_delay_params,
    discrete_params,
)

EPSILON = 0.05
DELAY = 1.0


@pytest.fixture
def drift():
    return TwoGroupDrift(EPSILON, [0, 1, 2])


@pytest.fixture
def delay():
    return ConstantDelay(DELAY)


class TestMinGap:
    def test_hard_frequency_bound(self, params, drift, delay):
        """§6.1: at most one send per H0 of hardware time, guaranteed."""
        horizon = 200.0
        trace = run_execution(line(6), MinGapAoptAlgorithm(params), drift, delay, horizon)
        for node in range(6):
            active_hw = trace.hardware_value(node, horizon)
            max_sends = active_hw / params.h0 + 2
            assert trace.messages_sent[node] <= len(line(6).neighbors(node)) * max_sends

    def test_skews_remain_bounded(self, params, drift, delay):
        trace = run_execution(line(6), MinGapAoptAlgorithm(params), drift, delay, 200.0)
        # §6.1: global skew grows by O(eps D H0) over the plain bound.
        slack = 2 * EPSILON * 5 * params.h0 * 4
        assert trace.global_skew().value <= global_skew_bound(params, 5) + slack

    def test_envelope_preserved(self, params, drift, delay):
        trace = run_execution(line(5), MinGapAoptAlgorithm(params), drift, delay, 150.0)
        assert check_envelope(trace, EPSILON) <= 1e-7


class TestBitBudget:
    def test_steady_state_bits_constant(self, drift, delay):
        params = bit_budget_params(EPSILON, DELAY)
        algo = BitBudgetAoptAlgorithm(params)
        trace = run_execution(line(6), algo, drift, delay, 200.0, record_messages=True)
        steady = [m for m in trace.message_log if m.payload[0] == "delta"]
        assert steady
        assert all(m.size_bits == algo.steady_state_bits() for m in steady)
        assert algo.steady_state_bits() <= 16

    def test_init_messages_amortize(self, drift, delay):
        params = bit_budget_params(EPSILON, DELAY)
        algo = BitBudgetAoptAlgorithm(params)
        trace = run_execution(line(6), algo, drift, delay, 300.0, record_messages=True)
        inits = [m for m in trace.message_log if m.payload[0] == "init"]
        # One init per directed edge.
        assert len(inits) == 2 * len(line(6).edges())

    def test_mean_bits_small(self, drift, delay):
        params = bit_budget_params(EPSILON, DELAY)
        algo = BitBudgetAoptAlgorithm(params)
        trace = run_execution(line(6), algo, drift, delay, 300.0, record_messages=True)
        stats = bit_stats(trace)
        assert stats.mean_bits_per_message < 12

    def test_skews_match_plain_aopt_shape(self, drift, delay):
        params = bit_budget_params(EPSILON, DELAY)
        trace = run_execution(
            line(6), BitBudgetAoptAlgorithm(params), drift, delay, 200.0
        )
        plain_params = SyncParams.recommended(epsilon=EPSILON, delay_bound=DELAY)
        plain = run_execution(
            line(6), AoptAlgorithm(plain_params), drift, delay, 200.0
        )
        assert trace.global_skew().value <= plain.global_skew().value * 1.3 + 1.0

    def test_envelope_preserved(self, drift, delay):
        params = bit_budget_params(EPSILON, DELAY)
        trace = run_execution(
            line(5), BitBudgetAoptAlgorithm(params), drift, delay, 150.0
        )
        assert check_envelope(trace, EPSILON) <= 1e-7

    def test_reconstruction_tracks_true_values(self, drift, delay):
        """Receiver-side reconstruction lags the truth by at most ~q + cap."""
        params = bit_budget_params(EPSILON, DELAY)
        algo = BitBudgetAoptAlgorithm(params)
        from repro.sim.engine import SimulationEngine

        engine = SimulationEngine(line(3), algo, drift, delay, 150.0)
        trace = engine.run()
        node = engine.node_state(1)
        for neighbor in (0, 2):
            reconstructed = node._their_logical.get(neighbor)
            assert reconstructed is not None
            truth_at_end = trace.logical_value(neighbor, 150.0)
            assert reconstructed <= truth_at_end + 1e-6


class TestBoundedDelays:
    def test_params_use_uncertainty(self):
        params = bounded_delay_params(EPSILON, min_delay=5.0, max_delay=6.0)
        assert params.delay_bound == pytest.approx(1.0)

    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigurationError):
            bounded_delay_params(EPSILON, min_delay=3.0, max_delay=2.0)
        with pytest.raises(ConfigurationError):
            BoundedDelayAoptAlgorithm(
                bounded_delay_params(EPSILON, 0.0, 1.0), min_delay=-1.0
            )

    def test_compensation_improves_over_plain(self, drift):
        """Compensating T1 must beat treating [T1, T2] as [0, T2]."""
        t1, t2 = 4.0, 5.0
        channel = UniformDelay(t1, t2, seed=3, max_delay=t2)
        horizon = 400.0
        compensated_params = bounded_delay_params(EPSILON, t1, t2)
        compensated = run_execution(
            line(6),
            BoundedDelayAoptAlgorithm(compensated_params, min_delay=t1),
            drift,
            channel,
            horizon,
        )
        naive_params = SyncParams.recommended(epsilon=EPSILON, delay_bound=t2)
        naive = run_execution(
            line(6), AoptAlgorithm(naive_params), drift, channel, horizon
        )
        # Compare steady-state skew (after initialization transients).
        t_probe = horizon - 1.0
        compensated_spread = compensated.spread_at(t_probe)
        naive_spread = naive.spread_at(t_probe)
        assert compensated_spread < naive_spread

    def test_envelope_preserved(self, drift):
        t1, t2 = 2.0, 3.0
        params = bounded_delay_params(EPSILON, t1, t2)
        trace = run_execution(
            line(4),
            BoundedDelayAoptAlgorithm(params, min_delay=t1),
            drift,
            ConstantDelay(t2),
            200.0,
        )
        assert check_envelope(trace, EPSILON) <= 1e-7


class TestDiscrete:
    def test_params_enlarge_kappa(self):
        base = SyncParams.recommended(epsilon=EPSILON, delay_bound=DELAY)
        quantized = discrete_params(EPSILON, DELAY, frequency=8.0)
        assert quantized.kappa > base.kappa

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ConfigurationError):
            discrete_params(EPSILON, DELAY, frequency=0.0)
        with pytest.raises(ConfigurationError):
            DiscreteAoptAlgorithm(
                SyncParams.recommended(epsilon=EPSILON, delay_bound=DELAY), 0.0
            )

    @pytest.mark.parametrize("frequency", [math.nan, math.inf])
    def test_non_finite_frequency_rejected_by_algorithm(self, frequency):
        params = SyncParams.recommended(epsilon=EPSILON, delay_bound=DELAY)
        with pytest.raises(ConfigurationError):
            DiscreteAoptAlgorithm(params, frequency=frequency)

    @pytest.mark.parametrize("frequency", [math.nan, math.inf])
    def test_non_finite_frequency_rejected_by_params(self, frequency):
        with pytest.raises(ConfigurationError):
            discrete_params(EPSILON, DELAY, frequency)

    def test_sent_values_are_tick_multiples(self, drift, delay):
        frequency = 8.0
        params = discrete_params(EPSILON, DELAY, frequency=frequency)
        trace = run_execution(
            line(4), DiscreteAoptAlgorithm(params, frequency), drift, delay,
            120.0, record_messages=True,
        )
        tick = 1.0 / frequency
        for message in trace.message_log:
            for value in message.payload:
                remainder = (value / tick) % 1.0
                assert min(remainder, 1 - remainder) < 1e-6

    def test_fine_ticks_approach_continuous(self, drift, delay):
        coarse_params = discrete_params(EPSILON, DELAY, frequency=2.0)
        fine_params = discrete_params(EPSILON, DELAY, frequency=256.0)
        coarse = run_execution(
            line(5), DiscreteAoptAlgorithm(coarse_params, 2.0), drift, delay, 150.0
        )
        fine = run_execution(
            line(5), DiscreteAoptAlgorithm(fine_params, 256.0), drift, delay, 150.0
        )
        assert fine.local_skew().value <= coarse.local_skew().value + 1e-6


class TestExternal:
    def make_drift(self):
        # Source (node 0) must run at exactly real time.
        return PerNodeDrift(EPSILON, {0: 1.0}, default=1 - EPSILON)

    def test_never_ahead_of_real_time(self, params, delay):
        trace = run_execution(
            line(5), ExternalAoptAlgorithm(params, source=0),
            self.make_drift(), delay, 200.0, initiators=[0],
        )
        for node in range(5):
            for t in (50.0, 120.0, 199.0):
                assert trace.logical_value(node, t) <= t + 1e-7

    def test_skew_to_source_linear_in_distance(self, params, delay):
        trace = run_execution(
            line(5), ExternalAoptAlgorithm(params, source=0),
            self.make_drift(), delay, 300.0, initiators=[0],
        )
        t = 299.0
        for node in range(1, 5):
            lag = t - trace.logical_value(node, t)
            # t - L_v <= d(v, v0) T + O(tau): generous constant for tau.
            assert lag <= node * DELAY + 3 * params.h0 + params.kappa

    def test_source_is_identity_clock(self, params, delay):
        trace = run_execution(
            line(4), ExternalAoptAlgorithm(params, source=0),
            self.make_drift(), delay, 100.0, initiators=[0],
        )
        assert trace.logical_value(0, 77.0) == pytest.approx(77.0)

    def test_invalid_period_rejected(self, params):
        with pytest.raises(ConfigurationError):
            ExternalAoptAlgorithm(params, source=0, source_period=0.0)

    @pytest.mark.parametrize("period", [math.nan, math.inf])
    def test_non_finite_period_rejected(self, params, period):
        with pytest.raises(ConfigurationError):
            ExternalAoptAlgorithm(params, source=0, source_period=period)

    def test_star_topology(self, params, delay):
        trace = run_execution(
            star(5), ExternalAoptAlgorithm(params, source=0),
            self.make_drift(), delay, 150.0, initiators=[0],
        )
        for node in range(5):
            assert trace.logical_value(node, 149.0) <= 149.0 + 1e-7


class TestHardwareEnvelope:
    def test_stays_inside_hardware_envelope(self, params, drift, delay):
        trace = run_execution(
            line(5), HardwareEnvelopeAoptAlgorithm(params), drift, delay, 200.0
        )
        for t in (20.0, 75.0, 140.0, 199.0):
            hardware_values = [trace.hardware_value(n, t) for n in range(5)]
            low, high = min(hardware_values), max(hardware_values)
            for node in range(5):
                logical = trace.logical_value(node, t)
                assert low - 1e-6 <= logical <= high + 1e-6

    def test_logical_at_least_own_hardware(self, params, drift, delay):
        """The invariant L_v >= H_v behind the lower-envelope argument."""
        trace = run_execution(
            line(5), HardwareEnvelopeAoptAlgorithm(params), drift, delay, 200.0
        )
        for node in range(5):
            for t in (30.0, 90.0, 199.0):
                assert (
                    trace.logical_value(node, t)
                    >= trace.hardware_value(node, t) - 1e-6
                )

    def test_still_synchronizes(self, params, drift, delay):
        trace = run_execution(
            line(5), HardwareEnvelopeAoptAlgorithm(params), drift, delay, 200.0
        )
        free_running = 2 * EPSILON * 200.0
        assert trace.global_skew().value < free_running
