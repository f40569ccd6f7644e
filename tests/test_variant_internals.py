"""White-box tests of variant node mechanics."""

import math

import pytest

from repro.core.node import RATE_RESET_ALARM, SEND_ALARM
from repro.core.params import SyncParams
from repro.sim.delays import ConstantDelay
from repro.sim.drift import PerNodeDrift
from repro.sim.engine import SimulationEngine
from repro.topology.generators import line
from repro.variants import (
    BitBudgetAoptAlgorithm,
    ExternalAoptAlgorithm,
    HardwareEnvelopeAoptAlgorithm,
    MinGapAoptAlgorithm,
    bit_budget_params,
)
from repro.variants.bit_budget import _BitBudgetNode
from repro.variants.discrete import _DiscreteNode
from repro.variants.external import _ExternalNode, _SourceNode
from tests.test_engine_parity import _rate_rule_spec


def run_engine(topology, algorithm, drift, delay, horizon):
    engine = SimulationEngine(topology, algorithm, drift, delay, horizon)
    trace = engine.run()
    return engine, trace


class TestExternalInternals:
    def test_damped_lmax_growth(self, params):
        node = _ExternalNode(1, (0,), params)
        node._lmax_value = 10.0
        node._lmax_anchor = 5.0
        expected = 10.0 + (8.0 - 5.0) / (1 + params.epsilon_hat)
        assert node.l_max(8.0) == pytest.approx(expected)

    def test_source_never_boosts(self, params):
        drift = PerNodeDrift(params.epsilon, {0: 1.0}, default=1 - params.epsilon)
        engine, trace = run_engine(
            line(3), ExternalAoptAlgorithm(params, source=0), drift,
            ConstantDelay(params.delay_bound), 100.0,
        )
        assert isinstance(engine.node_state(0), _SourceNode)
        for t in (10.0, 50.0, 99.0):
            assert trace.logical[0].multiplier_at(t) == 1.0

    def test_followers_enter_damped_tracking(self, params):
        """Once caught up to the damped L^max, followers run at 1/(1+eps)."""
        drift = PerNodeDrift(params.epsilon, {0: 1.0}, default=1.0)
        engine, trace = run_engine(
            line(2), ExternalAoptAlgorithm(params, source=0), drift,
            ConstantDelay(0.01, max_delay=params.delay_bound), 200.0,
        )
        damped = 1 / (1 + params.epsilon_hat)
        multipliers = {trace.logical[1].multiplier_at(t) for t in (150.0, 199.0)}
        assert damped in multipliers


class TestHardwareEnvelopeInternals:
    def test_lmax_factor_switches(self, monkeypatch):
        """A damped L^max that decays to H_v returns to lockstep (factor 1)
        through ``lmax-cross``, at the instant L^max meets H_v."""
        from repro.variants.envelope import LMAX_CROSS_ALARM, _HardwareEnvelopeNode

        crossings = []
        on_alarm = _HardwareEnvelopeNode.on_alarm

        def recording(node, ctx, name):
            hardware_now = ctx.hardware()
            factor_before = node._lmax_factor
            lmax_before = node.l_max(hardware_now)
            on_alarm(node, ctx, name)
            if name == LMAX_CROSS_ALARM:
                crossings.append((
                    node._damped, factor_before, node._lmax_factor,
                    lmax_before, node.l_max(hardware_now), hardware_now,
                ))

        monkeypatch.setattr(_HardwareEnvelopeNode, "on_alarm", recording)
        # The fast node 1 lifts the others' L^max above their hardware
        # clocks; where no newer estimate lifts it again (node 0, and
        # nodes 3-5 while the middle edge is down), it decays to H_v.
        _rate_rule_spec("aopt-hw-envelope").run()
        assert crossings, "lmax-cross never fired"
        for damped, before, after, lmax_before, lmax_after, hardware in crossings:
            assert (before, after) == (damped, 1.0)
            assert lmax_before == pytest.approx(hardware, abs=1e-9)
            assert lmax_after == hardware

    def test_damped_factor_formula(self, params):
        from repro.variants.envelope import _HardwareEnvelopeNode

        node = _HardwareEnvelopeNode(0, (1,), params)
        expected = (1 - params.epsilon_hat) / (1 + params.epsilon_hat)
        assert node._damped == pytest.approx(expected)


class TestBitBudgetInternals:
    @pytest.fixture
    def node(self):
        params = bit_budget_params(0.05, 1.0)
        return _BitBudgetNode(0, (1,), params)

    def test_cap_units_formula(self, node):
        params = node.params
        expected = math.ceil(
            (1 + params.epsilon_hat) * (1 + params.mu) / (1 - params.epsilon_hat)
        )
        assert node._cap_units == expected

    def test_first_encode_is_full_init(self, node):
        class Ctx:
            def logical(self):
                return 3.25

            def hardware(self):
                return 4.0

        payload = node._encode(Ctx())
        assert payload[0] == "init"
        assert payload[1] == pytest.approx(3.25)

    def test_delta_encoding_accumulates(self, node):
        class Ctx:
            def __init__(self):
                self.t = 0.0

            def logical(self):
                return self.t

            def hardware(self):
                return self.t

        ctx = Ctx()
        node._encode(ctx)  # init at 0
        ctx.t = 5.0
        kind, delta_steps, _ = node._encode(ctx)
        assert kind == "delta"
        quantum = node._quantum
        assert delta_steps == int(5.0 / quantum)
        # The receiver-side reconstruction never overestimates.
        assert node._sent_logical_base <= 5.0 + 1e-9

    def test_lmax_increment_capped(self, node):
        class Ctx:
            def logical(self):
                return 0.0

            def hardware(self):
                return 0.0

        node._encode(Ctx())  # init
        # Pretend L^max leapt by many multiples of H0.
        node._lmax_value = 50 * node.params.h0
        node._lmax_anchor = 0.0

        class Ctx2(Ctx):
            pass

        _, _, lmax_step = node._encode(Ctx2())
        assert lmax_step == node._cap_units  # capped, remainder carried
        _, _, second_step = node._encode(Ctx2())
        assert second_step == node._cap_units  # carry drains over messages

    def test_payload_bits_accounting(self):
        params = bit_budget_params(0.05, 1.0)
        algo = BitBudgetAoptAlgorithm(params)
        assert algo.payload_bits(("init", 0.0, 0)) == 129
        assert algo.payload_bits(("delta", 3, 1)) == algo.steady_state_bits()
        assert algo.steady_state_bits() < 20


class TestDiscreteTickContext:
    """The discrete node's tick rounding, through the three methods it
    overrides: ``_arm_send_alarm``, ``_boost`` and ``_send``."""

    class FakeInner:
        """The context calls those three methods make, and no others."""

        def __init__(self, hardware, logical=0.0):
            self._hardware = hardware
            self._logical = logical
            self.alarms = {}
            self.sent = []

        def hardware(self):
            return self._hardware

        def logical(self):
            return self._logical

        def set_rate_multiplier(self, rho):
            self.rho = rho

        def send_all(self, payload):
            self.sent.append(("all", payload))

        def set_alarm(self, name, value):
            self.alarms[name] = value

    @staticmethod
    def node(params):
        return _DiscreteNode(0, (1,), params, tick=0.25)

    def arm_alarms(self, params, target):
        """Arm the send alarm and a boost's rate reset, both at ``target``."""
        inner = self.FakeInner(1.0)
        node = self.node(params)
        node._lmax_value = 1.0
        node._lmax_anchor = 1.0
        node._next_mark = target
        node._arm_send_alarm(inner, 1.0)
        node._boost(inner, 1.0, (target - 1.0) * params.mu, headroom=1.0)
        return inner.alarms

    def test_alarm_rounded_up(self, params):
        alarms = self.arm_alarms(params, 1.01)
        assert alarms[SEND_ALARM] == pytest.approx(1.25)
        assert alarms[RATE_RESET_ALARM] == pytest.approx(1.25)

    def test_exact_tick_not_moved(self, params):
        alarms = self.arm_alarms(params, 1.5)
        assert alarms[SEND_ALARM] == pytest.approx(1.5)
        assert alarms[RATE_RESET_ALARM] == pytest.approx(1.5)

    def test_payload_floored(self, params):
        inner = self.FakeInner(1.03, logical=1.93)
        node = self.node(params)
        node._lmax_value = 2.49
        node._lmax_anchor = 1.03
        node._send(inner, 1.03)
        assert inner.sent == [("all", (1.75, 2.25))]


class TestMinGapInternals:
    def test_pending_send_collapses_bursts(self, params):
        """Many forwarded estimates inside one gap produce one deferred send."""
        drift = PerNodeDrift(params.epsilon, {0: 1 + params.epsilon}, default=1.0)
        engine, trace = run_engine(
            line(3), MinGapAoptAlgorithm(params), drift,
            ConstantDelay(0.01, max_delay=params.delay_bound), 150.0,
        )
        for node in range(3):
            active_hw = trace.hardware_value(node, 150.0)
            per_neighbor = trace.messages_sent[node] / len(
                line(3).neighbors(node)
            )
            assert per_neighbor <= active_hw / params.h0 + 2
