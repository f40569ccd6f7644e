"""Unit tests for the simulation engine."""

import pytest

from repro.core.interfaces import Algorithm, AlgorithmNode
from repro.errors import SimulationError
from repro.sim.delays import ConstantDelay, FunctionDelay
from repro.sim.drift import ConstantDrift
from repro.sim.engine import SimulationEngine
from repro.topology.generators import line, star


class Recorder(AlgorithmNode):
    """Scripted node used to probe engine behaviour."""

    def __init__(self):
        self.events = []

    def on_start(self, ctx):
        self.events.append(("start", ctx.hardware()))

    def on_message(self, ctx, sender, payload):
        self.events.append(("msg", sender, payload))

    def on_alarm(self, ctx, name):
        self.events.append(("alarm", name, ctx.hardware()))


class ScriptedAlgorithm(Algorithm):
    """Runs a user function inside each callback for white-box tests."""

    allows_jumps = False
    name = "scripted"

    def __init__(self, on_start=None, on_message=None, on_alarm=None):
        self._hooks = (on_start, on_message, on_alarm)
        self.nodes = {}

    def make_node(self, node_id, neighbors):
        on_start, on_message, on_alarm = self._hooks
        outer = self

        class _Node(Recorder):
            def on_start(self, ctx):
                super().on_start(ctx)
                if on_start:
                    on_start(self, ctx)

            def on_message(self, ctx, sender, payload):
                super().on_message(ctx, sender, payload)
                if on_message:
                    on_message(self, ctx, sender, payload)

            def on_alarm(self, ctx, name):
                super().on_alarm(ctx, name)
                if on_alarm:
                    on_alarm(self, ctx, name)

        node = _Node()
        outer.nodes[node_id] = node
        return node


def run(topology, algorithm, horizon=10.0, delay=0.5, **kwargs):
    engine = SimulationEngine(
        topology,
        algorithm,
        ConstantDrift(0.01),
        ConstantDelay(delay),
        horizon,
        **kwargs,
    )
    return engine, engine.run()


class TestInitialization:
    def test_default_initiator_is_first_node(self):
        algo = ScriptedAlgorithm(
            on_start=lambda node, ctx: ctx.send_all(("hello",))
        )
        _, trace = run(line(3), algo)
        assert trace.start_times[0] == 0.0
        assert trace.start_times[1] == pytest.approx(0.5)
        assert trace.start_times[2] == pytest.approx(1.0)

    def test_explicit_initiators(self):
        algo = ScriptedAlgorithm(on_start=lambda node, ctx: ctx.send_all(("x",)))
        engine = SimulationEngine(
            line(3), algo, ConstantDrift(0.01), ConstantDelay(0.5), 10.0,
            initiators={2: 1.5},
        )
        trace = engine.run()
        assert trace.start_times[2] == 1.5
        assert trace.start_times[0] == pytest.approx(2.5)

    def test_unstarted_nodes_raise(self):
        algo = ScriptedAlgorithm()  # never sends, so others never start
        with pytest.raises(SimulationError, match="never initialized"):
            run(line(3), algo)

    def test_no_initiators_rejected(self):
        with pytest.raises(SimulationError):
            SimulationEngine(
                line(2), ScriptedAlgorithm(), ConstantDrift(0.01),
                ConstantDelay(0.1), 10.0, initiators=[],
            )

    def test_message_wakes_then_delivers(self):
        algo = ScriptedAlgorithm(on_start=lambda node, ctx: ctx.send_all(("x",)))
        _, _trace = run(line(2), algo)
        woken = algo.nodes[1]
        assert woken.events[0][0] == "start"
        assert woken.events[1][0] == "msg"


class TestMessaging:
    def test_delivery_after_delay(self):
        received_at = []

        def on_message(node, ctx, sender, payload):
            received_at.append(ctx.hardware())

        algo = ScriptedAlgorithm(
            on_start=lambda node, ctx: ctx.send_all(("x",)) if ctx.node_id == 0 else None,
            on_message=on_message,
        )
        run(line(2), algo, delay=0.5)
        # Receiver's hardware started at delivery, so reads 0 at delivery.
        assert received_at[0] == pytest.approx(0.0)

    def test_send_to_non_neighbor_rejected(self):
        algo = ScriptedAlgorithm(on_start=lambda node, ctx: ctx.send_to(2, ("x",)))
        with pytest.raises(SimulationError, match="non-neighbor"):
            run(line(3), algo)

    def test_counters(self):
        algo = ScriptedAlgorithm(on_start=lambda node, ctx: ctx.send_all(("x",)))
        _, trace = run(star(4), algo)
        assert trace.messages_sent[0] == 3
        # Each leaf starts upon receipt and sends back to the hub.
        assert trace.messages_received[0] == 3
        assert trace.total_messages() == 6

    def test_record_messages(self):
        algo = ScriptedAlgorithm(on_start=lambda node, ctx: ctx.send_all(("x",)))
        _, trace = run(line(2), algo, record_messages=True)
        assert len(trace.message_log) == 2
        assert trace.message_log[0].sender == 0
        assert trace.message_log[0].delay == pytest.approx(0.5)

    def test_payload_bits_charged(self):
        algo = ScriptedAlgorithm(on_start=lambda node, ctx: ctx.send_all((1.0, 2.0)))
        _, trace = run(line(2), algo)
        assert trace.bits_sent[0] == 128


@pytest.mark.faults
class TestDropAccounting:
    """Exact bookkeeping of messages the delay model refuses to deliver."""

    def test_single_message_drop_counted(self):
        from repro.faults.hashing import stable_uniform
        from repro.sim.delays import LossyDelay

        # The one message sent is (0 -> 1, send_time=0.0, seq=0); pick a
        # loss probability just above its hash value so the drop verdict
        # is deterministic.
        u = stable_uniform(0, "loss", 0, 1, 0.0, 0)
        algo = ScriptedAlgorithm(
            on_start=lambda node, ctx: (
                ctx.send_all(("x",)) if ctx.node_id == 0 else None
            )
        )
        engine = SimulationEngine(
            line(2), algo, ConstantDrift(0.01),
            LossyDelay(ConstantDelay(0.5), loss=min(u * 1.01, 0.999)),
            10.0, initiators={0: 0.0, 1: 0.0},
        )
        trace = engine.run()
        assert trace.messages_dropped == 1
        assert trace.messages_sent[0] == 1  # a dropped send still counts as sent
        assert sum(trace.messages_received.values()) == 0

    def test_sent_equals_delivered_plus_dropped(self):
        from repro.sim.delays import LossyDelay

        def on_message(node, ctx, sender, payload):
            if payload[0] < 20:
                ctx.send_all((payload[0] + 1,))

        algo = ScriptedAlgorithm(
            on_start=lambda node, ctx: ctx.send_all((0,)),
            on_message=on_message,
        )
        engine = SimulationEngine(
            line(3), algo, ConstantDrift(0.01),
            LossyDelay(ConstantDelay(0.3), loss=0.3, seed=7),
            60.0, initiators={0: 0.0, 1: 0.0, 2: 0.0},
        )
        trace = engine.run()
        sent = sum(trace.messages_sent.values())
        delivered = sum(trace.messages_received.values())
        # ConstantDelay inner model: nothing can still be in flight at a
        # horizon this far past the last send, so accounting is exact.
        assert trace.messages_dropped > 0
        assert sent == delivered + trace.messages_dropped


class TestAlarms:
    def test_alarm_fires_at_hardware_value(self):
        fired = []

        def on_start(node, ctx):
            ctx.send_all(("x",))
            ctx.set_alarm("ping", 2.0)

        def on_alarm(node, ctx, name):
            fired.append((ctx.node_id, name, ctx.hardware()))

        algo = ScriptedAlgorithm(on_start=on_start, on_alarm=on_alarm)
        run(line(2), algo)
        assert any(
            name == "ping" and hw == pytest.approx(2.0) for _, name, hw in fired
        )

    def test_rearm_supersedes(self):
        fired = []

        def on_start(node, ctx):
            ctx.send_all(("x",))
            if ctx.node_id == 0:
                ctx.set_alarm("ping", 2.0)
                ctx.set_alarm("ping", 4.0)  # replaces the first

        algo = ScriptedAlgorithm(
            on_start=on_start,
            on_alarm=lambda node, ctx, name: fired.append(ctx.hardware()),
        )
        run(line(2), algo)
        assert len(fired) == 1
        assert fired[0] == pytest.approx(4.0)

    def test_cancel_alarm(self):
        fired = []

        def on_start(node, ctx):
            ctx.send_all(("x",))
            if ctx.node_id == 0:
                ctx.set_alarm("ping", 2.0)
                ctx.cancel_alarm("ping")

        algo = ScriptedAlgorithm(
            on_start=on_start,
            on_alarm=lambda node, ctx, name: fired.append(name),
        )
        run(line(2), algo)
        assert fired == []

    def test_past_alarm_fires_immediately(self):
        fired = []

        def on_message(node, ctx, sender, payload):
            ctx.set_alarm("now", 0.0)  # hardware already past 0 at node 0? no: == 0

        def on_alarm(node, ctx, name):
            fired.append((ctx.node_id, ctx.hardware()))

        algo = ScriptedAlgorithm(
            on_start=lambda node, ctx: ctx.send_all(("x",)),
            on_message=on_message,
            on_alarm=on_alarm,
        )
        run(line(2), algo)
        assert fired  # fired despite target being in the (local) past

    def test_alarm_before_start_rejected(self):
        class Premature(Algorithm):
            allows_jumps = False
            name = "premature"

            def make_node(self, node_id, neighbors):
                return Recorder()

        engine = SimulationEngine(
            line(2), Premature(), ConstantDrift(0.01), ConstantDelay(0.1), 5.0
        )
        with pytest.raises(SimulationError):
            engine._set_alarm(engine._runtimes[1], "x", 1.0)


class TestLogicalClockControl:
    def test_rate_multiplier(self):
        def on_start(node, ctx):
            ctx.send_all(("x",))
            ctx.set_rate_multiplier(2.0)

        algo = ScriptedAlgorithm(on_start=on_start)
        _, trace = run(line(2), algo)
        assert trace.logical[0].value(4.0) == pytest.approx(
            2 * trace.hardware[0].value(4.0)
        )

    def test_invalid_multiplier_rejected(self):
        algo = ScriptedAlgorithm(
            on_start=lambda node, ctx: ctx.set_rate_multiplier(0.0)
        )
        with pytest.raises(SimulationError):
            run(line(2), algo)

    def test_jump_requires_declaration(self):
        algo = ScriptedAlgorithm(on_start=lambda node, ctx: ctx.jump_logical(5.0))
        with pytest.raises(SimulationError, match="allows_jumps"):
            run(line(2), algo)

    def test_jump_allowed_when_declared(self):
        def on_start(node, ctx):
            ctx.send_all(("x",))
            if ctx.node_id == 0:
                ctx.jump_logical(5.0)

        algo = ScriptedAlgorithm(on_start=on_start)
        algo.allows_jumps = True
        _, trace = run(line(2), algo)
        assert trace.logical[0].value(0.0) == pytest.approx(5.0)


class TestSafetyLimits:
    def test_engine_single_use(self):
        algo = ScriptedAlgorithm(on_start=lambda node, ctx: ctx.send_all(("x",)))
        engine, _ = run(line(2), algo)
        with pytest.raises(SimulationError):
            engine.run()

    def test_max_events_cap(self):
        def on_message(node, ctx, sender, payload):
            ctx.send_all(payload)  # infinite ping-pong

        algo = ScriptedAlgorithm(
            on_start=lambda node, ctx: ctx.send_all(("x",)),
            on_message=on_message,
        )
        engine = SimulationEngine(
            line(2), algo, ConstantDrift(0.01),
            FunctionDelay(lambda *a: 0.0001, max_delay=1.0),
            1000.0, max_events=500,
        )
        with pytest.raises(SimulationError, match="exceeded"):
            engine.run()

    def test_invalid_horizon_rejected(self):
        with pytest.raises(SimulationError):
            SimulationEngine(
                line(2), ScriptedAlgorithm(), ConstantDrift(0.01),
                ConstantDelay(0.1), 0.0,
            )

    def test_probe_recorded(self):
        def on_start(node, ctx):
            ctx.send_all(("x",))
            ctx.probe("marker", 42)

        algo = ScriptedAlgorithm(on_start=on_start)
        _, trace = run(line(2), algo)
        probes = trace.probes_named("marker")
        assert len(probes) == 2
        assert probes[0].value == 42


class TestQueueContracts:
    """Ordering contracts of the event heap, observed through runs."""

    @staticmethod
    def _first_sends():
        return ScriptedAlgorithm(
            on_start=lambda node, ctx: ctx.send_all(("x",)) if ctx.node_id == 0 else None
        )

    def test_event_exactly_at_horizon_kept(self):
        # The horizon is inclusive: an event due exactly at the horizon
        # still happens (the engine's last instant is simulated).
        algo = self._first_sends()
        _, trace = run(line(2), algo, horizon=0.5, delay=0.5)
        assert trace.start_times[1] == 0.5
        assert [event[0] for event in algo.nodes[1].events] == ["start", "msg"]

    def test_event_after_horizon_dropped(self):
        with pytest.raises(SimulationError, match="1 nodes never initialized"):
            run(line(2), self._first_sends(), horizon=0.49999999, delay=0.5)

    def test_fifo_tie_break(self):
        # Events due at one instant run in the order they were scheduled:
        # three sends with equal delay, then two alarms at equal readings,
        # each in an order that no payload comparison would produce.
        def on_start(node, ctx):
            if ctx.node_id == 0:
                for value in (3, 1, 2):
                    ctx.send_to(1, (value,))
            else:
                ctx.set_alarm("b", 1.0)
                ctx.set_alarm("a", 1.0)

        algo = ScriptedAlgorithm(on_start=on_start)
        run(line(2), algo, delay=0.5)
        events = algo.nodes[1].events
        assert [e[2] for e in events if e[0] == "msg"] == [(3,), (1,), (2,)]
        assert [e[1] for e in events if e[0] == "alarm"] == ["b", "a"]
