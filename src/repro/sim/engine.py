"""The discrete-event simulation engine (fast path).

Runs any :class:`repro.core.interfaces.Algorithm` on a topology under a
drift model and a delay model — together these constitute an *execution*
in the sense of Section 3 of the paper ("an execution specifies the delays
of all messages and also the hardware clock rates of all nodes").

Responsibilities:

* wake initiator nodes and flood-initialize the rest on first message
  receipt (Section 4.2, initialization);
* deliver messages after delays chosen by the delay model, validated to
  lie in ``[0, T]``;
* maintain each node's logical clock record exactly (rate-multiplier
  checkpoints; optional jumps for β = ∞ algorithms);
* fire hardware-time alarms at the exact real time at which the hardware
  clock reaches the target value (possible because the adversary's rate
  schedule is fixed up front);
* run invariant monitors after every event and return an
  :class:`~repro.sim.trace.ExecutionTrace` — or, with
  ``record_trace=False``, fold skew extrema on the fly through a
  :class:`~repro.sim.monitors.StreamingSkewTracker` and return a compact
  :class:`StreamingResult` without ever materializing a trace;
* when a :class:`~repro.faults.schedule.FaultSchedule` is attached,
  consult its compiled :class:`~repro.faults.injector.FaultInjector` on
  every send and event (see "Fault semantics" below).

Determinism: simultaneous events are processed in schedule order, so a
given (topology, drift, delays, algorithm, faults) tuple always
reproduces the identical execution.

Fast path
---------
The hot loop dispatches plain tuples ``(time, seq, kind, node, ...)``
through a binary heap — no per-event object allocation; the monotone
``seq`` settles ties before any payload field is compared, so events at
one instant run in scheduling order.  Results are *bit-identical* to
pinned fingerprints of the event-at-a-time engine this loop replaced
(same summaries, same event logs), in trace and streaming mode alike —
the contract enforced by ``tests/test_engine_parity.py``; see
``docs/ENGINE.md``.

Fault semantics (robustness extension; docs/FAULTS.md)
------------------------------------------------------
* A *crashed* node processes no events.  Its hardware oscillator keeps
  running; its logical clock free-runs at multiplier 1 from the crash
  instant (both clocks therefore still satisfy Conditions (1)/(2)).
* Messages delivered to a downed node are lost (``messages_lost_crash``);
  messages sent over a downed link are lost (``messages_lost_link``).
* Alarms and wake-ups that come due during an outage are *deferred*: they
  fire once at the recovery instant (hardware timers survive the outage),
  after :meth:`~repro.core.interfaces.AlgorithmNode.on_recover` — which
  may re-arm them, superseding the deferred firing by generation.
* Per-message drop / duplicate / delay-spike faults are decided by a
  stable per-message hash, so they are independent of event order.

Dynamic topology (docs/DYNAMIC.md)
----------------------------------
A :class:`~repro.topology.dynamic.TopologySchedule` makes the graph
itself time-varying over a static *union graph*:

* A message sent while its edge is *absent* is lost
  (``messages_lost_link``, event-log reason ``edge-absent``; the edge
  check precedes the fault-layer link check — an absent edge does not
  exist, so it cannot also be "down").
* An *absent* node processes no events, exactly like a crashed node:
  deliveries to it are lost (``messages_lost_crash``, reason
  ``absent``), its logical clock free-runs at multiplier 1, and due
  alarms/wakes are deferred to the instant it is both present and
  recovered.  Crash state and absence compose independently.
* A node absent from time 0 *joins* when its first absence interval
  ends; it is integrated by the first message it receives afterwards
  (Section 4.2 first-message initialization).  A started node that
  rejoins is reintegrated through ``on_recover``, like a fault
  recovery.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.interfaces import Algorithm, AlgorithmNode, NodeContext
from repro.errors import SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.obs.metrics import RunMetrics
from repro.sim.clock import HardwareClock
from repro.sim.delays import DROP, DelayModel
from repro.sim.drift import DriftModel
from repro.sim.monitors import StreamingSkewTracker
from repro.sim.trace import (
    ExecutionTrace,
    LogicalClockRecord,
    MessageRecord,
    ProbeRecord,
    SkewExtremum,
)
from repro.topology.dynamic import (
    CompiledTopologySchedule,
    TopologySchedule,
    merged_downtime,
)
from repro.topology.generators import Topology

__all__ = ["SimulationEngine", "StreamingResult", "DEFAULT_TRACE_NODE_CAP"]

NodeId = Hashable

#: Hard cap on processed events; a correct experiment stays far below it,
#: so hitting the cap indicates a message storm or alarm loop.
DEFAULT_MAX_EVENTS = 20_000_000

#: Largest network for which the engine will record a full trace.  The
#: cap bounds the records: a trace holds every clock breakpoint of every
#: node, so beyond this size the engine refuses upfront (clear error now
#: beats an OOM kill later).  Skew evaluation over a trace adds no
#: nodes × instants matrix (it folds in windows of ``FLUSH_CELLS`` cells,
#: see ``repro.sim.trace``), so the cap does not bound it.  Pass
#: ``record_trace=False`` for streaming evaluation, or raise the cap
#: explicitly via ``trace_node_cap`` if the machine really has the RAM.
DEFAULT_TRACE_NODE_CAP = 50_000

# Event kinds, encoded as small ints inside heap tuples.  The heap never
# compares beyond the unique ``seq``; the outage transitions come first so
# the main loop routes all four with one ``kind < _WAKE`` test.
_CRASH, _RECOVER, _LEAVE, _JOIN, _WAKE, _DELIVERY, _ALARM = range(7)

#: Kind int → metrics/event-log kind name.  The first four are also the
#: kinds of the fault and topology ``node_timeline`` transitions.
_KIND_NAMES = ("crash", "recover", "leave", "join", "wake", "delivery", "alarm")

# Tuple layouts (time and seq lead so the heap orders on them alone):
#   (time, seq, _CRASH | _RECOVER | _LEAVE | _JOIN, node)
#   (time, seq, _WAKE,     node)
#   (time, seq, _DELIVERY, node, sender, payload, send_time, size_bits)
#   (time, seq, _ALARM,    node, name, generation, hardware_value)


@dataclass(frozen=True)
class StreamingResult:
    """Everything a summary needs from one streamed execution.

    The streaming counterpart of :class:`~repro.sim.trace.ExecutionTrace`:
    exact skew extrema already folded (bit-identical to what trace
    evaluation would have produced), plus the same aggregate counters —
    but O(nodes) memory instead of O(breakpoints).
    """

    horizon: float
    global_skew: SkewExtremum
    local_skew: SkewExtremum
    final_spread: float
    total_messages: int
    total_bits: int
    events_processed: int
    messages_dropped: int
    messages_lost_link: int = 0
    messages_lost_crash: int = 0
    messages_duplicated: int = 0
    probes: List[ProbeRecord] = field(default_factory=list)
    metrics: Optional[RunMetrics] = None
    event_log: Optional[List[Tuple[str, float, NodeId, dict]]] = None


class _NodeRuntime:
    """Engine-side state for one node."""

    __slots__ = (
        "node_id",
        "idx",
        "neighbors",
        "algorithm_node",
        "started",
        "crashed",
        "absent",
        "hardware",
        "record",
        "rho",
        "alarm_generations",
        "edge_seq",
    )

    def __init__(
        self,
        node_id: NodeId,
        idx: int,
        neighbors: Tuple[NodeId, ...],
        algorithm_node: AlgorithmNode,
    ):
        self.node_id = node_id
        self.idx = idx
        self.neighbors = neighbors
        self.algorithm_node = algorithm_node
        self.started = False
        self.crashed = False
        self.absent = False
        self.hardware: Optional[HardwareClock] = None
        self.record: Optional[LogicalClockRecord] = None
        self.rho = 1.0
        self.alarm_generations: Dict[str, int] = {}
        self.edge_seq: Dict[NodeId, int] = {}


class _EngineContext(NodeContext):
    """The capability object handed to algorithm callbacks.

    Bound to one node.  Before each callback the engine reads the node's
    clocks once, at the event time (:meth:`_read_clocks`); ``hardware()``
    and ``logical()`` return those readings, which ``set_rate_multiplier``
    leaves exact (the clock is continuous) and ``jump_logical`` refreshes.
    Exposes only model-legal operations — notably *not* real time.
    """

    def __init__(self, engine: "SimulationEngine", runtime: _NodeRuntime):
        self._engine = engine
        self._runtime = runtime
        self.node_id = runtime.node_id
        self.neighbors = runtime.neighbors
        self._hardware_now = 0.0
        self._logical_now = 0.0

    def _read_clocks(self, now: float) -> None:
        """Take this callback's readings ``H_v(now)`` and ``L_v(now)``."""
        runtime = self._runtime
        self._hardware_now = runtime.hardware.value(now)
        self._logical_now = runtime.record.value(now)

    def hardware(self) -> float:
        return self._hardware_now

    def logical(self) -> float:
        return self._logical_now

    def rate_multiplier(self) -> float:
        return self._runtime.rho

    def set_rate_multiplier(self, rho: float) -> None:
        if rho <= 0:
            raise SimulationError(f"rate multiplier must be positive, got {rho}")
        runtime = self._runtime
        if rho != runtime.rho:
            engine = self._engine
            runtime.record.append(
                engine.now, self._logical_now, rho, self._hardware_now
            )
            runtime.rho = rho
            if engine._tracker is not None:
                engine._tracker.note_checkpoint(runtime.idx, engine.now)

    def jump_logical(self, value: float) -> None:
        engine = self._engine
        if not engine.algorithm.allows_jumps:
            raise SimulationError(
                f"algorithm {engine.algorithm.name!r} did not declare "
                "allows_jumps but attempted a discontinuous clock jump"
            )
        if engine._event_log is not None:
            engine._event_log.append(
                (
                    "jump",
                    engine.now,
                    self.node_id,
                    {"value_from": self._logical_now, "value_to": value},
                )
            )
        record = self._runtime.record
        record.jump(engine.now, value)
        self._logical_now = record.value(engine.now)
        if engine._tracker is not None:
            engine._tracker.note_checkpoint(self._runtime.idx, engine.now)

    def send_to(self, neighbor: NodeId, payload: Any) -> None:
        runtime = self._runtime
        if neighbor not in runtime.neighbors:
            raise SimulationError(
                f"node {runtime.node_id!r} attempted to send to non-neighbor {neighbor!r}"
            )
        self._engine._send(runtime, (neighbor,), payload)

    def send_all(self, payload: Any) -> None:
        self._engine._send(self._runtime, self.neighbors, payload)

    def set_alarm(self, name: str, hardware_value: float) -> None:
        self._engine._set_alarm(self._runtime, name, hardware_value)

    def cancel_alarm(self, name: str) -> None:
        generations = self._runtime.alarm_generations
        generations[name] = generations.get(name, 0) + 1

    def probe(self, name: str, value: Any) -> None:
        self._engine._probes.append(
            ProbeRecord(name, self.node_id, self._engine.now, value)
        )


class SimulationEngine:
    """Builds and runs one execution; see module docstring.

    Parameters
    ----------
    topology:
        The communication graph ``G``.
    algorithm:
        Factory of per-node state machines.
    drift_model:
        Hardware clock rate schedules (the adversary's drift choice).
    delay_model:
        Message delay choices (the adversary's delay choice).
    horizon:
        Real-time duration of the execution.
    initiators:
        Nodes that wake spontaneously at time 0 (default: the first node,
        matching the paper's single-origin initialization flood).  A
        mapping ``node → wake_time`` is also accepted.
    record_messages:
        Keep a full message log in the trace (memory-heavy; default off).
    monitors:
        Objects with ``check(engine, node_id, time)`` called after every
        event (see :mod:`repro.sim.monitors`).
    faults:
        Optional :class:`~repro.faults.schedule.FaultSchedule`; see the
        module docstring's "Fault semantics".
    topology_schedule:
        Optional :class:`~repro.topology.dynamic.TopologySchedule`
        making the graph time-varying; ``topology`` is then the union
        graph.  See the module docstring's "Dynamic topology".
    collect_metrics:
        Collect :class:`~repro.obs.metrics.RunMetrics` (event counters,
        queue high-water mark, phase wall times) onto the trace.  Off by
        default; when off the engine pays one ``is None`` check per
        event and results are byte-identical either way.
    record_events:
        Keep a structured event log (sends, deliveries, drops with
        reasons, jumps, crash/recover transitions) on the trace for
        :meth:`~repro.sim.trace.ExecutionTrace.export_events`.
        Memory-proportional to the event count; off by default.
    record_trace:
        ``True`` (default): run with :meth:`run`, which returns a full
        :class:`~repro.sim.trace.ExecutionTrace`; refuses networks
        larger than ``trace_node_cap`` nodes.  ``False``: run with
        :meth:`run_streaming`, which folds exact skew extrema online
        and returns a :class:`StreamingResult` in O(nodes) memory.
    trace_node_cap:
        Node-count ceiling for trace recording; ``None`` means
        :data:`DEFAULT_TRACE_NODE_CAP`.
    """

    def __init__(
        self,
        topology: Topology,
        algorithm: Algorithm,
        drift_model: DriftModel,
        delay_model: DelayModel,
        horizon: float,
        initiators: Optional[Iterable[NodeId]] = None,
        record_messages: bool = False,
        monitors: Sequence[Any] = (),
        max_events: int = DEFAULT_MAX_EVENTS,
        faults: Optional[FaultSchedule] = None,
        topology_schedule: Optional[TopologySchedule] = None,
        collect_metrics: bool = False,
        record_events: bool = False,
        record_trace: bool = True,
        trace_node_cap: Optional[int] = None,
    ):
        setup_started = time.perf_counter() if collect_metrics else 0.0
        if horizon <= 0:
            raise SimulationError(f"horizon must be positive, got {horizon}")
        cap = DEFAULT_TRACE_NODE_CAP if trace_node_cap is None else trace_node_cap
        if record_trace and len(topology.nodes) > cap:
            raise SimulationError(
                f"recording a full trace for {len(topology.nodes)} nodes exceeds "
                f"the trace node cap ({cap}); run with record_trace=False for "
                "O(nodes)-memory streaming evaluation, or raise trace_node_cap"
            )
        self.topology = topology
        self.algorithm = algorithm
        self.drift_model = drift_model
        self.delay_model = delay_model
        self.horizon = float(horizon)
        self.record_messages = record_messages
        self.monitors = tuple(monitors)
        self.max_events = max_events
        self.now = 0.0

        self._heap: List[tuple] = []
        self._seq = 0
        self._runtimes: Dict[NodeId, _NodeRuntime] = {}
        self._contexts: Dict[NodeId, _EngineContext] = {}
        for idx, node in enumerate(topology.nodes):
            neighbors = topology.neighbors(node)
            runtime = _NodeRuntime(
                node, idx, neighbors, algorithm.make_node(node, neighbors)
            )
            self._runtimes[node] = runtime
            self._contexts[node] = _EngineContext(self, runtime)

        self._messages_sent: Dict[NodeId, int] = {n: 0 for n in topology.nodes}
        self._messages_received: Dict[NodeId, int] = {n: 0 for n in topology.nodes}
        self._bits_sent: Dict[NodeId, int] = {n: 0 for n in topology.nodes}
        self._message_log: List[MessageRecord] = []
        self._probes: List[ProbeRecord] = []
        self._events_processed = 0
        self._messages_dropped = 0
        self._messages_lost_link = 0
        self._messages_lost_crash = 0
        self._messages_duplicated = 0
        self._finished = False
        self._metrics: Optional[RunMetrics] = RunMetrics() if collect_metrics else None
        self._event_log: Optional[List[Tuple[str, float, NodeId, dict]]] = (
            [] if record_events else None
        )
        self._tracker: Optional[StreamingSkewTracker] = None
        if not record_trace:
            self._tracker = StreamingSkewTracker(
                topology.nodes, topology.edges(), self.horizon, prune=True
            )

        self._dynamic: Optional[CompiledTopologySchedule] = None
        if topology_schedule is not None and not topology_schedule.is_empty:
            self._dynamic = CompiledTopologySchedule(topology_schedule, topology)
        self._injector: Optional[FaultInjector] = None
        if faults is not None:
            self._injector = FaultInjector(faults, topology)
        # Outage transitions are pushed before wake events, topology before
        # faults, so at one instant a leave pops before a crash and both
        # before a wake, delivery, or alarm (FIFO tie-break).
        for outages in (self._dynamic, self._injector):
            if outages is None:
                continue
            for event_time, node, kind in outages.node_timeline():
                if event_time > self.horizon:
                    continue
                seq = self._seq
                self._seq = seq + 1
                heappush(
                    self._heap, (event_time, seq, _KIND_NAMES.index(kind), node)
                )

        if initiators is None:
            wake_times: Dict[NodeId, float] = {topology.nodes[0]: 0.0}
        elif isinstance(initiators, dict):
            wake_times = dict(initiators)
        else:
            wake_times = {node: 0.0 for node in initiators}
        if not wake_times:
            raise SimulationError("at least one initiator node is required")
        for node, wake_time in wake_times.items():
            seq = self._seq
            self._seq = seq + 1
            heappush(self._heap, (wake_time, seq, _WAKE, node))
        if self._metrics is not None:
            self._metrics.phase_seconds["setup"] = (
                time.perf_counter() - setup_started
            )

    # -- read API used by monitors and algorithms-by-proxy -------------------

    def is_started(self, node: NodeId) -> bool:
        return self._runtimes[node].started

    def logical_value(self, node: NodeId, t: Optional[float] = None) -> float:
        runtime = self._runtimes[node]
        if runtime.record is None:
            return 0.0
        return runtime.record.value(self.now if t is None else t)

    def hardware_value(self, node: NodeId, t: Optional[float] = None) -> float:
        runtime = self._runtimes[node]
        if runtime.hardware is None:
            return 0.0
        return runtime.hardware.value(self.now if t is None else t)

    def start_time(self, node: NodeId) -> Optional[float]:
        runtime = self._runtimes[node]
        return runtime.hardware.start_time if runtime.started else None

    def rate_multiplier(self, node: NodeId) -> float:
        return self._runtimes[node].rho

    def node_state(self, node: NodeId) -> AlgorithmNode:
        """The algorithm's node object (for white-box assertions in tests)."""
        return self._runtimes[node].algorithm_node

    def is_down(self, node: NodeId) -> bool:
        """Whether the node is currently crashed (fault executions only)."""
        return self._runtimes[node].crashed

    def is_absent(self, node: NodeId) -> bool:
        """Whether the node is currently absent (dynamic topologies only)."""
        return self._runtimes[node].absent

    # -- internals ------------------------------------------------------------

    def _start_node(self, runtime: _NodeRuntime) -> None:
        rate = self.drift_model.validated_rate_function(runtime.node_id, self.horizon)
        runtime.hardware = HardwareClock(rate, start_time=self.now)
        runtime.record = LogicalClockRecord(runtime.hardware)
        runtime.started = True
        if self._tracker is not None:
            self._tracker.note_start(runtime.idx, runtime.record, runtime.hardware)
        context = self._contexts[runtime.node_id]
        context._read_clocks(self.now)
        runtime.algorithm_node.on_start(context)

    def _send(
        self, runtime: _NodeRuntime, neighbors: Sequence[NodeId], payload: Any
    ) -> None:
        """Send ``payload`` to each of ``neighbors`` in turn (a broadcast
        or one ``send_to``): the payload's bits and the sent counters are
        charged once, then each neighbor's message takes its edge seq,
        edge-absent, link-down, delay, fate and Byzantine steps in that
        order."""
        sender = runtime.node_id
        now = self.now
        bits = self.algorithm.payload_bits(payload)
        self._messages_sent[sender] += len(neighbors)
        self._bits_sent[sender] += bits * len(neighbors)
        if self._metrics is not None:
            self._metrics.sends += len(neighbors)
        log = self._event_log
        dynamic = self._dynamic
        injector = self._injector
        edge_seq = runtime.edge_seq
        heap = self._heap
        for neighbor in neighbors:
            seq = edge_seq.get(neighbor, 0)
            edge_seq[neighbor] = seq + 1
            if dynamic is not None and dynamic.is_edge_absent(sender, neighbor, now):
                self._messages_lost_link += 1
                if log is not None:
                    log.append(("drop", now, sender,
                                {"to": neighbor, "seq": seq, "reason": "edge-absent"}))
                continue
            if injector is not None and injector.is_link_down(sender, neighbor, now):
                self._messages_lost_link += 1
                if log is not None:
                    log.append(("drop", now, sender,
                                {"to": neighbor, "seq": seq, "reason": "link-down"}))
                continue
            delay = self.delay_model.validated_delay(sender, neighbor, now, seq)
            if delay == DROP:
                self._messages_dropped += 1
                if log is not None:
                    log.append(("drop", now, sender,
                                {"to": neighbor, "seq": seq, "reason": "delay-model"}))
                continue
            copies = 1
            sent = payload
            if injector is not None:
                fate = injector.message_fate(sender, neighbor, now, seq)
                if fate.drop:
                    self._messages_dropped += 1
                    if log is not None:
                        log.append(("drop", now, sender,
                                    {"to": neighbor, "seq": seq, "reason": "fault"}))
                    continue
                # A delay spike is applied after validation: exceeding T is
                # the point — it violates the paper's timing assumption on
                # purpose.
                delay += fate.extra_delay
                if fate.duplicate:
                    copies = 2
                    self._messages_duplicated += 1
                if injector.is_byzantine(sender, now):
                    corrupted = injector.corrupt_payload(
                        sender, neighbor, now, seq, payload
                    )
                    if corrupted is not None:
                        sent, reason = corrupted
                        if log is not None:
                            log.append(("corrupt", now, sender,
                                        {"to": neighbor, "seq": seq, "reason": reason}))
            if log is not None:
                log.append(("send", now, sender,
                            {"to": neighbor, "seq": seq, "delay": delay,
                             "bits": bits, "copies": copies}))
            if self.record_messages:
                self._message_log.append(
                    MessageRecord(sender, neighbor, now, delay, sent, bits)
                )
            deliver_time = now + delay
            if deliver_time < now:
                raise SimulationError(
                    f"event at time {deliver_time} scheduled in the past "
                    f"(current time {now})"
                )
            for _ in range(copies):
                entry_seq = self._seq
                self._seq = entry_seq + 1
                heappush(
                    heap,
                    (deliver_time, entry_seq, _DELIVERY, neighbor,
                     sender, sent, now, bits),
                )

    def _set_alarm(self, runtime: _NodeRuntime, name: str, hardware_value: float) -> None:
        if runtime.hardware is None:
            raise SimulationError(
                f"node {runtime.node_id!r} armed alarm {name!r} before starting"
            )
        generation = runtime.alarm_generations.get(name, 0) + 1
        runtime.alarm_generations[name] = generation
        if self._metrics is not None:
            self._metrics.alarms_set += 1
        fire_time = runtime.hardware.time_at_value(max(hardware_value, 0.0))
        # An alarm for an already-reached value fires immediately after the
        # current callback (same timestamp, later sequence number).
        fire_time = max(fire_time, self.now)
        seq = self._seq
        self._seq = seq + 1
        heappush(
            self._heap,
            (fire_time, seq, _ALARM, runtime.node_id, name, generation, hardware_value),
        )

    def _freeze_rate(self, runtime: _NodeRuntime) -> None:
        if runtime.started and runtime.rho != 1.0:
            # The logical clock free-runs at multiplier 1 during the outage,
            # keeping it inside the Condition (2) envelope (α = 1 − ε ≤ 1).
            runtime.record.checkpoint(self.now, 1.0)
            runtime.rho = 1.0
            if self._tracker is not None:
                self._tracker.note_checkpoint(runtime.idx, self.now)

    def _transition(self, runtime: _NodeRuntime, kind: int) -> None:
        """Apply one crash, recover, leave or join to ``runtime``.

        Going down freezes the rate; coming back calls ``on_recover`` once
        the node is neither crashed nor absent.
        """
        if kind == _CRASH or kind == _RECOVER:
            runtime.crashed = kind == _CRASH
        else:
            runtime.absent = kind == _LEAVE
        if kind == _CRASH or kind == _LEAVE:
            self._freeze_rate(runtime)
        elif runtime.started and not (runtime.crashed or runtime.absent):
            context = self._contexts[runtime.node_id]
            context._read_clocks(self.now)
            runtime.algorithm_node.on_recover(context)

    def _resume_time(self, node: NodeId) -> Optional[float]:
        """When the node is next both recovered and present, or None.

        ``None`` means some covering outage never ends.  If the returned
        instant still falls inside the *other* source's outage, the
        re-queued event is simply deferred again when popped.
        """
        resume: Optional[float] = None
        injector = self._injector
        if injector is not None and injector.is_node_down(node, self.now):
            resume = injector.next_recovery(node, self.now)
            if resume is None:
                return None
        dynamic = self._dynamic
        if dynamic is not None and dynamic.is_node_absent(node, self.now):
            presence = dynamic.next_presence(node, self.now)
            if presence is None:
                return None
            resume = presence if resume is None else max(resume, presence)
        return resume

    def _defer_to_recovery(self, entry: tuple) -> None:
        """Re-queue a wake/alarm that came due during an outage.

        It fires at the recovery/rejoin instant (after ``on_recover``,
        which was queued earlier and therefore pops first at equal time);
        if the node never comes back, the event is dropped.
        """
        recovery = self._resume_time(entry[3])
        if recovery is None or recovery > self.horizon:
            return
        metrics = self._metrics
        seq = self._seq
        self._seq = seq + 1
        if entry[2] == _ALARM:
            if metrics is not None:
                metrics.alarms_deferred += 1
            heappush(
                self._heap,
                (recovery, seq, _ALARM, entry[3], entry[4], entry[5], entry[6]),
            )
        else:
            if metrics is not None:
                metrics.wakes_deferred += 1
            heappush(self._heap, (recovery, seq, _WAKE, entry[3]))

    # -- main loop ---------------------------------------------------------------

    def _run_loop(self) -> None:
        if self._finished:
            raise SimulationError("engine instances are single-use; build a new one")
        metrics = self._metrics
        run_started = time.perf_counter() if metrics is not None else 0.0
        heap = self._heap
        horizon = self.horizon
        max_events = self.max_events
        monitors = self.monitors
        tracker = self._tracker
        runtimes = self._runtimes
        contexts = self._contexts
        log = self._event_log
        processed = 0
        while heap:
            entry = heap[0]
            now = entry[0]
            if now > horizon:
                break
            heappop(heap)
            self.now = now
            if tracker is not None:
                tracker.advance(now)
            kind = entry[2]
            node = entry[3]
            runtime = runtimes[node]
            run_checks = True
            if kind < _WAKE:
                self._transition(runtime, kind)
                if log is not None:
                    log.append((_KIND_NAMES[kind], now, node, {}))
            elif runtime.crashed or runtime.absent:
                run_checks = False
                if kind == _DELIVERY:
                    self._messages_lost_crash += 1
                    if log is not None:
                        log.append(("drop", now, node,
                                    {"from": entry[4],
                                     "send_time": entry[6],
                                     "reason": "crash" if runtime.crashed
                                     else "absent"}))
                elif kind == _ALARM:
                    if runtime.alarm_generations.get(entry[4], 0) == entry[5]:
                        self._defer_to_recovery(entry)
                else:  # _WAKE
                    if not runtime.started:
                        self._defer_to_recovery(entry)
            elif kind == _DELIVERY:
                sender = entry[4]
                self._messages_received[node] += 1
                if log is not None:
                    log.append(("deliver", now, node,
                                {"from": sender,
                                 "send_time": entry[6],
                                 "bits": entry[7]}))
                if not runtime.started:
                    self._start_node(runtime)
                # The callback's readings (_read_clocks, inlined: this and
                # the alarm below are the hot callbacks).
                context = contexts[node]
                context._hardware_now = runtime.hardware.value(now)
                context._logical_now = runtime.record.value(now)
                runtime.algorithm_node.on_message(context, sender, entry[5])
            elif kind == _ALARM:
                name = entry[4]
                if runtime.alarm_generations.get(name, 0) != entry[5]:
                    if metrics is not None:
                        metrics.alarms_superseded += 1
                    run_checks = False  # superseded or cancelled
                else:
                    if not runtime.started:  # pragma: no cover - defensive
                        raise SimulationError(f"alarm at unstarted node {node!r}")
                    if metrics is not None:
                        metrics.alarms_fired += 1
                    context = contexts[node]
                    context._hardware_now = runtime.hardware.value(now)
                    context._logical_now = runtime.record.value(now)
                    runtime.algorithm_node.on_alarm(context, name)
            else:  # _WAKE
                if not runtime.started:
                    self._start_node(runtime)
            if run_checks:
                for monitor in monitors:
                    monitor.check(self, node, now)
            processed += 1
            if metrics is not None:
                kind_name = _KIND_NAMES[kind]
                metrics.events_by_type[kind_name] = (
                    metrics.events_by_type.get(kind_name, 0) + 1
                )
                depth = len(heap)
                if depth > metrics.queue_depth_hwm:
                    metrics.queue_depth_hwm = depth
            if processed > max_events:
                self._events_processed = processed
                raise SimulationError(
                    f"exceeded {max_events} events at t={self.now}; "
                    "likely a message storm or alarm loop"
                )
        self._events_processed = processed
        self.now = self.horizon
        self._finished = True
        if metrics is not None:
            run_seconds = time.perf_counter() - run_started
            if tracker is not None:
                # Flushes inside the loop are skew folding, not dispatch.
                run_seconds -= tracker.fold_seconds
            metrics.phase_seconds["run"] = run_seconds

    def run(self) -> ExecutionTrace:
        """Run until the horizon and return the execution trace."""
        if self._tracker is not None:
            raise SimulationError(
                "engine was built with record_trace=False; use run_streaming()"
            )
        self._run_loop()
        return self._build_trace()

    def run_streaming(self) -> StreamingResult:
        """Run until the horizon, folding skews online; no trace is kept."""
        if self._tracker is None:
            raise SimulationError(
                "engine was built with record_trace=True; use run(), or pass "
                "record_trace=False for streaming evaluation"
            )
        self._run_loop()
        return self._build_streaming_result()

    def _check_all_started(self) -> None:
        unstarted = [n for n, r in self._runtimes.items() if not r.started]
        if unstarted:
            raise SimulationError(
                f"{len(unstarted)} nodes never initialized within the horizon "
                f"(first few: {unstarted[:5]}); extend the horizon"
            )

    def _build_trace(self) -> ExecutionTrace:
        self._check_all_started()
        metrics = self._metrics
        trace_started = time.perf_counter() if metrics is not None else 0.0
        # Per-node scheduled downtime overlapping the node's active window
        # [start, horizon]; deterministic, so summaries stay byte-identical.
        # Crash intervals and topology absences are union-merged so an
        # outage covered by both sources is not counted twice.
        downtime: Dict[NodeId, float] = {}
        if self._injector is not None or self._dynamic is not None:
            for node, runtime in self._runtimes.items():
                interval_lists = []
                if self._injector is not None:
                    interval_lists.append(self._injector.node_intervals(node))
                if self._dynamic is not None:
                    interval_lists.append(
                        self._dynamic.node_absence_intervals(node)
                    )
                down = merged_downtime(
                    interval_lists, runtime.hardware.start_time, self.horizon
                )
                if down > 0.0:
                    downtime[node] = down
        if metrics is not None:
            for node, runtime in self._runtimes.items():
                metrics.checkpoints_by_node[node] = runtime.record.checkpoint_count
                metrics.breakpoints_by_node[node] = len(
                    runtime.record.breakpoints_in(
                        runtime.hardware.start_time, self.horizon
                    )
                )
            metrics.phase_seconds["trace"] = time.perf_counter() - trace_started
        return ExecutionTrace(
            topology=self.topology,
            horizon=self.horizon,
            logical={n: r.record for n, r in self._runtimes.items()},
            hardware={n: r.hardware for n, r in self._runtimes.items()},
            start_times={n: r.hardware.start_time for n, r in self._runtimes.items()},
            messages_sent=dict(self._messages_sent),
            messages_received=dict(self._messages_received),
            bits_sent=dict(self._bits_sent),
            message_log=self._message_log,
            probes=self._probes,
            events_processed=self._events_processed,
            messages_dropped=self._messages_dropped,
            messages_lost_link=self._messages_lost_link,
            messages_lost_crash=self._messages_lost_crash,
            messages_duplicated=self._messages_duplicated,
            downtime=downtime,
            metrics=metrics,
            event_log=self._event_log,
        )

    def _build_streaming_result(self) -> StreamingResult:
        self._check_all_started()
        metrics = self._metrics
        tracker = self._tracker
        loop_fold_seconds = tracker.fold_seconds
        fold_started = time.perf_counter() if metrics is not None else 0.0
        tracker.finalize()
        if metrics is not None:
            metrics.phase_seconds["skew-fold"] = loop_fold_seconds + (
                time.perf_counter() - fold_started
            )
            for node, runtime in self._runtimes.items():
                metrics.checkpoints_by_node[node] = runtime.record.checkpoint_count
                metrics.breakpoints_by_node[node] = tracker.breakpoint_count(
                    runtime.idx
                )
        return StreamingResult(
            horizon=self.horizon,
            global_skew=tracker.global_extremum(),
            local_skew=tracker.local_extremum(),
            final_spread=tracker.final_spread,
            total_messages=sum(self._messages_sent.values()),  # reprolint: exact-fold (int counters)
            total_bits=sum(self._bits_sent.values()),  # reprolint: exact-fold (int counters)
            events_processed=self._events_processed,
            messages_dropped=self._messages_dropped,
            messages_lost_link=self._messages_lost_link,
            messages_lost_crash=self._messages_lost_crash,
            messages_duplicated=self._messages_duplicated,
            probes=self._probes,
            metrics=metrics,
            event_log=self._event_log,
        )
