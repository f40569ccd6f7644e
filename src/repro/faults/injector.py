"""Runtime fault decisions for the simulation engine.

A :class:`FaultInjector` compiles a declarative
:class:`~repro.faults.schedule.FaultSchedule` into fast interval lookups
and per-message fate decisions.  The engine consults it on every send
(link state, message faults) and keeps per-node crash state via the
crash/recover events it derives from :meth:`node_timeline`.

The injector is engine-side *runtime* state — it never enters a spec
digest (the schedule does) and may therefore precompute freely.

Message fates are decided by :func:`~repro.faults.hashing.stable_uniform`
over ``(seed, kind, sender, receiver, send_time, seq)``: a pure function
of the message identity, so fault decisions are independent of event
processing order and replay byte-identically across processes, worker
counts, and cache states.  The injector encodes a message's key once and
hashes it per kind from SHA-256 states that have already absorbed each
kind's ``(seed, kind`` prefix (:func:`~repro.faults.hashing.prefix_state`),
which hashes exactly the bytes ``stable_uniform`` would.

Byzantine corruption (:meth:`FaultInjector.corrupt_payload`) follows the
same discipline: the corruption *mode* and *magnitude* for each
(sender, receiver, send_time, seq) quadruple are drawn from the
per-message hash — never from a shared RNG — so a Byzantine node
equivocates deterministically (each receiver's copy is keyed separately)
and replays stay byte-identical across worker counts and both engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional, Tuple

from repro.errors import ScheduleError
from repro.faults.hashing import prefix_state, uniform_after
from repro.faults.schedule import (
    BYZANTINE,
    BYZANTINE_END,
    LINK_DOWN,
    LINK_UP,
    NODE_CRASH,
    NODE_RECOVER,
    FaultSchedule,
)
from repro.topology._intervals import Windows

__all__ = ["FaultInjector", "MessageFate"]

NodeId = Hashable


@dataclass(frozen=True)
class MessageFate:
    """The injector's verdict on one message send."""

    drop: bool = False
    duplicate: bool = False
    extra_delay: float = 0.0


_CLEAN = MessageFate()
_DROPPED = MessageFate(drop=True)


class FaultInjector:
    """Compiled fault state; see module docstring.

    Parameters
    ----------
    schedule:
        The declarative timeline.
    topology:
        Optional :class:`~repro.topology.generators.Topology`; when given,
        node and link events are validated against it so a typo'd fault
        target fails loudly instead of silently never firing.
    """

    def __init__(self, schedule: FaultSchedule, topology=None):
        self.schedule = schedule
        if schedule.byzantine_events and schedule.byzantine_magnitude <= 0:
            raise ScheduleError(
                "byzantine events scheduled but byzantine_magnitude is not positive"
            )
        self._nodes = Windows(schedule.node_events, NODE_CRASH, NODE_RECOVER, "node")
        self._links = Windows(
            schedule.link_events, LINK_DOWN, LINK_UP, "link", pairs=True
        )
        self._byzantine = Windows(
            schedule.byzantine_events, BYZANTINE, BYZANTINE_END, "byzantine node"
        )
        if topology is not None:
            for windows in (self._nodes, self._byzantine, self._links):
                windows.check_targets(topology, "fault schedule")
        seed = schedule.seed
        self._drop_prefix = prefix_state(seed, "drop")
        self._dup_prefix = prefix_state(seed, "dup")
        self._spike_prefix = prefix_state(seed, "spike")
        self._mode_prefix = prefix_state(seed, "byz-mode")
        self._magnitude_prefix = prefix_state(seed, "byz-mag")

    # -- node state ----------------------------------------------------------

    def node_timeline(self) -> List[Tuple[float, NodeId, str]]:
        """All node crash/recover transitions, time-sorted.

        The engine turns these into queue events; recover transitions at
        infinity (never-recovering crashes) are not included.
        """
        return self._nodes.timeline()

    def is_node_down(self, node: NodeId, t: float) -> bool:
        return self._nodes.is_down(node, t)

    def next_recovery(self, node: NodeId, t: float) -> Optional[float]:
        """The end of the down interval covering ``t``, or None.

        ``None`` means the node is either up at ``t`` or down forever.
        """
        return self._nodes.next_up(node, t)

    def node_intervals(self, node: NodeId) -> Tuple[Tuple[float, float], ...]:
        """The compiled ``[crash, recover)`` intervals of ``node``."""
        return self._nodes.intervals(node)

    # -- link state ----------------------------------------------------------

    def is_link_down(self, u: NodeId, v: NodeId, t: float) -> bool:
        return self._links.is_down((u, v), t)

    # -- byzantine state ------------------------------------------------------

    def is_byzantine(self, node: NodeId, t: float) -> bool:
        """Is ``node`` inside a scheduled Byzantine interval at ``t``?"""
        return self._byzantine.is_down(node, t)

    def byzantine_nodes(self) -> Tuple[NodeId, ...]:
        return self._byzantine.keys

    def corrupt_payload(
        self,
        sender: NodeId,
        receiver: NodeId,
        send_time: float,
        seq: int,
        payload: object,
    ) -> Optional[Tuple[Tuple[float, float], str]]:
        """Corrupt one outgoing estimate message of a Byzantine sender.

        Returns ``(corrupted_payload, reason)`` or ``None`` when the
        payload is not an estimate pair — the corruption model targets
        the ``(logical, l_max)`` estimate channel and passes anything
        else through untouched.

        Three per-message modes, all keyed by the order-independent hash
        of ``(sender, receiver, send_time, seq)`` so each receiver's copy
        is corrupted independently (equivocation falls out of the keying,
        not from extra state):

        * ``perturb`` (50%) — report a logical estimate lagging the true
          one by ``magnitude · [1/2, 1]``;
        * ``equivocate`` (30%) — lag drawn over the wider
          ``magnitude · [1/4, 1]`` range, maximizing receiver
          disagreement (the floor keeps every lie *substantial*: the
          receiver's raw-value guard retains only the largest value seen,
          so a single near-honest lie would mask all deeper ones);
        * ``replay`` (20%) — re-send a stale snapshot: *both* the logical
          estimate and ``L^max`` aged by ``magnitude · [1/2, 1]``
          (``L^max`` clamped at 0).

        Every mode corrupts *downward*.  An inflated ``L^max`` would
        propagate through the unconditional max-adoption rule that every
        variant shares — no per-neighbor filter can reject it without
        breaking the flooding argument — so the model restricts the
        adversary to the channel a fault-tolerant estimate filter can
        actually defend (stale/lagging lies), which is exactly the
        Bund–Lenzen–Rosenbaum threat model.
        """
        if not (
            isinstance(payload, tuple)
            and len(payload) == 2
            and all(isinstance(part, (int, float)) for part in payload)
        ):
            return None
        logical, l_max = float(payload[0]), float(payload[1])
        magnitude = self.schedule.byzantine_magnitude
        tail = _key_tail(sender, receiver, send_time, seq)
        mode = uniform_after(self._mode_prefix, tail)
        draw = uniform_after(self._magnitude_prefix, tail)
        if mode < 0.5:
            return (logical - magnitude * (0.5 + 0.5 * draw), l_max), "perturb"
        if mode < 0.8:
            return (logical - magnitude * (0.25 + 0.75 * draw), l_max), "equivocate"
        shift = magnitude * (0.5 + 0.5 * draw)
        return (logical - shift, max(0.0, l_max - shift)), "replay"

    # -- per-message faults ---------------------------------------------------

    def message_fate(
        self, sender: NodeId, receiver: NodeId, send_time: float, seq: int
    ) -> MessageFate:
        """Drop / duplicate / delay-spike verdict for one message."""
        schedule = self.schedule
        if not schedule.has_message_faults:
            return _CLEAN
        tail = _key_tail(sender, receiver, send_time, seq)
        if schedule.drop_probability > 0 and (
            uniform_after(self._drop_prefix, tail) < schedule.drop_probability
        ):
            return _DROPPED
        duplicate = schedule.duplicate_probability > 0 and (
            uniform_after(self._dup_prefix, tail) < schedule.duplicate_probability
        )
        extra = 0.0
        if schedule.spike_probability > 0 and (
            uniform_after(self._spike_prefix, tail) < schedule.spike_probability
        ):
            extra = schedule.spike_delay
        if not duplicate and extra == 0.0:
            return _CLEAN
        return MessageFate(duplicate=duplicate, extra_delay=extra)


def _key_tail(sender: NodeId, receiver: NodeId, send_time: float, seq: int) -> bytes:
    """The encoded rest of a message key after its ``(seed, kind`` prefix."""
    return f", {sender!r}, {receiver!r}, {send_time!r}, {seq!r})".encode("utf-8")
