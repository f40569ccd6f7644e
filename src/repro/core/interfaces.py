"""The event-driven algorithm interface.

A clock synchronization algorithm in the paper's model is an event-driven
state machine per node: it reacts to message receipt (Algorithm 2) and to
its own hardware clock reaching target values (Algorithms 1 and 4).  It
may read its hardware and logical clock, set the logical rate multiplier,
send messages to neighbors, and arm hardware-time alarms — and nothing
else.  In particular it can *not* read real time, other nodes' clocks, or
message delays; the :class:`NodeContext` given to callbacks exposes
exactly the legal capabilities, which keeps every algorithm honest by
construction.

Algorithms whose analysis permits unbounded logical clock rates (β = ∞,
e.g. max-forwarding baselines) may discontinuously raise the logical
clock via :meth:`NodeContext.jump_logical`; they must declare it by
setting ``allows_jumps`` so experiments can account for the relaxation.
"""

from __future__ import annotations

import abc
from typing import Any, Hashable, Sequence, Tuple

__all__ = ["NodeContext", "AlgorithmNode", "Algorithm", "DEFAULT_FIELD_BITS"]

NodeId = Hashable

#: Bits charged per real-valued message field when an algorithm does not
#: provide its own encoding (Section 6.2 discusses how A^opt gets away with
#: far fewer; see :mod:`repro.variants.bit_budget`).
DEFAULT_FIELD_BITS = 64


class NodeContext(abc.ABC):
    """Capabilities available to an algorithm node during a callback.

    Implemented by the simulation engine; one context is bound per node.
    All clock readings refer to the instant of the current event.
    """

    #: The node's identifier.
    node_id: NodeId
    #: Identifiers of neighboring nodes (port numbering per Section 3).
    neighbors: Tuple[NodeId, ...]

    @abc.abstractmethod
    def hardware(self) -> float:
        """The hardware clock reading ``H_v`` at the current event.

        The engine reads the clock once before each callback; every call
        within the callback returns that reading.
        """

    @abc.abstractmethod
    def logical(self) -> float:
        """The logical clock reading ``L_v`` at the current event.

        Read once before each callback, like :meth:`hardware`; a rate
        change leaves it exact (the clock is continuous) and
        :meth:`jump_logical` updates it to the jumped-to value.
        """

    @abc.abstractmethod
    def set_rate_multiplier(self, rho: float) -> None:
        """Set the logical rate multiplier ρ (logical rate becomes ρ·h_v)."""

    @abc.abstractmethod
    def rate_multiplier(self) -> float:
        """The currently active multiplier ρ."""

    @abc.abstractmethod
    def jump_logical(self, value: float) -> None:
        """Discontinuously raise ``L_v`` to ``value`` (requires jumps)."""

    @abc.abstractmethod
    def send_to(self, neighbor: NodeId, payload: Any) -> None:
        """Send ``payload`` to one neighbor."""

    @abc.abstractmethod
    def send_all(self, payload: Any) -> None:
        """Send ``payload`` to every neighbor."""

    @abc.abstractmethod
    def set_alarm(self, name: str, hardware_value: float) -> None:
        """Arm (or re-arm) the named alarm to fire when ``H_v`` reaches
        ``hardware_value``.  An alarm in the past fires immediately after
        the current callback."""

    @abc.abstractmethod
    def cancel_alarm(self, name: str) -> None:
        """Disarm the named alarm (no-op if not armed)."""

    @abc.abstractmethod
    def probe(self, name: str, value: Any) -> None:
        """Record a measurement into the execution trace (no model power)."""


class AlgorithmNode(abc.ABC):
    """Per-node algorithm state machine."""

    def on_start(self, ctx: NodeContext) -> None:
        """The node initializes — spontaneously or on its first message.

        Hardware and logical clocks read 0 at this instant.  When the node
        was woken by a message, :meth:`on_message` is invoked immediately
        after with that message.
        """

    def on_message(self, ctx: NodeContext, sender: NodeId, payload: Any) -> None:
        """A message from ``sender`` becomes available (Algorithm 2)."""

    def on_alarm(self, ctx: NodeContext, name: str) -> None:
        """A previously armed hardware-time alarm fires."""

    def on_recover(self, ctx: NodeContext) -> None:
        """The node resumes after a crash (fault model, beyond the paper).

        Only invoked when an execution runs under a
        :class:`~repro.faults.schedule.FaultSchedule`.  The node re-enters
        with whatever state it held at the crash; clocks kept running
        (hardware at its drift rate, logical at multiplier 1), so all
        neighbor information is stale by the outage duration.  Alarms that
        would have fired during the outage fire once immediately after
        this callback unless re-armed or cancelled here.  The default
        does nothing — the algorithm simply resumes; recovery-aware
        algorithms override this to discard stale state (see
        :class:`~repro.variants.fault_tolerant.FaultTolerantAoptAlgorithm`).
        """


class Algorithm(abc.ABC):
    """Factory for algorithm nodes plus algorithm-level metadata."""

    #: Human-readable name used in reports and benchmark tables.
    name: str = "algorithm"
    #: Whether nodes may call :meth:`NodeContext.jump_logical` (β = ∞).
    allows_jumps: bool = False

    @abc.abstractmethod
    def make_node(self, node_id: NodeId, neighbors: Sequence[NodeId]) -> AlgorithmNode:
        """Create the state machine for one node."""

    def payload_bits(self, payload: Any) -> int:
        """Bits charged for sending ``payload`` (Section 6.2 accounting).

        The default charges :data:`DEFAULT_FIELD_BITS` per element of a
        tuple/list payload (or per payload otherwise); algorithms with
        engineered encodings override this.
        """
        if isinstance(payload, (tuple, list)):
            return DEFAULT_FIELD_BITS * len(payload)
        return DEFAULT_FIELD_BITS
