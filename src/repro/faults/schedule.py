"""Declarative, seedable fault timelines.

The paper's model assumes ever-live nodes and reliable links (Section 3).
A :class:`FaultSchedule` describes the ways an execution departs from
that model:

* **node faults** — a node *crashes* at a time (stops processing events;
  its hardware oscillator keeps running and its logical clock free-runs
  at multiplier 1) and may later *recover* (resumes processing with
  whatever state it had, see ``AlgorithmNode.on_recover``);
* **link faults** — an undirected edge goes *down* for an interval;
  messages sent over a downed link are lost;
* **message faults** — independent per-message drop / duplicate /
  delay-spike decisions with the given probabilities;
* **Byzantine faults** — a node turns *Byzantine* for an interval: it
  keeps running the algorithm, but every estimate message it sends is
  corrupted in transit (perturbed, equivocated per receiver, or replaced
  by a stale replay) with magnitudes keyed by the per-message hash.

A schedule is *pure data*: building one performs no randomness and holds
no caches, so it pickles, deep-copies, and enters the canonical
:class:`~repro.exec.spec.ExecutionSpec` digest — two sweeps with the same
schedule replay byte-identically, and any change to a fault time or a
probability changes the digest.  Probabilistic message faults are keyed
per message by :func:`~repro.faults.hashing.stable_uniform`, never by a
shared RNG stream, so they are independent of event processing order.

Interval semantics: a node is down on ``[crash, recover)`` and a link on
``[down, up)``; a fault with no clearing event lasts forever.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ScheduleError
from repro.topology._intervals import check_time as _check_time

__all__ = [
    "FaultSchedule",
    "NODE_CRASH",
    "NODE_RECOVER",
    "LINK_DOWN",
    "LINK_UP",
    "BYZANTINE",
    "BYZANTINE_END",
]

NodeId = Hashable
Edge = Tuple[NodeId, NodeId]

NODE_CRASH = "crash"
NODE_RECOVER = "recover"
LINK_DOWN = "link-down"
LINK_UP = "link-up"
BYZANTINE = "byzantine"
BYZANTINE_END = "byzantine-end"


def _check_probability(name: str, value: float) -> float:
    if not (0 <= value < 1):
        raise ScheduleError(f"{name} must be in [0, 1), got {value}")
    return float(value)


class FaultSchedule:  # reprolint: digest-critical
    """A timeline of node/link faults plus per-message fault probabilities.

    Parameters
    ----------
    drop_probability, duplicate_probability, spike_probability:
        Independent per-message fault probabilities in ``[0, 1)``.
    spike_delay:
        Extra transit time added to a spiked message.  It is added *after*
        the delay model and may exceed the model's bound ``T`` — a delay
        spike is precisely a violation of the timing assumption.
    byzantine_magnitude:
        Scale of the estimate corruption applied to messages sent by a
        Byzantine node (see :meth:`FaultInjector.corrupt_payload
        <repro.faults.injector.FaultInjector.corrupt_payload>`).  Must be
        positive if any ``byzantine`` events are scheduled.
    seed:
        Keys the per-message hash decisions (see module docstring).

    Node and link events are added with the chainable builder methods::

        schedule = (FaultSchedule()
                    .crash(3, at=50.0, until=80.0)
                    .link_down(0, 1, at=100.0, until=140.0))
    """

    def __init__(
        self,
        drop_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        spike_probability: float = 0.0,
        spike_delay: float = 0.0,
        byzantine_magnitude: float = 0.0,
        seed: int = 0,
    ):
        self.drop_probability = _check_probability(
            "drop_probability", drop_probability
        )
        self.duplicate_probability = _check_probability(
            "duplicate_probability", duplicate_probability
        )
        self.spike_probability = _check_probability(
            "spike_probability", spike_probability
        )
        self.spike_delay = _check_time("spike_delay", spike_delay)
        if self.spike_probability > 0 and self.spike_delay <= 0:
            raise ScheduleError(
                "spike_probability > 0 requires a positive spike_delay"
            )
        self.byzantine_magnitude = _check_time(
            "byzantine_magnitude", byzantine_magnitude
        )
        self.seed = int(seed)
        #: ``(time, node, kind)`` tuples in insertion order.
        self.node_events: List[Tuple[float, NodeId, str]] = []
        #: ``(time, (u, v), kind)`` tuples in insertion order.
        self.link_events: List[Tuple[float, Edge, str]] = []
        #: ``(time, node, kind)`` tuples in insertion order.
        self.byzantine_events: List[Tuple[float, NodeId, str]] = []

    # -- builder API ---------------------------------------------------------

    def crash(
        self, node: NodeId, at: float, until: Optional[float] = None
    ) -> "FaultSchedule":
        """Crash ``node`` at time ``at``; recover at ``until`` if given."""
        at = _check_time("crash time", at)
        self.node_events.append((at, node, NODE_CRASH))
        if until is not None:
            self.recover(node, until)
        return self

    def recover(self, node: NodeId, at: float) -> "FaultSchedule":
        """Recover ``node`` at time ``at`` (must follow a crash)."""
        self.node_events.append((_check_time("recover time", at), node, NODE_RECOVER))
        return self

    def link_down(
        self, u: NodeId, v: NodeId, at: float, until: Optional[float] = None
    ) -> "FaultSchedule":
        """Take the undirected link ``{u, v}`` down at ``at`` (up at ``until``)."""
        at = _check_time("link-down time", at)
        self.link_events.append((at, (u, v), LINK_DOWN))
        if until is not None:
            self.link_up(u, v, until)
        return self

    def link_up(self, u: NodeId, v: NodeId, at: float) -> "FaultSchedule":
        """Restore the undirected link ``{u, v}`` at time ``at``."""
        self.link_events.append((_check_time("link-up time", at), (u, v), LINK_UP))
        return self

    def byzantine(
        self, node: NodeId, at: float, until: Optional[float] = None
    ) -> "FaultSchedule":
        """Turn ``node`` Byzantine on ``[at, until)`` (forever if no ``until``)."""
        at = _check_time("byzantine time", at)
        self.byzantine_events.append((at, node, BYZANTINE))
        if until is not None:
            self.byzantine_events.append(
                (_check_time("byzantine-end time", until), node, BYZANTINE_END)
            )
        return self

    def partition(
        self, edges: Iterable[Edge], at: float, until: Optional[float] = None
    ) -> "FaultSchedule":
        """Take every edge of a cut down for ``[at, until)`` — a partition."""
        for u, v in edges:
            self.link_down(u, v, at, until)
        return self

    # -- generators ----------------------------------------------------------

    @classmethod
    def random_crash_cycles(
        cls,
        nodes: Sequence[NodeId],
        crash_rate: float,
        mean_downtime: float,
        horizon: float,
        start: float = 0.0,
        seed: int = 0,
        **message_faults,
    ) -> "FaultSchedule":
        """Independent crash/recover cycles per node (deterministic per seed).

        Each node alternates up-times ``~ Exp(crash_rate)`` and down-times
        ``~ Exp(1/mean_downtime)``, drawn from a per-node stream seeded by
        ``(seed, node)`` — node iteration order does not matter.  No fault
        occurs before ``start`` (leave room for the initialization flood).
        ``message_faults`` forwards to the constructor (drop/duplicate/
        spike settings share the same ``seed``).
        """
        import random

        if crash_rate <= 0:
            raise ScheduleError(f"crash_rate must be positive, got {crash_rate}")
        if mean_downtime <= 0:
            raise ScheduleError(
                f"mean_downtime must be positive, got {mean_downtime}"
            )
        schedule = cls(seed=seed, **message_faults)
        for node in nodes:
            rng = random.Random(f"faults:{seed}:{node!r}")
            t = start + rng.expovariate(crash_rate)
            while t < horizon:
                down_for = rng.expovariate(1.0 / mean_downtime)
                recover_at = t + down_for
                schedule.crash(node, at=t, until=recover_at)
                t = recover_at + rng.expovariate(crash_rate)
        return schedule

    # -- queries -------------------------------------------------------------

    @property
    def has_message_faults(self) -> bool:
        return (
            self.drop_probability > 0
            or self.duplicate_probability > 0
            or self.spike_probability > 0
        )

    @property
    def has_byzantine(self) -> bool:
        return bool(self.byzantine_events)

    def boundaries(self, horizon: float) -> List[float]:
        """Sorted unique fault-event times within ``[0, horizon]``.

        These split an execution into *fault epochs* — maximal intervals
        on which the fault state is constant (see
        :func:`repro.faults.metrics.fault_epochs`).
        """
        times = {t for t, _, _ in self.node_events if t <= horizon}
        times.update(t for t, _, _ in self.link_events if t <= horizon)
        times.update(t for t, _, _ in self.byzantine_events if t <= horizon)
        return sorted(times)

    def cleared_time(self) -> float:
        """The time of the last scheduled fault event (0.0 if none).

        After this instant no further fault state changes occur; if every
        fault has a clearing event this is when the system is whole again,
        which anchors the time-to-resynchronize metric.
        """
        last = 0.0
        for t, _, _ in self.node_events:
            last = max(last, t)
        for t, _, _ in self.link_events:
            last = max(last, t)
        for t, _, _ in self.byzantine_events:
            last = max(last, t)
        return last

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultSchedule(node_events={len(self.node_events)}, "
            f"link_events={len(self.link_events)}, "
            f"byzantine_events={len(self.byzantine_events)}, "
            f"drop={self.drop_probability}, dup={self.duplicate_probability}, "
            f"spike={self.spike_probability}@{self.spike_delay}, "
            f"seed={self.seed})"
        )
