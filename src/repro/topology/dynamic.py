"""Declarative dynamic-topology schedules.

The paper's gradient bounds hold on a *static* connected graph
(Section 3), but the dynamic-networks extension — "Optimal Gradient
Clock Synchronization in Dynamic Networks" (Kuhn–Lenzen–Locher–Oshman)
— asks what happens when the graph itself changes: edges appear and
disappear, nodes join and leave mid-execution, and partitioned
components re-merge.  A :class:`TopologySchedule` describes such an
execution over a fixed *union graph* (the static
:class:`~repro.topology.generators.Topology` holding every node and
edge that ever exists):

* **edge dynamics** — an undirected edge is *absent* for one or more
  ``[start, end)`` intervals; a message sent while its edge is absent
  is lost (exactly the link-fault semantics of :mod:`repro.faults`);
* **node dynamics** — a node may be absent for ``[start, end)``
  intervals.  A node that is absent from time 0 *joins* the network at
  the end of its first interval and is integrated by the first message
  it receives, per the paper's Section 4.2 initialization rule.  A
  started node that *leaves* free-runs at multiplier 1 (its hardware
  oscillator keeps ticking) and, on rejoining, is reintegrated through
  the ``AlgorithmNode.on_recover`` hook.

A schedule is *pure data*, exactly like
:class:`~repro.faults.schedule.FaultSchedule`: building one performs no
randomness and holds no caches, so it pickles, deep-copies, and enters
the canonical :class:`~repro.exec.spec.ExecutionSpec` digest — any
change to an appear/disappear time changes the digest, and two sweeps
with the same schedule replay byte-identically.  The engine-side
runtime queries live in :class:`CompiledTopologySchedule`, which never
enters a digest and may precompute freely.

Interval semantics match the fault layer: an edge or node is absent on
``[start, end)``; an absence with no clearing event lasts forever.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ScheduleError
from repro.topology._intervals import Windows, check_time as _check_time, total_overlap

__all__ = [
    "TopologySchedule",
    "CompiledTopologySchedule",
    "merged_downtime",
    "EDGE_DOWN",
    "EDGE_UP",
    "NODE_LEAVE",
    "NODE_JOIN",
]

NodeId = Hashable
Edge = Tuple[NodeId, NodeId]

EDGE_DOWN = "edge-down"
EDGE_UP = "edge-up"
NODE_LEAVE = "leave"
NODE_JOIN = "join"


class TopologySchedule:  # reprolint: digest-critical
    """A timeline of edge appear/disappear and node join/leave events.

    Events are added with the chainable builder methods::

        schedule = (TopologySchedule()
                    .edge_appears(3, 4, at=40.0)     # bridge absent on [0, 40)
                    .leaves(7, at=90.0, until=120.0) # node 7 gone for a while
                    .joins(9, at=60.0))              # node 9 exists from 60.0

    The schedule is interpreted against the execution's *union graph*:
    every node and edge it names must exist in the static topology, which
    is connected (:class:`~repro.topology.generators.Topology` checks that
    at construction).
    """

    def __init__(self, seed: int = 0):
        #: Keys the deterministic :meth:`churn` generator.
        self.seed = int(seed)
        #: ``(time, (u, v), kind)`` tuples in insertion order.
        self.edge_events: List[Tuple[float, Edge, str]] = []
        #: ``(time, node, kind)`` tuples in insertion order.
        self.node_events: List[Tuple[float, NodeId, str]] = []

    # -- builder API: edges --------------------------------------------------

    def edge_disappears(
        self, u: NodeId, v: NodeId, at: float, until: Optional[float] = None
    ) -> "TopologySchedule":
        """Remove the undirected edge ``{u, v}`` at ``at`` (back at ``until``)."""
        at = _check_time("edge-disappear time", at)
        self.edge_events.append((at, (u, v), EDGE_DOWN))
        if until is not None:
            self.edge_reappears(u, v, until)
        return self

    def edge_reappears(self, u: NodeId, v: NodeId, at: float) -> "TopologySchedule":
        """Restore the undirected edge ``{u, v}`` at time ``at``."""
        self.edge_events.append(
            (_check_time("edge-reappear time", at), (u, v), EDGE_UP)
        )
        return self

    def edge_appears(self, u: NodeId, v: NodeId, at: float) -> "TopologySchedule":
        """The edge ``{u, v}`` does not exist until time ``at``.

        Sugar for an absence interval ``[0, at)`` — this is how a network
        *merge* is expressed: the bridge edges appear at the merge time.
        """
        return self.edge_disappears(u, v, 0.0, until=at)

    def partition(
        self, edges: Iterable[Edge], at: float, until: Optional[float] = None
    ) -> "TopologySchedule":
        """Remove every edge of a cut for ``[at, until)`` — a partition."""
        for u, v in edges:
            self.edge_disappears(u, v, at, until)
        return self

    def merge(self, edges: Iterable[Edge], at: float) -> "TopologySchedule":
        """The cut ``edges`` does not exist before ``at`` — a network merge.

        Components on either side of the cut run independently from time
        0 and are joined when the bridge edges appear at ``at``.
        """
        for u, v in edges:
            self.edge_appears(u, v, at)
        return self

    # -- builder API: nodes --------------------------------------------------

    def leaves(
        self, node: NodeId, at: float, until: Optional[float] = None
    ) -> "TopologySchedule":
        """``node`` leaves the network at ``at``; rejoins at ``until`` if given."""
        at = _check_time("leave time", at)
        self.node_events.append((at, node, NODE_LEAVE))
        if until is not None:
            self.rejoins(node, until)
        return self

    def rejoins(self, node: NodeId, at: float) -> "TopologySchedule":
        """``node`` re-enters the network at time ``at`` (must follow a leave)."""
        self.node_events.append((_check_time("join time", at), node, NODE_JOIN))
        return self

    def joins(self, node: NodeId, at: float) -> "TopologySchedule":
        """``node`` does not exist until time ``at`` (absent on ``[0, at)``).

        The joining node is integrated by the first message it receives
        after ``at`` (Section 4.2 semantics); give the flood enough
        horizon headroom or the engine reports it as never initialized.
        """
        return self.leaves(node, 0.0, until=at)

    # -- generators ----------------------------------------------------------

    @classmethod
    def churn(
        cls,
        edges: Sequence[Edge],
        churn_rate: float,
        mean_outage: float,
        horizon: float,
        start: float = 0.0,
        seed: int = 0,
    ) -> "TopologySchedule":
        """Independent edge flap cycles (deterministic per seed).

        Each edge alternates present-times ``~ Exp(churn_rate)`` and
        absent-times ``~ Exp(1/mean_outage)``, drawn from a per-edge
        stream seeded by ``(seed, u, v)`` — edge iteration order does not
        matter.  No edge disappears before ``start`` (leave room for the
        initialization flood), and every outage is eventually closed
        (possibly after ``horizon``), so no edge is absent forever.
        """
        import random

        if churn_rate <= 0:
            raise ScheduleError(f"churn_rate must be positive, got {churn_rate}")
        if mean_outage <= 0:
            raise ScheduleError(f"mean_outage must be positive, got {mean_outage}")
        schedule = cls(seed=seed)
        for u, v in edges:
            rng = random.Random(f"churn:{seed}:{u!r}:{v!r}")
            t = start + rng.expovariate(churn_rate)
            while t < horizon:
                reappear_at = t + rng.expovariate(1.0 / mean_outage)
                schedule.edge_disappears(u, v, at=t, until=reappear_at)
                t = reappear_at + rng.expovariate(churn_rate)
        return schedule

    # -- queries -------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.edge_events and not self.node_events

    def boundaries(self, horizon: float) -> List[float]:
        """Sorted unique topology-event times within ``[0, horizon]``."""
        times = {t for t, _, _ in self.edge_events if t <= horizon}
        times.update(t for t, _, _ in self.node_events if t <= horizon)
        return sorted(times)

    def last_change_time(self, horizon: Optional[float] = None) -> float:
        """The time of the last topology change (0.0 if none).

        After this instant the graph is static; the stabilization bound
        of the dynamic-networks analysis is anchored here.  With a
        ``horizon``, events beyond it are ignored.
        """
        last = 0.0
        for t, _, _ in self.edge_events:
            if horizon is None or t <= horizon:
                last = max(last, t)
        for t, _, _ in self.node_events:
            if horizon is None or t <= horizon:
                last = max(last, t)
        return last

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TopologySchedule(edge_events={len(self.edge_events)}, "
            f"node_events={len(self.node_events)}, seed={self.seed})"
        )


def merged_downtime(
    interval_lists: Sequence[Sequence[Tuple[float, float]]], a: float, b: float
) -> float:
    """Length of the union of ``[start, end)`` intervals overlapping ``[a, b]``.

    Used by the engine to report per-node downtime when *both* a fault
    schedule and a topology schedule cover a node — a crash during an
    absence must not be counted twice.  With a single source this sums
    the same per-interval overlaps, in the same order, as
    :meth:`~repro.topology._intervals.Windows.overlap`.
    """
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(
        interval for intervals in interval_lists for interval in intervals
    ):
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return total_overlap(merged, a, b)


class CompiledTopologySchedule:
    """Fast interval lookups over a :class:`TopologySchedule`.

    Engine-side runtime state, the analogue of
    :class:`~repro.faults.injector.FaultInjector`: it never enters a
    spec digest and may precompute freely.

    Parameters
    ----------
    schedule:
        The declarative timeline.
    topology:
        Optional union graph; when given, every node and edge the
        schedule names is validated against it so a typo'd target fails
        loudly instead of silently never firing.
    """

    def __init__(self, schedule: TopologySchedule, topology=None):
        self.schedule = schedule
        self._nodes = Windows(schedule.node_events, NODE_LEAVE, NODE_JOIN, "node")
        self._edges = Windows(
            schedule.edge_events, EDGE_DOWN, EDGE_UP, "edge", pairs=True
        )
        if topology is not None:
            for windows in (self._nodes, self._edges):
                windows.check_targets(topology, "topology schedule")

    # -- node state ----------------------------------------------------------

    def node_timeline(self) -> List[Tuple[float, NodeId, str]]:
        """All node leave/join transitions, time-sorted.

        The engine turns these into queue events; join transitions at
        infinity (nodes that leave forever) are not included.
        """
        return self._nodes.timeline()

    def is_node_absent(self, node: NodeId, t: float) -> bool:
        return self._nodes.is_down(node, t)

    def next_presence(self, node: NodeId, t: float) -> Optional[float]:
        """The end of the absence interval covering ``t``, or None.

        ``None`` means the node is either present at ``t`` or absent
        forever.
        """
        return self._nodes.next_up(node, t)

    def node_absence_intervals(self, node: NodeId) -> Tuple[Tuple[float, float], ...]:
        """The compiled ``[start, end)`` absence intervals of ``node``."""
        return self._nodes.intervals(node)

    def absence_in(self, node: NodeId, a: float, b: float) -> float:
        """Total scheduled absence of ``node`` overlapping ``[a, b]``."""
        return self._nodes.overlap(node, a, b)

    # -- edge state ----------------------------------------------------------

    def is_edge_absent(self, u: NodeId, v: NodeId, t: float) -> bool:
        return self._edges.is_down((u, v), t)
