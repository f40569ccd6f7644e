"""``CertScenario`` — one fuzz case as pure, JSON-round-trippable data.

A scenario is the fuzzer's and shrinker's unit of work: a flat record of
topology family and size, algorithm variant, parameter regime, drift and
delay adversary kinds, horizon, and fault events.  It is deliberately
*more abstract* than :class:`~repro.exec.spec.ExecutionSpec` — every
field is a number, a short string, or a tuple of those — so that

* the shrinker can transform it structurally (swap the topology family,
  halve the horizon, drop a crash) without touching model objects;
* it serializes canonically (:meth:`CertScenario.canonical_json`) into
  repro artifacts that replay byte-identically; and
* fault events reference nodes *by index into the topology's node
  order*, which keeps a schedule meaningful while the shrinker removes
  nodes — events whose indices fall outside the shrunk topology are
  dropped deterministically at build time.

Dynamic-topology events (``edge_outages``, ``node_absences``) follow the
same index-based convention and compile to a
:class:`~repro.topology.dynamic.TopologySchedule`; each tuple is
self-contained (one outage interval), so the churn shrink pass can drop
them individually without orphaning a reappear event.

:meth:`CertScenario.build_spec` compiles a scenario to a fully concrete
``ExecutionSpec`` (with ``check_invariants=True`` so the envelope/rate/
monotonicity monitors ride along); everything downstream — digesting,
caching, parallel execution — is the existing exec layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro import algorithms
from repro.core.params import SyncParams
from repro.errors import ConfigurationError
from repro.exec.spec import ExecutionSpec
from repro.faults.schedule import FaultSchedule
from repro.sim.delays import ConstantDelay, UniformDelay, ZeroDelay
from repro.sim.drift import (
    AlternatingDrift,
    ConstantDrift,
    RandomWalkDrift,
    SinusoidalDrift,
    TwoGroupDrift,
)
from repro.topology.generators import (
    Topology,
    grid,
    line,
    random_connected,
    ring,
    star,
)

__all__ = [
    "CertScenario",
    "ALGORITHM_KINDS",
    "TOPOLOGY_KINDS",
    "DRIFT_KINDS",
    "DELAY_KINDS",
    "min_nodes",
    "valid_nodes",
]

#: ``(node_index, crash_at, recover_at_or_None)``
CrashEvent = Tuple[int, float, Optional[float]]
#: ``(node_index, byzantine_at, end_at_or_None)``
ByzantineEvent = Tuple[int, float, Optional[float]]
#: ``(u_index, v_index, down_at, up_at_or_None)``
LinkEvent = Tuple[int, int, float, Optional[float]]
#: ``(u_index, v_index, disappear_at, reappear_at_or_None)``
EdgeOutage = Tuple[int, int, float, Optional[float]]
#: ``(node_index, leave_at, rejoin_at_or_None)``
NodeAbsence = Tuple[int, float, Optional[float]]

#: Smallest node count each topology family supports.
_TOPOLOGY_MIN = {"line": 2, "ring": 3, "star": 2, "grid": 4, "random": 3}

TOPOLOGY_KINDS = tuple(_TOPOLOGY_MIN)
#: Drift kinds in decreasing adversarial complexity (shrink order).
#: ``two-group-tail`` mirrors ``two-group`` with the *tail* half fast, so
#: Byzantine scenarios can put a star's hub (node 0) in the slow group.
DRIFT_KINDS = (
    "random-walk",
    "sinusoidal",
    "alternating",
    "two-group-tail",
    "two-group",
    "constant",
)
#: Delay kinds in decreasing complexity (shrink order).
DELAY_KINDS = ("uniform", "constant", "zero")
#: Certifiable algorithms (the registry's ``certifiable`` trait); the last
#: three are the planted-violation controls.
ALGORITHM_KINDS = algorithms.names("certifiable")


def min_nodes(topology_kind: str) -> int:
    """Smallest valid node count for a topology family."""
    try:
        return _TOPOLOGY_MIN[topology_kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown topology kind {topology_kind!r}; "
            f"known: {', '.join(TOPOLOGY_KINDS)}"
        )


def valid_nodes(topology_kind: str, nodes: int) -> bool:
    """Is ``nodes`` a buildable size for the family? (grids must be even)"""
    if nodes < min_nodes(topology_kind):
        return False
    if topology_kind == "grid":
        return nodes % 2 == 0
    return True


@dataclass(frozen=True)
class CertScenario:
    """One fuzz case: everything needed to rebuild its ``ExecutionSpec``."""

    topology_kind: str
    nodes: int
    algorithm: str
    epsilon: float
    delay_bound: float
    horizon: float
    seed: int
    drift_kind: str = "two-group"
    delay_kind: str = "constant"
    crash_events: Tuple[CrashEvent, ...] = field(default_factory=tuple)
    link_events: Tuple[LinkEvent, ...] = field(default_factory=tuple)
    edge_outages: Tuple[EdgeOutage, ...] = field(default_factory=tuple)
    node_absences: Tuple[NodeAbsence, ...] = field(default_factory=tuple)
    byzantine_events: Tuple[ByzantineEvent, ...] = field(default_factory=tuple)

    # -- derived model objects ----------------------------------------------

    @property
    def has_faults(self) -> bool:
        return bool(self.crash_events or self.link_events)

    @property
    def has_byzantine(self) -> bool:
        return bool(self.byzantine_events)

    @property
    def has_topology_schedule(self) -> bool:
        return bool(self.edge_outages or self.node_absences)

    def build_topology(self) -> Topology:
        if not valid_nodes(self.topology_kind, self.nodes):
            raise ConfigurationError(
                f"{self.nodes} nodes is not a valid {self.topology_kind!r} size"
            )
        if self.topology_kind == "line":
            return line(self.nodes)
        if self.topology_kind == "ring":
            return ring(self.nodes)
        if self.topology_kind == "star":
            return star(self.nodes)
        if self.topology_kind == "grid":
            return grid(2, self.nodes // 2)
        return random_connected(self.nodes, p=0.4, seed=self.seed)

    def build_params(self) -> SyncParams:
        return SyncParams.recommended(self.epsilon, self.delay_bound)

    def _build_drift(self, topology: Topology):
        if self.drift_kind == "two-group":
            half = max(1, len(topology.nodes) // 2)
            return TwoGroupDrift(self.epsilon, fast_nodes=topology.nodes[:half])
        if self.drift_kind == "two-group-tail":
            half = max(1, len(topology.nodes) // 2)
            return TwoGroupDrift(self.epsilon, fast_nodes=topology.nodes[half:])
        if self.drift_kind == "random-walk":
            return RandomWalkDrift(
                self.epsilon,
                step_period=self.horizon / 8,
                step_size=self.epsilon / 2,
                seed=self.seed,
            )
        if self.drift_kind == "alternating":
            # Antiphase adjacent indices: the worst-case local-skew pattern.
            phases = {node: i % 2 for i, node in enumerate(topology.nodes)}
            return AlternatingDrift(
                self.epsilon, period=self.horizon / 4, phases=phases
            )
        if self.drift_kind == "sinusoidal":
            return SinusoidalDrift(self.epsilon, period=self.horizon / 2)
        if self.drift_kind == "constant":
            return ConstantDrift(self.epsilon, rate=1.0)
        raise ConfigurationError(
            f"unknown drift kind {self.drift_kind!r}; known: {', '.join(DRIFT_KINDS)}"
        )

    def _build_delay(self):
        if self.delay_kind == "constant":
            return ConstantDelay(self.delay_bound)
        if self.delay_kind == "uniform":
            return UniformDelay(0.0, self.delay_bound, seed=self.seed)
        if self.delay_kind == "zero":
            return ZeroDelay(max_delay=self.delay_bound)
        raise ConfigurationError(
            f"unknown delay kind {self.delay_kind!r}; known: {', '.join(DELAY_KINDS)}"
        )

    def build_faults(self, topology: Topology) -> Optional[FaultSchedule]:
        """Compile fault events, dropping those that reference absent nodes.

        Index-based references plus deterministic dropping make fault
        schedules *robust to shrinking*: removing nodes simply prunes the
        events that mentioned them.
        """
        n = len(topology.nodes)
        crashes = [e for e in self.crash_events if e[0] < n]
        links = [
            e
            for e in self.link_events
            if e[0] < n
            and e[1] < n
            and topology.nodes[e[1]] in topology.neighbors(topology.nodes[e[0]])
        ]
        byzantine = [e for e in self.byzantine_events if e[0] < n]
        if not crashes and not links and not byzantine:
            return None
        magnitude = 0.0
        if byzantine:
            from repro.topology.properties import diameter
            from repro.variants.ftgcs import ftgcs_rejection_window

            # Corrupt estimates six honest-offset windows out: even the
            # shallowest per-message draw (magnitude/4, the equivocation
            # floor) lands far past any legitimate value, so the ftgcs
            # filter always rejects it while an unfiltered victim's rate
            # rule stalls until it lags by well over the certified bound.
            # Recomputed from the *built* topology (like the filter's own
            # window) so shrinking stays consistent.
            magnitude = 6.0 * ftgcs_rejection_window(
                self.build_params(), diameter(topology)
            )
        schedule = FaultSchedule(seed=self.seed, byzantine_magnitude=magnitude)
        for idx, at, until in crashes:
            schedule.crash(topology.nodes[idx], at=at, until=until)
        for u, v, at, until in links:
            schedule.link_down(
                topology.nodes[u], topology.nodes[v], at=at, until=until
            )
        for idx, at, until in byzantine:
            schedule.byzantine(topology.nodes[idx], at=at, until=until)
        return schedule

    def build_topology_schedule(self, topology: Topology):
        """Compile churn events to a ``TopologySchedule`` (or None if empty).

        Index-based and deterministically pruned exactly like
        :meth:`build_faults`: outages on edges the (possibly shrunk)
        topology no longer has, and absences of nodes it no longer has,
        are dropped rather than rejected.
        """
        from repro.topology.dynamic import TopologySchedule

        n = len(topology.nodes)
        outages = [
            e
            for e in self.edge_outages
            if e[0] < n
            and e[1] < n
            and topology.nodes[e[1]] in topology.neighbors(topology.nodes[e[0]])
        ]
        absences = [e for e in self.node_absences if e[0] < n]
        if not outages and not absences:
            return None
        schedule = TopologySchedule(seed=self.seed)
        for u, v, at, until in outages:
            schedule.edge_disappears(
                topology.nodes[u], topology.nodes[v], at=at, until=until
            )
        for idx, at, until in absences:
            schedule.leaves(topology.nodes[idx], at=at, until=until)
        return schedule

    def label(self) -> str:
        tag = "+faults" if self.has_faults else ""
        if self.has_topology_schedule:
            tag += "+dyn"
        if self.has_byzantine:
            tag += "+byz"
        return (
            f"cert:{self.algorithm}:{self.topology_kind}-{self.nodes}"
            f":{self.drift_kind}/{self.delay_kind}:s{self.seed}{tag}"
        )

    def build_spec(self) -> ExecutionSpec:
        """Compile to a concrete, digestable, monitor-carrying spec."""
        if self.algorithm not in ALGORITHM_KINDS:
            raise ConfigurationError(
                f"unknown certifiable algorithm {self.algorithm!r}; "
                f"known: {', '.join(ALGORITHM_KINDS)}"
            )
        topology = self.build_topology()
        params = self.build_params()
        return ExecutionSpec(
            topology=topology,
            algorithm=algorithms.build(self.algorithm, params, topology),
            drift=self._build_drift(topology),
            delay=self._build_delay(),
            horizon=self.horizon,
            seed=self.seed,
            check_invariants=True,
            params=params,
            faults=self.build_faults(topology),
            topology_schedule=self.build_topology_schedule(topology),
            label=self.label(),
        )

    def diameter(self) -> int:
        from repro.topology.properties import diameter

        return diameter(self.build_topology())

    # -- serialization -------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        return {
            "topology_kind": self.topology_kind,
            "nodes": self.nodes,
            "algorithm": self.algorithm,
            "epsilon": self.epsilon,
            "delay_bound": self.delay_bound,
            "horizon": self.horizon,
            "seed": self.seed,
            "drift_kind": self.drift_kind,
            "delay_kind": self.delay_kind,
            "crash_events": [list(e) for e in self.crash_events],
            "link_events": [list(e) for e in self.link_events],
            "edge_outages": [list(e) for e in self.edge_outages],
            "node_absences": [list(e) for e in self.node_absences],
            "byzantine_events": [list(e) for e in self.byzantine_events],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CertScenario":
        return cls(
            topology_kind=str(data["topology_kind"]),
            nodes=int(data["nodes"]),
            algorithm=str(data["algorithm"]),
            epsilon=float(data["epsilon"]),
            delay_bound=float(data["delay_bound"]),
            horizon=float(data["horizon"]),
            seed=int(data["seed"]),
            drift_kind=str(data["drift_kind"]),
            delay_kind=str(data["delay_kind"]),
            crash_events=tuple(
                (int(n), float(at), None if until is None else float(until))
                for n, at, until in data.get("crash_events", [])
            ),
            link_events=tuple(
                (int(u), int(v), float(at), None if until is None else float(until))
                for u, v, at, until in data.get("link_events", [])
            ),
            edge_outages=tuple(
                (int(u), int(v), float(at), None if until is None else float(until))
                for u, v, at, until in data.get("edge_outages", [])
            ),
            node_absences=tuple(
                (int(n), float(at), None if until is None else float(until))
                for n, at, until in data.get("node_absences", [])
            ),
            byzantine_events=tuple(
                (int(n), float(at), None if until is None else float(until))
                for n, at, until in data.get("byzantine_events", [])
            ),
        )

    def canonical_json(self) -> str:
        """Compact, key-sorted JSON — the scenario's canonical identity."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    def with_changes(self, **changes) -> "CertScenario":
        return replace(self, **changes)
