"""Dynamic-topology model: schedules, engine semantics, parity, workers.

The :class:`~repro.topology.dynamic.TopologySchedule` is the first-class
dynamic-graph model (``docs/DYNAMIC.md``): timed edge appear/disappear,
node join/leave, partitions that re-merge.  These tests pin

* the schedule builder and :class:`CompiledTopologySchedule` query
  semantics (half-open ``[at, until)`` intervals, churn determinism);
* the engine semantics — absent edges lose messages, absent nodes
  neither send nor receive, joiners integrate via their first message
  (§4.2) exactly like a network merge;
* byte-exact parity of the fast engine's trace and streaming modes
  (``record_trace=False``) against pinned fingerprints
  (``tests/test_engine_parity.py``), across merge and partition
  scenarios;
* workers=N == workers=1 byte-identity when a schedule rides the spec;
* the mirror oracle: the same windows given as crashes and downed links
  or as leaves and absent edges run identically, up to the names in the
  event log.
"""

import dataclasses
import pickle
import random

import pytest

from tests.test_engine_parity import assert_pinned

from repro.core.node import AoptAlgorithm
from repro.core.params import SyncParams
from repro.errors import ScheduleError
from repro.exec import ExecutionSpec, SweepExecutor
from repro.faults import FaultSchedule
from repro.sim.delays import ConstantDelay, UniformDelay
from repro.sim.drift import RandomWalkDrift, TwoGroupDrift
from repro.topology.dynamic import CompiledTopologySchedule, TopologySchedule
from repro.topology.generators import grid, line, ring
from repro.variants import FaultTolerantAoptAlgorithm
from repro.variants.kllo_dynamic import KlloDynamicAlgorithm

pytestmark = pytest.mark.dynamic

PARAMS = SyncParams.recommended(epsilon=0.05, delay_bound=1.0)


# ---------------------------------------------------------------------------
# Schedule builder + compiled queries
# ---------------------------------------------------------------------------


class TestScheduleBuilder:
    def test_edge_outage_interval_is_half_open(self):
        schedule = TopologySchedule().edge_disappears(0, 1, at=5.0, until=9.0)
        compiled = CompiledTopologySchedule(schedule)
        assert not compiled.is_edge_absent(0, 1, 4.999)
        assert compiled.is_edge_absent(0, 1, 5.0)
        assert compiled.is_edge_absent(0, 1, 8.999)
        assert not compiled.is_edge_absent(0, 1, 9.0)
        # Undirected: both orientations agree.
        assert compiled.is_edge_absent(1, 0, 7.0)

    def test_edge_appears_is_absence_from_zero(self):
        schedule = TopologySchedule().edge_appears(3, 4, at=80.0)
        compiled = CompiledTopologySchedule(schedule)
        assert compiled.is_edge_absent(3, 4, 0.0)
        assert compiled.is_edge_absent(3, 4, 79.999)
        assert not compiled.is_edge_absent(3, 4, 80.0)

    def test_partition_and_merge_cover_the_cut(self):
        cut = [(2, 3), (7, 0)]
        part = CompiledTopologySchedule(
            TopologySchedule().partition(cut, at=10.0, until=20.0)
        )
        merge = CompiledTopologySchedule(TopologySchedule().merge(cut, at=15.0))
        for u, v in cut:
            assert part.is_edge_absent(u, v, 12.0)
            assert not part.is_edge_absent(u, v, 20.0)
            assert merge.is_edge_absent(u, v, 14.999)
            assert not merge.is_edge_absent(u, v, 15.0)

    def test_node_leave_rejoin_and_join(self):
        schedule = TopologySchedule().leaves(2, at=4.0, until=6.0).joins(5, at=3.0)
        compiled = CompiledTopologySchedule(schedule)
        assert not compiled.is_node_absent(2, 3.999)
        assert compiled.is_node_absent(2, 4.0)
        assert not compiled.is_node_absent(2, 6.0)
        assert compiled.is_node_absent(5, 0.0)
        assert not compiled.is_node_absent(5, 3.0)
        assert compiled.next_presence(5, 1.0) == 3.0
        assert compiled.absence_in(2, 0.0, 10.0) == pytest.approx(2.0)

    def test_boundaries_and_last_change_time(self):
        schedule = (
            TopologySchedule()
            .edge_disappears(0, 1, at=5.0, until=9.0)
            .leaves(3, at=7.0, until=30.0)
        )
        assert schedule.boundaries(10.0) == [5.0, 7.0, 9.0]
        assert schedule.last_change_time(10.0) == 9.0
        assert schedule.last_change_time() == 30.0
        assert schedule.last_change_time(4.0) == 0.0
        assert TopologySchedule().is_empty
        assert not schedule.is_empty

    def test_negative_times_rejected(self):
        with pytest.raises(ScheduleError):
            TopologySchedule().edge_disappears(0, 1, at=-1.0)
        with pytest.raises(ScheduleError):
            TopologySchedule().leaves(0, at=-0.5)

    def test_churn_is_deterministic_and_order_free(self):
        edges = line(5).edges()
        a = TopologySchedule.churn(edges, 0.05, 4.0, 100.0, seed=9)
        b = TopologySchedule.churn(list(reversed(edges)), 0.05, 4.0, 100.0, seed=9)
        assert sorted(a.edge_events) == sorted(b.edge_events)
        other = TopologySchedule.churn(edges, 0.05, 4.0, 100.0, seed=10)
        assert sorted(a.edge_events) != sorted(other.edge_events)

    def test_churn_outages_all_heal_and_respect_start(self):
        schedule = TopologySchedule.churn(
            line(6).edges(), 0.1, 3.0, 80.0, start=20.0, seed=1
        )
        downs = [e for e in schedule.edge_events if e[2] == "edge-down"]
        ups = [e for e in schedule.edge_events if e[2] == "edge-up"]
        assert downs and len(downs) == len(ups)
        assert min(t for t, _, _ in downs) >= 20.0

    def test_churn_validates_rates(self):
        with pytest.raises(ScheduleError):
            TopologySchedule.churn(line(3).edges(), 0.0, 4.0, 100.0)
        with pytest.raises(ScheduleError):
            TopologySchedule.churn(line(3).edges(), 0.1, -1.0, 100.0)


class TestScheduleDigest:
    def _spec(self, schedule):
        return ExecutionSpec(
            line(4), AoptAlgorithm(PARAMS), TwoGroupDrift(0.05, [0, 1]),
            ConstantDelay(1.0), 40.0, topology_schedule=schedule,
        )

    def test_identical_schedules_digest_identically(self):
        build = lambda: TopologySchedule().partition([(1, 2)], 10.0, 20.0)
        assert self._spec(build()).digest() == self._spec(build()).digest()

    def test_any_event_change_shifts_the_digest(self):
        base = self._spec(TopologySchedule().partition([(1, 2)], 10.0, 20.0))
        moved = self._spec(TopologySchedule().partition([(1, 2)], 10.0, 20.5))
        assert base.digest() != moved.digest()


# ---------------------------------------------------------------------------
# Engine semantics
# ---------------------------------------------------------------------------


def _run(spec):
    return spec.run()


class TestEngineSemantics:
    def test_absent_edge_loses_messages(self):
        # The only edge of a line-2 goes down for [5, 15): every send in
        # that window is accounted as lost-to-link (not delivered late),
        # while traffic outside the window flows normally.
        spec = ExecutionSpec(
            line(2), AoptAlgorithm(PARAMS), TwoGroupDrift(0.05, [0]),
            ConstantDelay(1.0), 25.0,
            topology_schedule=TopologySchedule().edge_disappears(
                0, 1, at=5.0, until=15.0
            ),
        )
        trace, _ = spec.run(record_events=True)
        assert 0 < trace.messages_lost_link < trace.total_messages()
        outage_sends = [
            e for e in trace.event_log
            if e[0] == "send" and 5.0 <= e[1] < 15.0
        ]
        assert outage_sends == []
        drops = [
            e for e in trace.event_log
            if e[0] == "drop" and e[3].get("reason") == "edge-absent"
        ]
        assert len(drops) == trace.messages_lost_link

    def test_absent_node_is_silent_and_deaf(self):
        # Node 1 (interior) leaves for [8, 14): the event log must show
        # no sends from it inside the window, and deliveries to it are
        # dropped with reason "absent".
        schedule = TopologySchedule().leaves(1, at=8.0, until=14.0)
        spec = ExecutionSpec(
            line(3), AoptAlgorithm(PARAMS), TwoGroupDrift(0.05, [0]),
            ConstantDelay(1.0), 30.0, topology_schedule=schedule,
        )
        trace, _ = spec.run(record_events=True)
        sends_while_absent = [
            e for e in trace.event_log
            if e[0] == "send" and e[2] == 1 and 8.0 <= e[1] < 14.0
        ]
        assert sends_while_absent == []
        absent_drops = [
            e for e in trace.event_log
            if e[0] == "drop" and e[2] == 1 and e[3].get("reason") == "absent"
        ]
        assert absent_drops
        leave_join = [e[0] for e in trace.event_log if e[0] in ("leave", "join")]
        assert leave_join == ["leave", "join"]

    def test_late_joiner_integrates_by_first_message(self):
        # §4.2: node 3 of a line-4 does not exist until t=15; afterwards
        # its neighbor's first message initializes it and it converges
        # into the common envelope.
        schedule = TopologySchedule().joins(3, at=15.0)
        spec = ExecutionSpec(
            line(4), AoptAlgorithm(PARAMS), TwoGroupDrift(0.05, [0, 1]),
            ConstantDelay(1.0), 120.0, topology_schedule=schedule,
            check_invariants=True, params=PARAMS,
        )
        trace, _ = spec.run(record_events=True)
        first_send = min(
            (e[1] for e in trace.event_log if e[0] == "send" and e[2] == 3),
            default=None,
        )
        assert first_send is not None and first_send >= 15.0
        # Once integrated, the joiner tracks the network: the tail obeys
        # the connected-graph bound instead of diverging.
        from repro.core.bounds import global_skew_bound

        assert trace.spread_at(trace.horizon) <= (
            global_skew_bound(PARAMS, 3) + 1e-7
        )

    def test_partition_diverges_then_remerge_reconverges(self):
        cut = [(2, 3)]
        schedule = TopologySchedule().partition(cut, at=20.0, until=120.0)
        spec = ExecutionSpec(
            line(6), KlloDynamicAlgorithm(PARAMS), TwoGroupDrift(0.05, [0, 1, 2]),
            ConstantDelay(1.0), 300.0, topology_schedule=schedule,
            check_invariants=True, params=PARAMS,
        )
        summary = spec.run_summary()
        # The halves drifted apart while cut but the stabilization
        # monitor (armed after the re-merge settles) stays clean.
        assert summary.global_skew > 2 * 0.05 * 60.0
        assert not summary.monitor_violations


# ---------------------------------------------------------------------------
# Parity: trace and streaming vs pinned fingerprints, workers
# ---------------------------------------------------------------------------


def _merge_spec(seed=0, record_trace=True):
    return ExecutionSpec(
        line(6), KlloDynamicAlgorithm(PARAMS), TwoGroupDrift(0.05, [0, 1, 2]),
        UniformDelay(0.2, 1.0, seed=seed), 160.0, seed=seed,
        initiators=[0, 5],
        topology_schedule=TopologySchedule().merge([(2, 3)], at=40.0),
        check_invariants=True, params=PARAMS, record_trace=record_trace,
        label=f"merge-{seed}",
    )


def _partition_spec(seed=0, record_trace=True):
    return ExecutionSpec(
        ring(6), KlloDynamicAlgorithm(PARAMS), TwoGroupDrift(0.05, [0, 1, 2]),
        UniformDelay(0.2, 1.0, seed=seed), 200.0, seed=seed,
        topology_schedule=(
            TopologySchedule()
            .partition([(2, 3), (5, 0)], at=30.0, until=90.0)
            .leaves(4, at=100.0, until=110.0)
        ),
        check_invariants=True, params=PARAMS, record_trace=record_trace,
        label=f"partition-{seed}",
    )


#: Fixture keys of the two specs in ``tests/fixtures/parity/fingerprints.json``.
_PIN_NAMES = {_merge_spec: "merge", _partition_spec: "partition"}


class TestDynamicParity:
    @pytest.mark.parametrize("build", [_merge_spec, _partition_spec])
    def test_fast_engine_matches_reference(self, build):
        assert_pinned(_PIN_NAMES[build], build())

    @pytest.mark.parametrize("build", [_merge_spec, _partition_spec])
    def test_streaming_matches_trace_oracle(self, build):
        assert_pinned(_PIN_NAMES[build], build(record_trace=False))

    def test_workers_byte_identical_with_schedule(self):
        specs = [_merge_spec(seed=i) for i in range(2)] + [
            _partition_spec(seed=i) for i in range(2)
        ]
        serial = SweepExecutor(workers=1, backend="serial").run(specs)
        pooled = SweepExecutor(workers=2).run(specs)
        assert len(serial) == len(pooled)
        for s, p in zip(serial, pooled):
            assert s.index == p.index and s.error is None and p.error is None
            assert pickle.dumps(s.summary) == pickle.dumps(p.summary)


# ---------------------------------------------------------------------------
# Mirror oracle: a crash is a leave, a downed link is an absent edge
# ---------------------------------------------------------------------------

#: Fault-layer names → dynamic-topology names, for event-log kinds and
#: drop reasons.
_KIND_MIRROR = {"crash": "leave", "recover": "join"}
_REASON_MIRROR = {"crash": "absent", "link-down": "edge-absent"}


def _mirror_windows(seed):
    """Random node and edge windows on grid(3,3); some never close."""
    rng = random.Random(f"mirror:{seed}")
    topology = grid(3, 3)
    node_windows = []
    # Nodes are down only after the initialization flood has reached them.
    for i, node in enumerate(rng.sample(topology.nodes[1:], 2)):
        start = rng.uniform(8.0, 50.0)
        end = None if i == 0 and seed % 3 == 0 else start + rng.uniform(2.0, 25.0)
        node_windows.append((node, start, end))
    edge_windows = []
    for i, (u, v) in enumerate(rng.sample(topology.edges(), 3)):
        start = rng.uniform(0.0, 50.0)
        end = None if i == 0 and seed % 3 == 1 else start + rng.uniform(2.0, 25.0)
        edge_windows.append((u, v, start, end))
    return topology, node_windows, edge_windows


def _mirror_specs(seed, algorithm):
    """The same windows as a FaultSchedule and as a TopologySchedule."""
    topology, node_windows, edge_windows = _mirror_windows(seed)
    faults, dynamic = FaultSchedule(), TopologySchedule()
    for node, start, end in node_windows:
        faults.crash(node, at=start, until=end)
        dynamic.leaves(node, at=start, until=end)
    for u, v, start, end in edge_windows:
        faults.link_down(u, v, at=start, until=end)
        dynamic.edge_disappears(u, v, at=start, until=end)

    def spec(**outages):
        return ExecutionSpec(
            topology,
            algorithm(PARAMS),
            RandomWalkDrift(0.05, 3.0, 0.02, seed=seed),
            UniformDelay(0.0, 1.0, seed=seed),
            90.0,
            **outages,
        )

    return spec(faults=faults), spec(topology_schedule=dynamic)


def _mirrored_log(event_log):
    mirrored = []
    for kind, time, node, data in event_log:
        if kind == "drop":
            data = dict(data, reason=_REASON_MIRROR.get(data["reason"], data["reason"]))
        mirrored.append((_KIND_MIRROR.get(kind, kind), time, node, data))
    return mirrored


@pytest.mark.faults
class TestOutageMirror:
    """Crash/link-down and leave/edge-disappear windows run identically.

    Both layers compile to one window type; this is the check that the
    two sources do not drift apart behind it.
    """

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize(
        "algorithm", [AoptAlgorithm, FaultTolerantAoptAlgorithm], ids=["aopt", "aopt-ft"]
    )
    def test_faults_and_dynamic_topology_agree(self, seed, algorithm):
        fault_spec, dynamic_spec = _mirror_specs(seed, algorithm)
        fault_trace, _ = fault_spec.run(record_events=True)
        dynamic_trace, _ = dynamic_spec.run(record_events=True)
        assert fault_trace.global_skew() == dynamic_trace.global_skew()
        assert fault_trace.local_skew() == dynamic_trace.local_skew()
        for name in ("events_processed", "messages_dropped", "messages_lost_link",
                     "messages_lost_crash", "downtime", "messages_sent"):
            assert getattr(fault_trace, name) == getattr(dynamic_trace, name), name
        assert fault_trace.messages_lost_link + fault_trace.messages_lost_crash > 0
        assert _mirrored_log(fault_trace.event_log) == dynamic_trace.event_log

        fault_stream, dynamic_stream = (
            dataclasses.replace(
                spec.with_record_trace(False).run_summary(), spec_digest="", label=""
            )
            for spec in (fault_spec, dynamic_spec)
        )
        assert fault_stream == dynamic_stream


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------


class TestCliSurfaces:
    def test_sweep_churn_smoke(self, capsys):
        from repro.cli import main

        code = main([
            "sweep", "--topology", "line", "--diameters", "3",
            "--algorithm", "kllo-dynamic", "--horizon", "60",
            "--churn", "0.02", "--churn-outage", "3.0",
            "--workers", "1", "--no-cache",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "churn rate 0.02" in out

    def test_faults_short_horizon_surfaces_no_resync(self, capsys):
        # Satellite contract for time_to_resync's None branch: a horizon
        # that ends mid-recovery is reported, not dropped.
        from repro.cli import main

        code = main([
            "faults", "--topology", "line", "--nodes", "6",
            "--scenario", "partition", "--horizon", "40",
            "--fault-start", "10", "--fault-duration", "29",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "NOT resynchronized within the horizon" in out
