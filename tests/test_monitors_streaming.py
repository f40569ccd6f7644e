"""Property suite: the streaming skew fold equals exact trace evaluation.

:class:`~repro.sim.monitors.StreamingSkewTracker` claims bit-identical
results to :meth:`ExecutionTrace.global_skew` / :meth:`local_skew` /
:meth:`spread_at` while holding O(nodes + edges) state.  These tests
drive the tracker directly — no engine — over randomized piecewise-linear
clock ensembles (random drift schedules, random rate-multiplier
checkpoints, jumps, staggered starts) and compare every folded quantity
against a freshly built :class:`ExecutionTrace` oracle over *separate but
identically constructed* records (the tracker is run with ``prune=True``,
so its own records are progressively consumed).

Equality is exact (``==`` on floats, never ``pytest.approx``): both paths
must evaluate the same point set in the same order with the same
arithmetic, which is the engine-parity contract (docs/ENGINE.md).

The fold runs in flushed windows of pending instants; the window size
and the numpy/pure-Python switch are patched per test so that windows
evaluated with the scalar methods, with the pure-Python sweeps and with
numpy over pruned records, and numpy-free installs, each meet the same
oracle.  Trace mode folds in windows of the same budget, and must reach
the tracker's extrema at each of those window sizes too.

The dedup regression from PR 3 — a logical checkpoint landing exactly on
a hardware rate breakpoint is ONE linearity breakpoint, not two — gets a
deterministic case plus property coverage (checkpoint times are drawn
from a grid that overlaps the drift breakpoint grid).
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.node import AoptAlgorithm
from repro.core.params import SyncParams
from repro.errors import TraceError
from repro.exec.spec import ExecutionSpec
from repro.sim import monitors as monitors_mod
from repro.sim import trace as trace_mod
from repro.sim.clock import HardwareClock
from repro.sim.delays import ConstantDelay
from repro.sim.drift import TwoGroupDrift
from repro.sim.monitors import StreamingSkewTracker
from repro.sim.rates import PiecewiseConstantRate
from repro.sim.trace import ExecutionTrace, LogicalClockRecord
from repro.topology.generators import line

pytestmark = pytest.mark.parity

HORIZON = 50.0


def _build_ensemble(seed: int, n_nodes: int):
    """Deterministic random clock ensemble: per-node rate schedules,
    start times, and sorted mutation events ``(t, kind, payload)``.

    Mutation times are drawn from a 0.5-step grid and hardware breakpoints
    from a 2.5-step grid, so checkpoint-meets-rate-change collisions occur
    routinely — the dedup path is exercised, not just possible.
    """
    rng = random.Random(f"monitors-streaming:{seed}")
    ensemble = []
    for i in range(n_nodes):
        bp_count = rng.randrange(0, 5)
        bps = sorted(
            rng.sample([2.5 * k for k in range(1, 20)], bp_count)
        )
        rates = [rng.uniform(0.9, 1.1) for _ in range(bp_count + 1)]
        start = 0.0 if i == 0 or rng.random() < 0.5 else round(
            rng.uniform(0.5, HORIZON / 4), 1
        )
        events = []
        n_events = rng.randrange(0, 8)
        times = sorted(
            t
            for t in rng.sample([0.5 * k for k in range(1, 100)], n_events)
            if t > start
        )
        for t in times:
            if rng.random() < 0.25:
                events.append((t, "jump", rng.uniform(0.0, 0.5)))
            else:
                events.append((t, "checkpoint", rng.uniform(1.0, 1.2)))
        ensemble.append(
            {"bps": [0.0] + bps, "rates": rates, "start": start, "events": events}
        )
    return ensemble


def _make_record(node_cfg):
    clock = HardwareClock(
        PiecewiseConstantRate(node_cfg["bps"], node_cfg["rates"]),
        start_time=node_cfg["start"],
    )
    return clock, LogicalClockRecord(clock)


def _drive_tracker(ensemble, topology, **tracker_kwargs):
    """Replay the ensemble through a tracker exactly as the engine would:
    advance to each event time first, then mutate, then note."""
    nodes = list(topology.nodes)
    tracker = StreamingSkewTracker(
        nodes, list(topology.edges()), HORIZON, **tracker_kwargs
    )
    clocks = [_make_record(cfg) for cfg in ensemble]
    timeline = []
    for idx, cfg in enumerate(ensemble):
        timeline.append((cfg["start"], idx, ("start", None)))
        for t, kind, payload in cfg["events"]:
            timeline.append((t, idx, (kind, payload)))
    timeline.sort(key=lambda item: (item[0], item[1]))
    for t, idx, (kind, payload) in timeline:
        tracker.advance(t)
        clock, record = clocks[idx]
        if kind == "start":
            tracker.note_start(idx, record, clock)
        elif kind == "checkpoint":
            record.checkpoint(t, payload)
            tracker.note_checkpoint(idx, t)
        else:  # jump
            record.jump(t, record.value(t) + payload)
            tracker.note_checkpoint(idx, t)
    tracker.finalize()
    return tracker


def _build_oracle_trace(ensemble, topology) -> ExecutionTrace:
    """An identical, *unpruned* ensemble wrapped as a trace for the oracle."""
    nodes = list(topology.nodes)
    logical, hardware = {}, {}
    for idx, cfg in enumerate(ensemble):
        clock, record = _make_record(cfg)
        for t, kind, payload in cfg["events"]:
            if kind == "checkpoint":
                record.checkpoint(t, payload)
            else:
                record.jump(t, record.value(t) + payload)
        logical[nodes[idx]] = record
        hardware[nodes[idx]] = clock
    return ExecutionTrace(
        topology=topology,
        horizon=HORIZON,
        logical=logical,
        hardware=hardware,
        start_times={nodes[i]: cfg["start"] for i, cfg in enumerate(ensemble)},
        messages_sent={},
        messages_received={},
        bits_sent={},
    )


class TestFoldEqualsTraceEvaluation:
    @given(seed=st.integers(0, 10_000), n_nodes=st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_global_and_local_extrema_bit_identical(self, seed, n_nodes):
        ensemble = _build_ensemble(seed, n_nodes)
        topology = line(n_nodes)
        tracker = _drive_tracker(ensemble, topology, prune=True)
        trace = _build_oracle_trace(ensemble, topology)

        folded_g = tracker.global_extremum()
        exact_g = trace.global_skew()
        assert (folded_g.value, folded_g.time) == (exact_g.value, exact_g.time)
        assert (folded_g.node_a, folded_g.node_b) == (
            exact_g.node_a, exact_g.node_b,
        )

        folded_l = tracker.local_extremum()
        exact_l = trace.local_skew()
        assert (folded_l.value, folded_l.time) == (exact_l.value, exact_l.time)
        assert (folded_l.node_a, folded_l.node_b) == (
            exact_l.node_a, exact_l.node_b,
        )

        assert tracker.final_spread == trace.spread_at(HORIZON)

    @given(seed=st.integers(0, 10_000), n_nodes=st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_breakpoint_counts_match_trace_breakpoints(self, seed, n_nodes):
        ensemble = _build_ensemble(seed, n_nodes)
        topology = line(n_nodes)
        tracker = _drive_tracker(ensemble, topology, prune=True)
        trace = _build_oracle_trace(ensemble, topology)
        for idx, node in enumerate(topology.nodes):
            record = trace.logical[node]
            expected = len(record.breakpoints_in(record.start_time, HORIZON))
            assert tracker.breakpoint_count(idx) == expected, (
                f"node {node}: folded {tracker.breakpoint_count(idx)} "
                f"breakpoints, trace has {expected}"
            )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_pruning_does_not_change_results(self, seed):
        ensemble = _build_ensemble(seed, 4)
        topology = line(4)
        pruned = _drive_tracker(ensemble, topology, prune=True)
        unpruned = _drive_tracker(ensemble, topology, prune=False)
        assert pruned.global_extremum() == unpruned.global_extremum()
        assert pruned.local_extremum() == unpruned.local_extremum()
        assert pruned.final_spread == unpruned.final_spread


class TestCheckpointMeetsRateChange:
    """The PR 3 dedup case: a rate-rule update firing exactly at a drift
    breakpoint is one linearity breakpoint, evaluated exactly once."""

    def _colliding_ensemble(self):
        return [
            # Node 0: hardware bp at t=10 AND a checkpoint at t=10.
            {
                "bps": [0.0, 10.0],
                "rates": [1.05, 0.95],
                "start": 0.0,
                "events": [(10.0, "checkpoint", 1.1)],
            },
            # Node 1: plain drift-free clock with one jump.
            {
                "bps": [0.0],
                "rates": [1.0],
                "start": 0.0,
                "events": [(20.0, "jump", 0.25)],
            },
        ]

    def test_collision_counts_once_and_extrema_match(self):
        ensemble = self._colliding_ensemble()
        topology = line(2)
        tracker = _drive_tracker(ensemble, topology, prune=True)
        trace = _build_oracle_trace(ensemble, topology)
        record = trace.logical[0]
        # breakpoints_in dedups the collision; the tracker must agree.
        expected = len(record.breakpoints_in(0.0, HORIZON))
        assert 10.0 in record.breakpoints_in(0.0, HORIZON)
        assert tracker.breakpoint_count(0) == expected
        exact = trace.global_skew()
        folded = tracker.global_extremum()
        assert (folded.value, folded.time) == (exact.value, exact.time)
        assert tracker.final_spread == trace.spread_at(HORIZON)

    def test_checkpoint_at_horizon_counts_but_folds_once(self):
        ensemble = [
            {
                "bps": [0.0],
                "rates": [1.02],
                "start": 0.0,
                "events": [(HORIZON, "checkpoint", 1.0)],
            },
            {"bps": [0.0], "rates": [0.98], "start": 0.0, "events": []},
        ]
        topology = line(2)
        tracker = _drive_tracker(ensemble, topology)
        trace = _build_oracle_trace(ensemble, topology)
        record = trace.logical[0]
        assert tracker.breakpoint_count(0) == len(
            record.breakpoints_in(0.0, HORIZON)
        )
        exact = trace.global_skew()
        folded = tracker.global_extremum()
        assert (folded.value, folded.time) == (exact.value, exact.time)


def _assert_matches_oracle(tracker, trace, topology):
    folded_g, exact_g = tracker.global_extremum(), trace.global_skew()
    assert folded_g == exact_g
    folded_l, exact_l = tracker.local_extremum(), trace.local_skew()
    assert folded_l == exact_l
    assert tracker.final_spread == trace.spread_at(HORIZON)
    for idx, node in enumerate(topology.nodes):
        record = trace.logical[node]
        assert tracker.breakpoint_count(idx) == len(
            record.breakpoints_in(record.start_time, HORIZON)
        )


#: ``(window instants, numpy threshold)`` per fold path under test.
WINDOW_CONFIGS = {
    "one-instant": (1, trace_mod.VECTOR_MIN_INSTANTS),
    "scalar-windows": (3, trace_mod.VECTOR_MIN_INSTANTS),
    "python-windows": (5, trace_mod.VECTOR_MIN_INSTANTS),
    "numpy-windows": (6, 1),
    "numpy-one-window": (10_000, 1),
}


class TestWindowedFold:
    """Every window size and evaluation path folds to the trace oracle."""

    def _fold(self, seed, n_nodes, window, vector_min, numpy_off=False):
        ensemble = _build_ensemble(seed, n_nodes)
        topology = line(n_nodes)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(monitors_mod, "FLUSH_CELLS", window * n_nodes)
            patch.setattr(trace_mod, "VECTOR_MIN_INSTANTS", vector_min)
            # Prune at every flush, so windows read truly pruned records.
            patch.setattr(LogicalClockRecord, "PRUNE_BATCH", 1)
            if numpy_off:
                patch.setattr(trace_mod, "_np", None)
            tracker = _drive_tracker(ensemble, topology, prune=True)
        assert tracker.window_instants == window
        return tracker, _build_oracle_trace(ensemble, topology), topology

    @pytest.mark.parametrize("config", sorted(WINDOW_CONFIGS))
    @given(seed=st.integers(0, 10_000), n_nodes=st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_window_path_matches_trace(self, config, seed, n_nodes):
        if config.startswith("numpy"):
            pytest.importorskip("numpy")
        window, vector_min = WINDOW_CONFIGS[config]
        tracker, trace, topology = self._fold(seed, n_nodes, window, vector_min)
        _assert_matches_oracle(tracker, trace, topology)
        # Trace mode folds in the same windows to the same extremum.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace_mod, "FLUSH_CELLS", window * n_nodes)
            patch.setattr(trace_mod, "VECTOR_MIN_INSTANTS", vector_min)
            assert trace.global_skew() == tracker.global_extremum()

    @given(seed=st.integers(0, 10_000), n_nodes=st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_without_numpy_matches_trace(self, seed, n_nodes):
        tracker, trace, topology = self._fold(
            seed, n_nodes, 6, 1, numpy_off=True
        )
        _assert_matches_oracle(tracker, trace, topology)

    @pytest.mark.parametrize("config", sorted(WINDOW_CONFIGS))
    def test_ties_resolve_to_the_earliest_instant(self, config):
        """A constant skew ties at every instant: the first one must win,
        inside a window and across windows alike."""
        if config.startswith("numpy"):
            pytest.importorskip("numpy")
        window, vector_min = WINDOW_CONFIGS[config]
        ensemble = [
            {"bps": [0.0], "rates": [1.0], "start": 0.0,
             "events": [(0.5 * k, "checkpoint", 1.0) for k in range(2, 40)]},
            {"bps": [0.0], "rates": [1.0], "start": 0.0,
             "events": [(0.5, "jump", 0.5)]},
        ]
        topology = line(2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(monitors_mod, "FLUSH_CELLS", window * 2)
            patch.setattr(trace_mod, "VECTOR_MIN_INSTANTS", vector_min)
            tracker = _drive_tracker(ensemble, topology, prune=True)
        trace = _build_oracle_trace(ensemble, topology)
        assert trace.local_skew().time == 0.5
        _assert_matches_oracle(tracker, trace, topology)
        # Trace mode in the same windows: the ties still go to t = 0.5.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace_mod, "FLUSH_CELLS", window * 2)
            patch.setattr(trace_mod, "VECTOR_MIN_INSTANTS", vector_min)
            windowed = (trace.global_skew(), trace.local_skew())
        assert windowed == (tracker.global_extremum(), tracker.local_extremum())
        assert windowed[0].time == windowed[1].time == 0.5


def _busy_record(start: float = 0.0):
    """A record with enough checkpoints (and one jump) to be pruned."""
    clock = HardwareClock(
        PiecewiseConstantRate([0.0, 7.5, 21.0], [1.04, 0.97, 1.01]),
        start_time=start,
    )
    record = LogicalClockRecord(clock)
    t = start
    for k in range(80):
        t += 0.25
        if k % 17 == 5:
            record.jump(t, record.value(t) + 0.125)
        else:
            record.checkpoint(t, 1.0 + 0.01 * (k % 5))
    return record


def _stacked_columns(records, points, window):
    """The stacked kernel's ``(rights, lefts)`` rows of ``records`` at
    ``points``: one fold over all of them, in windows of ``window``."""
    stack = trace_mod._Stack(records, points)
    rights, lefts = [[] for _ in records], [[] for _ in records]
    for k in range(0, len(points), window):
        right, left = stack.columns(points[k : k + window])
        for row in range(len(records)):
            rights[row] += right[row].tolist()
            lefts[row] += left[row].tolist()
    return rights, lefts


class TestPrunedVectorKernel:
    def test_pruned_record_matches_unpruned_sweeps(self):
        pytest.importorskip("numpy")
        pruned, twin = _busy_record(start=2.0), _busy_record(start=2.0)
        pruned.prune_to(15.0)
        kept_from = pruned._times[0]
        assert kept_from > pruned.start_time  # really pruned
        # A record that starts inside the window, and absent (None) rows.
        late, late_twin = _busy_record(start=16.0), _busy_record(start=16.0)
        # Before the start, after the kept prefix, at a checkpoint, at
        # each record's jump (16.25, 17.5), at a rate breakpoint, and past
        # the last checkpoint.
        points = [
            0.0, 1.5, kept_from + 0.1, 15.0, 16.0, 16.25, 16.75, 17.5,
            21.0, 22.0, 40.0,
        ]
        assert {16.25, 17.5} <= set(pruned.jump_times + late.jump_times)
        zeros = [0.0] * len(points)
        # One window, then windows that start and end anywhere in the fold.
        for window in (len(points), 1, 3):
            rights, lefts = _stacked_columns(
                [None, pruned, late, None], points, window
            )
            assert rights == [
                zeros, twin.values_at(points), late_twin.values_at(points), zeros,
            ]
            assert lefts == [
                zeros, twin.values_left_at(points),
                late_twin.values_left_at(points), zeros,
            ]

    def test_windows_in_any_order(self):
        """Windows of one fold usually ascend; one that starts earlier
        than the last counts its rows' breakpoints afresh."""
        pytest.importorskip("numpy")
        records = [_busy_record(start=2.0), None, _busy_record(start=16.0)]
        points = [0.0, 2.0, 3.5, 7.75, 9.0, 16.25, 17.5, 30.0]
        stack = trace_mod._Stack(records, points)
        whole = [column.tolist() for column in stack.columns(points)]
        late = [column.tolist() for column in stack.columns(points[4:])]
        again = [column.tolist() for column in stack.columns(points[1:])]
        assert late == [[row[4:] for row in side] for side in whole]
        assert again == [[row[1:] for row in side] for side in whole]

    @pytest.mark.parametrize("offset", [0.0, 0.05])
    def test_query_in_pruned_prefix_raises(self, offset):
        pytest.importorskip("numpy")
        record = _busy_record(start=2.0)
        record.prune_to(15.0)
        inside = record.start_time + offset
        with pytest.raises(TraceError, match="pruned prefix"):
            _stacked_columns([None, record], [1.0, inside, 16.0], 3)
        with pytest.raises(TraceError, match="pruned prefix"):
            _stacked_columns([record, None], [record._times[0], 16.0], 2)


class TestBatchedSweeps:
    """The sweeps bisect to their first point, so a window may start
    anywhere in a record: each slice equals the scalar methods."""

    @pytest.mark.parametrize("prune_at", [None, 15.0])
    def test_slices_match_scalar_methods(self, prune_at):
        record = _busy_record(start=2.0)
        if prune_at is not None:
            record.prune_to(prune_at)
        floor = record.start_time if prune_at is None else record._times[0]
        grid = [0.125 * k for k in range(400)] + list(record._times) + [7.5, 21.0]
        points = sorted({t for t in grid if t > floor})
        rate = record.hardware.rate_function
        for first in range(0, len(points), 9):
            for length in (1, 2, 7, 64):
                ts = points[first:first + length]
                assert rate.integrals_at(ts) == [
                    rate.integral_from_start(t) for t in ts
                ]
                assert record.values_at(ts) == [record.value(t) for t in ts]
                assert record.values_left_at(ts) == [
                    record.value_left(t) for t in ts
                ]


def _line_spec(seed: int, record_trace: bool) -> ExecutionSpec:
    nodes = 64
    fast = sorted(random.Random(f"windowed-fold:{seed}").sample(range(nodes), 32))
    params = SyncParams.recommended(epsilon=0.05, delay_bound=1.0)
    return ExecutionSpec(
        topology=line(nodes),
        algorithm=AoptAlgorithm(params),
        drift=TwoGroupDrift(0.05, fast),
        delay=ConstantDelay(1.0),
        horizon=100.0,
        seed=seed,
        params=params,
        record_trace=record_trace,
    )


class TestEngineWindows:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_line64_streaming_equals_trace_across_flushes(self, seed, monkeypatch):
        flushes = []
        flush = StreamingSkewTracker._flush

        def counting_flush(tracker):
            flushes.append(len(tracker._window_ts))
            flush(tracker)

        monkeypatch.setattr(StreamingSkewTracker, "_flush", counting_flush)
        streamed = _line_spec(seed, record_trace=False).run_summary()
        traced = _line_spec(seed, record_trace=True).run_summary()
        assert dataclasses.replace(streamed, spec_digest="") == dataclasses.replace(
            traced, spec_digest=""
        )
        full = [size for size in flushes if size == 16384 // 64]
        assert len(full) >= 2, flushes
