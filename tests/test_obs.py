"""Tests for the observability layer (``repro.obs``).

Covers :class:`RunMetrics` engine counters (and that disabling them is a
strict no-op), the metrics-on/metrics-off summary equivalence, the
:class:`SweepMetrics` accounting in :class:`SweepExecutor`, the cache
hit/miss/corrupt counters and orphaned-``*.tmp`` hygiene, the JSONL
event-log export, and the ``repro profile`` harness.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.core.node import AoptAlgorithm
from repro.core.params import SyncParams
from repro.errors import TraceError
from repro.exec import ExecutionSpec, ResultCache, SweepExecutor
from repro.exec.summary import summarize_trace
from repro.obs import RunMetrics, SweepMetrics, event_log_digest
from repro.obs.profile import profile_specs
from repro.sim.delays import ConstantDelay, UniformDelay
from repro.sim.drift import ConstantDrift, RandomWalkDrift
from repro.sim.runner import run_execution_streaming
from repro.topology.generators import line, ring

pytestmark = pytest.mark.obs

PARAMS = SyncParams.recommended(epsilon=0.05, delay_bound=1.0)
HORIZON = 40.0


def make_spec(n: int = 4, seed: int = 0, label: str = "obs-case") -> ExecutionSpec:
    return ExecutionSpec(
        line(n),
        AoptAlgorithm(PARAMS),
        ConstantDrift(PARAMS.epsilon),
        ConstantDelay(1.0, max_delay=1.0),
        HORIZON,
        seed=seed,
        params=PARAMS,
        label=label,
    )


def make_random_spec(seed: int = 3, label: str = "obs-random") -> ExecutionSpec:
    return ExecutionSpec(
        ring(5),
        AoptAlgorithm(PARAMS),
        RandomWalkDrift(0.05, step_period=5.0, step_size=0.02, seed=seed),
        UniformDelay(0.0, 1.0, seed=seed),
        HORIZON,
        seed=seed,
        params=PARAMS,
        label=label,
    )


# ---------------------------------------------------------------------------
# RunMetrics engine counters
# ---------------------------------------------------------------------------


class TestRunMetrics:
    def test_event_counts_match_trace(self):
        trace, _ = make_spec().run(collect_metrics=True)
        metrics = trace.metrics
        assert metrics is not None
        assert metrics.events_processed == trace.events_processed
        assert sum(metrics.events_by_type.values()) == trace.events_processed
        assert metrics.events_by_type["wake"] == 1
        assert metrics.events_by_type["delivery"] > 0
        assert metrics.sends > 0
        assert metrics.queue_depth_hwm > 0
        assert metrics.alarms_fired <= metrics.alarms_set

    def test_checkpoint_and_breakpoint_counts_match_records(self):
        trace, _ = make_random_spec().run(collect_metrics=True)
        metrics = trace.metrics
        for node, record in trace.logical.items():
            assert metrics.checkpoints_by_node[node] == record.checkpoint_count
            assert metrics.breakpoints_by_node[node] == len(
                record.breakpoints_in(record.start_time, trace.horizon)
            )

    def test_phase_timings_cover_all_phases(self):
        trace, monitors = make_spec().run(collect_metrics=True)
        summarize_trace(trace, monitors=monitors)
        assert set(trace.metrics.phase_seconds) == {
            "setup", "run", "trace", "skew-eval"
        }
        assert all(v >= 0.0 for v in trace.metrics.phase_seconds.values())

    def test_streaming_phase_timings_charge_the_fold(self):
        """Streaming runs fold skews instead of assembling a trace: the
        flushes and the final fold are ``skew-fold``, not ``run``/``trace``."""
        result = run_execution_streaming(
            line(4),
            AoptAlgorithm(PARAMS),
            ConstantDrift(PARAMS.epsilon),
            ConstantDelay(1.0, max_delay=1.0),
            HORIZON,
            collect_metrics=True,
        )
        phases = result.metrics.phase_seconds
        assert set(phases) == {"setup", "run", "skew-fold"}
        assert all(v >= 0.0 for v in phases.values())
        assert phases["skew-fold"] > 0.0

    def test_disabled_is_strict_noop(self):
        trace_off, _ = make_spec().run()
        assert trace_off.metrics is None
        assert trace_off.event_log is None

    def test_counters_deterministic_across_runs(self):
        spec = make_random_spec()
        m1 = spec.run(collect_metrics=True)[0].metrics
        m2 = spec.run(collect_metrics=True)[0].metrics
        assert m1.stripped() == m2.stripped()

    def test_stripped_drops_timings_keeps_counters(self):
        trace, _ = make_spec().run(collect_metrics=True)
        metrics = trace.metrics
        stripped = metrics.stripped()
        assert stripped.phase_seconds == {}
        assert stripped.events_by_type == metrics.events_by_type
        assert stripped.sends == metrics.sends
        assert stripped.queue_depth_hwm == metrics.queue_depth_hwm
        # A deep copy: mutating the stripped form leaves the original alone.
        stripped.events_by_type["wake"] = 999
        assert metrics.events_by_type["wake"] == 1

    def test_counter_rows_and_as_dict(self):
        trace, _ = make_spec().run(collect_metrics=True)
        d = trace.metrics.as_dict()
        assert d["events_processed"] == trace.events_processed
        rows = dict(
            (name, value) for name, value in trace.metrics.counter_rows()
        )
        assert rows["events_processed"] == trace.events_processed
        assert rows["sends"] == trace.metrics.sends


# ---------------------------------------------------------------------------
# summary equivalence: metrics on vs off
# ---------------------------------------------------------------------------


class TestSummaryEquivalence:
    def test_metrics_do_not_change_results(self):
        spec = make_random_spec()
        s_on = spec.run_summary(collect_metrics=True)
        s_off = spec.run_summary()
        assert s_on.run_metrics is not None
        assert s_off.run_metrics is None
        # Identical in every field except the attached metrics.
        assert dataclasses.replace(s_on, run_metrics=None) == s_off
        assert pickle.dumps(dataclasses.replace(s_on, run_metrics=None)) == (
            pickle.dumps(s_off)
        )

    def test_metrics_on_summaries_byte_identical_across_runs(self):
        spec = make_random_spec()
        assert pickle.dumps(spec.run_summary(collect_metrics=True)) == (
            pickle.dumps(spec.run_summary(collect_metrics=True))
        )


# ---------------------------------------------------------------------------
# cache accounting and hygiene
# ---------------------------------------------------------------------------


class TestCacheAccounting:
    def test_miss_then_hit_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        assert cache.get(spec.digest()) is None
        assert (cache.hits, cache.misses, cache.corrupt) == (0, 1, 0)
        summary = spec.run_summary()
        cache.put(spec.digest(), summary)
        assert cache.get(spec.digest()) == summary
        assert (cache.hits, cache.misses, cache.corrupt) == (1, 1, 0)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["orphan_tmp"] == 0
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_unreadable_entry_counts_as_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        path = cache.path_for(spec.digest())
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert cache.get(spec.digest()) is None
        assert (cache.hits, cache.misses, cache.corrupt) == (0, 0, 1)

    def test_digest_mismatch_counts_as_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        other = make_spec(n=5)
        cache.put(spec.digest(), spec.run_summary())
        # Copy the valid entry under the wrong digest's path.
        wrong = cache.path_for(other.digest())
        wrong.parent.mkdir(parents=True, exist_ok=True)
        wrong.write_bytes(cache.path_for(spec.digest()).read_bytes())
        assert cache.get(other.digest()) is None
        assert cache.corrupt == 1

    def test_clear_removes_orphaned_tmp_files(self, tmp_path):
        """Regression: ``clear()`` used to leave ``*.tmp`` orphans behind."""
        cache = ResultCache(tmp_path)
        spec = make_spec()
        cache.put(spec.digest(), spec.run_summary())
        # Simulate a worker killed mid-put: a stray tmp in an entry dir.
        orphan = cache.path_for(spec.digest()).parent / "orphanXYZ.tmp"
        orphan.write_bytes(b"partial write")
        assert [p.name for p in cache.orphan_tmp_files()] == ["orphanXYZ.tmp"]
        assert cache.stats()["orphan_tmp"] == 1
        assert cache.clear() == 1  # orphans don't count as entries
        assert not orphan.exists()
        assert len(cache) == 0
        assert cache.orphan_tmp_files() == []

    def test_metrics_on_and_off_use_distinct_cache_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [make_spec()]
        on = SweepExecutor(workers=1, cache=cache, collect_metrics=True)
        off = SweepExecutor(workers=1, cache=cache)
        s_on = on.run(specs)[0].summary
        assert s_on.run_metrics is not None
        # The metrics-off lookup must not be served the metrics-on entry.
        outcome_off = off.run(specs)[0]
        assert not outcome_off.cached
        assert outcome_off.summary.run_metrics is None
        # Both now hit their own entries.
        assert on.run(specs)[0].cached
        assert off.run(specs)[0].cached


# ---------------------------------------------------------------------------
# SweepMetrics
# ---------------------------------------------------------------------------


class _AlwaysFails(ConstantDelay):
    def delay(self, sender, receiver, send_time, seq) -> float:
        raise RuntimeError("injected failure")


class TestSweepMetrics:
    def test_executor_populates_last_metrics(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [make_spec(n, label=f"line-{n}") for n in (3, 4, 5)]
        executor = SweepExecutor(workers=1, cache=cache)
        executor.run(specs)
        metrics = executor.last_metrics
        assert metrics.total_specs == 3
        assert metrics.workers == 1
        assert metrics.cache_misses == 3 and metrics.cache_hits == 0
        assert metrics.executed == 3 and metrics.failed == 0
        assert sorted(metrics.per_spec_seconds) == [0, 1, 2]
        assert all(s >= 0.0 for s in metrics.per_spec_seconds.values())
        assert metrics.wall_seconds > 0.0
        assert metrics.hit_rate() == 0.0
        # Second run: all hits, nothing executed.
        executor.run(specs)
        metrics = executor.last_metrics
        assert metrics.cache_hits == 3 and metrics.executed == 0
        assert metrics.hit_rate() == 1.0
        assert metrics.per_spec_seconds == {}

    def test_failed_specs_counted(self):
        bad = ExecutionSpec(
            line(3), AoptAlgorithm(PARAMS), ConstantDrift(0.05),
            _AlwaysFails(1.0, max_delay=1.0), HORIZON, label="bad",
        )
        executor = SweepExecutor(workers=1)
        outcomes = executor.run([make_spec(), bad])
        assert [o.ok for o in outcomes] == [True, False]
        assert executor.last_metrics.executed == 2
        assert executor.last_metrics.failed == 1

    def test_utilization_and_note(self):
        metrics = SweepMetrics(
            total_specs=4, workers=2, wall_seconds=2.0,
            per_spec_seconds={0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0},
        )
        assert metrics.busy_seconds == pytest.approx(4.0)
        assert metrics.utilization() == pytest.approx(1.0)
        metrics.note("timeout")
        metrics.note("timeout", 2)
        assert metrics.quarantine == {"timeout": 3}
        payload = json.loads(metrics.to_json())
        assert payload["quarantine"] == {"timeout": 3}
        assert payload["utilization"] == pytest.approx(1.0)
        labels = [row[0] for row in metrics.summary_rows()]
        assert "cache hit-rate" in labels
        assert "quarantine[timeout]" in labels


# ---------------------------------------------------------------------------
# JSONL event-log export
# ---------------------------------------------------------------------------


class TestEventLogExport:
    def test_export_without_recording_raises(self, tmp_path):
        trace, _ = make_spec().run()
        with pytest.raises(TraceError):
            trace.export_events(tmp_path / "events.jsonl")

    def test_roundtrip_structure_and_digest(self, tmp_path):
        spec = make_spec()
        trace, _ = spec.run(record_events=True)
        path = tmp_path / "events.jsonl"
        digest = trace.export_events(path, spec_digest=spec.digest())
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        footer = json.loads(lines[-1])
        records = [json.loads(line) for line in lines[1:-1]]
        assert header["kind"] == "header"
        assert header["spec_digest"] == spec.digest()
        assert header["events"] == len(trace.event_log) == len(records)
        assert footer["kind"] == "footer"
        assert footer["sha256"] == digest == event_log_digest(trace.event_log)
        kinds = {record["kind"] for record in records}
        assert "send" in kinds and "deliver" in kinds
        # Every record names its instant and node.
        assert all("t" in record and "node" in record for record in records)

    def test_export_deterministic_across_runs(self, tmp_path):
        spec = make_random_spec()
        digests = []
        for name in ("a.jsonl", "b.jsonl"):
            trace, _ = spec.run(record_events=True)
            digests.append(trace.export_events(tmp_path / name))
        assert digests[0] == digests[1]
        assert (tmp_path / "a.jsonl").read_bytes() == (
            tmp_path / "b.jsonl"
        ).read_bytes()

    def test_crash_and_jump_records(self, tmp_path):
        from repro.faults import FaultSchedule

        spec = ExecutionSpec(
            line(4), AoptAlgorithm(PARAMS), ConstantDrift(0.05),
            ConstantDelay(1.0, max_delay=1.0), HORIZON,
            params=PARAMS,
            faults=FaultSchedule().crash(2, at=10.0, until=20.0),
            label="crash-case",
        )
        trace, _ = spec.run(record_events=True)
        kinds = {kind for kind, _, _, _ in trace.event_log}
        assert "crash" in kinds and "recover" in kinds


# ---------------------------------------------------------------------------
# profile harness
# ---------------------------------------------------------------------------


class TestProfile:
    def test_profile_specs_ranks_and_aggregates(self):
        specs = [make_spec(n, label=f"line-{n}") for n in (3, 5)]
        report = profile_specs(specs)
        assert len(report.specs) == 2
        assert report.total_seconds > 0.0
        ranked = report.hot_specs()
        assert ranked[0].seconds >= ranked[1].seconds
        assert report.hot_specs(1) == ranked[:1]
        phases = report.phase_totals()
        assert set(phases) == {"setup", "run", "trace", "skew-eval"}
        totals = report.counter_totals()
        assert totals["events_processed"] == sum(
            profile.metrics.events_processed for profile in report.specs
        )
        assert totals["queue_depth_hwm"] == max(
            profile.metrics.queue_depth_hwm for profile in report.specs
        )
        payload = report.as_dict()
        assert len(payload["specs"]) == 2
        assert payload["total_seconds"] == pytest.approx(report.total_seconds)
