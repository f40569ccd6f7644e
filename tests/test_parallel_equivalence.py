"""Equivalence suite: the parallel sweep executor is bit-for-bit serial.

A parallel executor only earns trust if its results are *indistinguishable*
from the serial path.  For a grid of (topology, adversary, algorithm)
cases these tests assert that ``SweepExecutor(workers=4)`` and
``workers=1`` produce byte-identical result summaries — skews compared
exactly (``==`` on floats, and equality of the pickled bytes), never
approximately — including when a spec fails inside a worker, and that the
harness-level entry points (``run_adversary_suite``, ``run_monte_carlo``)
inherit the property.

The multi-worker crash/stress cases are marked ``slow`` and excluded from
tier-1 runs (see pyproject ``addopts``); CI opts in with ``-m slow``.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.baselines import MidpointAlgorithm
from repro.core.node import AoptAlgorithm
from repro.core.params import SyncParams
from repro.errors import SimulationError
from repro.exec import ExecutionSpec, RetryPolicy, SweepExecutor
from repro.faults import FaultSchedule
from repro.sim.delays import ConstantDelay, DelayModel, UniformDelay
from repro.sim.drift import AlternatingDrift, RandomWalkDrift, TwoGroupDrift
from repro.topology.generators import grid, line, ring, star
from repro.variants import FtgcsAlgorithm, JumpAoptAlgorithm, ftgcs_rejection_window

PARAMS = SyncParams.recommended(epsilon=0.05, delay_bound=1.0)
HORIZON = 40.0


class ExplodingDelay(DelayModel):
    """Delay model that raises once messages start flowing — the injected
    worker failure.  Module-level so it pickles into worker processes."""

    def __init__(self, detonate_after: int = 3):
        super().__init__(1.0)
        self.detonate_after = detonate_after
        self._calls = 0

    def delay(self, sender, receiver, send_time, seq) -> float:
        self._calls += 1
        if self._calls > self.detonate_after:
            raise RuntimeError(f"injected failure after {self.detonate_after} sends")
        return 0.5


class CrashingDelay(DelayModel):
    """Kills the worker process outright (no Python unwind) — simulates a
    segfault for the crash-isolation tests."""

    def __init__(self, detonate_after: int = 3):
        super().__init__(1.0)
        self.detonate_after = detonate_after
        self._calls = 0

    def delay(self, sender, receiver, send_time, seq) -> float:
        self._calls += 1
        if self._calls > self.detonate_after:
            os._exit(13)
        return 0.5


def _case_grid():
    """(topology, adversary models, algorithm) grid for the equivalence runs."""
    n = 5
    half = list(range(n // 2))
    return [
        ExecutionSpec(
            line(n), AoptAlgorithm(PARAMS),
            TwoGroupDrift(0.05, half), ConstantDelay(1.0),
            HORIZON, label="line/two-group/aopt",
        ),
        ExecutionSpec(
            line(n), AoptAlgorithm(PARAMS),
            RandomWalkDrift(0.05, step_period=5.0, step_size=0.02, seed=3),
            UniformDelay(0.0, 1.0, seed=3),
            HORIZON, seed=3, label="line/random/aopt",
        ),
        ExecutionSpec(
            ring(6), JumpAoptAlgorithm(PARAMS),
            AlternatingDrift(0.05, 12.0, {i: i % 2 for i in range(6)}),
            ConstantDelay(1.0),
            HORIZON, label="ring/antiphase/aopt-jump",
        ),
        ExecutionSpec(
            grid(3, 3), MidpointAlgorithm(send_period=PARAMS.h0, mu=PARAMS.mu),
            TwoGroupDrift(0.05, [(0, 0), (0, 1), (0, 2), (1, 0)]),
            UniformDelay(0.0, 1.0, seed=5),
            HORIZON, seed=5, label="grid/two-group/midpoint",
        ),
        ExecutionSpec(
            ring(6), AoptAlgorithm(PARAMS),
            TwoGroupDrift(0.05, [0, 1, 2]), ConstantDelay(1.0),
            HORIZON, check_invariants=True, params=PARAMS,
            label="ring/two-group/aopt+monitors",
        ),
    ]


def _assert_outcomes_byte_identical(serial, parallel):
    assert len(serial) == len(parallel)
    for s, p in zip(serial, parallel):
        assert s.index == p.index
        assert s.error == p.error
        # Byte-identical, not approximately equal: the pickled summaries
        # (every float bit pattern included) must match exactly.
        assert pickle.dumps(s.summary) == pickle.dumps(p.summary), (
            f"summary mismatch for {s.spec.label}"
        )


class TestParallelEquivalence:
    def test_grid_workers4_equals_workers1(self):
        specs = _case_grid()
        serial = SweepExecutor(workers=1).run(specs)
        parallel = SweepExecutor(workers=4).run(specs)
        assert all(outcome.ok for outcome in serial)
        _assert_outcomes_byte_identical(serial, parallel)
        # Skews are compared exactly — spot-check the float equality too.
        for s, p in zip(serial, parallel):
            assert s.summary.global_skew == p.summary.global_skew
            assert s.summary.local_skew == p.summary.local_skew

    def test_grid_workers4_equals_workers1_with_metrics(self):
        """Metrics collection must not perturb results: summaries with the
        deterministic engine counters attached stay byte-identical across
        worker counts (wall-clock timings are stripped before attachment)."""
        specs = _case_grid()
        serial = SweepExecutor(workers=1, collect_metrics=True).run(specs)
        parallel = SweepExecutor(workers=4, collect_metrics=True).run(specs)
        assert all(outcome.ok for outcome in serial)
        _assert_outcomes_byte_identical(serial, parallel)
        for outcome in serial:
            metrics = outcome.summary.run_metrics
            assert metrics is not None
            assert metrics.phase_seconds == {}
            assert metrics.events_processed == outcome.summary.events_processed

    def test_metrics_on_equals_metrics_off_results(self):
        """The same grid run with and without metrics agrees on every
        result field — collection is observability only."""
        import dataclasses

        plain = SweepExecutor(workers=1).run(_case_grid())
        with_metrics = SweepExecutor(workers=1, collect_metrics=True).run(
            _case_grid()
        )
        for p, m in zip(plain, with_metrics):
            assert pickle.dumps(p.summary) == pickle.dumps(
                dataclasses.replace(m.summary, run_metrics=None)
            )

    def test_streaming_workers4_equals_workers1(self):
        """record_trace=False inherits byte-identical parallelism: the
        streaming fold runs inside each worker exactly as it does
        serially, and summaries (including the streaming-mode digests)
        pickle identically across worker counts."""
        specs = [spec.with_record_trace(False) for spec in _case_grid()]
        serial = SweepExecutor(workers=1).run(specs)
        parallel = SweepExecutor(workers=4).run(specs)
        assert all(outcome.ok for outcome in serial)
        _assert_outcomes_byte_identical(serial, parallel)
        # And streaming agrees with the trace path on the skew numbers
        # (full byte-level parity is pinned in test_engine_parity.py).
        traced = SweepExecutor(workers=1).run(_case_grid())
        for t, s in zip(traced, serial):
            assert t.summary.global_skew == s.summary.global_skew
            assert t.summary.local_skew == s.summary.local_skew
            assert t.summary.spec_digest != s.summary.spec_digest

    def test_equivalence_under_injected_worker_failure(self):
        specs = _case_grid()
        specs.insert(
            2,
            ExecutionSpec(
                line(4), AoptAlgorithm(PARAMS),
                TwoGroupDrift(0.05, [0, 1]), ExplodingDelay(detonate_after=3),
                HORIZON, label="injected-failure",
            ),
        )
        serial = SweepExecutor(workers=1).run(specs)
        parallel = SweepExecutor(workers=4).run(specs)
        _assert_outcomes_byte_identical(serial, parallel)
        failed = [o for o in serial if not o.ok]
        assert len(failed) == 1 and failed[0].spec.label == "injected-failure"
        assert "injected failure" in failed[0].error
        # The failure did not poison any healthy case.
        assert sum(o.ok for o in parallel) == len(specs) - 1

    def test_run_summaries_raises_on_failure(self):
        spec = ExecutionSpec(
            line(4), AoptAlgorithm(PARAMS),
            TwoGroupDrift(0.05, [0, 1]), ExplodingDelay(detonate_after=0),
            HORIZON, label="always-fails",
        )
        with pytest.raises(SimulationError, match="always-fails"):
            SweepExecutor(workers=1).run_summaries([spec])

    def test_auto_workers_resolves(self):
        from repro.exec import resolve_workers

        assert resolve_workers("auto") >= 1
        assert resolve_workers(3) == 3
        with pytest.raises(SimulationError):
            resolve_workers(0)


# Corruption only bites once the victim's coasting estimate of the liar
# falls behind truth by the lie depth; at a short send period and high
# drift that happens within the equivalence horizon (see test_faults).
BYZ_PARAMS = SyncParams.recommended(epsilon=0.1, delay_bound=0.5)


def _byzantine_case_grid():
    """Specs carrying Byzantine schedules, over both engines' algorithms.

    Corruption draws come from the per-message hash, so these cases probe
    the property the hash exists for: neither worker count nor dispatch
    order can perturb which lie lands on which message.
    """
    window = ftgcs_rejection_window(BYZ_PARAMS, 2)
    attack = (
        FaultSchedule(seed=11, byzantine_magnitude=6.0 * window)
        .byzantine(1, at=2.0, until=30.0)
    )
    two_faced = (
        FaultSchedule(seed=12, byzantine_magnitude=6.0 * window)
        .byzantine(1, at=2.0)
        .byzantine(3, at=10.0, until=30.0)
        .crash(4, at=15.0, until=20.0)
    )
    hub = star(5)
    fast_half = hub.nodes[2:]
    return [
        ExecutionSpec(
            hub, AoptAlgorithm(BYZ_PARAMS),
            TwoGroupDrift(0.1, fast_half), ConstantDelay(0.5),
            HORIZON, faults=attack, label="star/byzantine/aopt",
        ),
        ExecutionSpec(
            hub, FtgcsAlgorithm(BYZ_PARAMS, window),
            TwoGroupDrift(0.1, fast_half), ConstantDelay(0.5),
            HORIZON, faults=attack, label="star/byzantine/ftgcs",
        ),
        ExecutionSpec(
            star(6), AoptAlgorithm(BYZ_PARAMS),
            RandomWalkDrift(0.1, step_period=5.0, step_size=0.04, seed=9),
            UniformDelay(0.0, 0.5, seed=9),
            HORIZON, seed=9, faults=two_faced,
            label="star/byzantine+crash/aopt",
        ),
    ]


@pytest.mark.byzantine
class TestByzantineParallelEquivalence:
    """Byzantine corruption inherits byte-identical parallelism."""

    def test_byzantine_workers4_equals_workers1(self):
        specs = _byzantine_case_grid()
        serial = SweepExecutor(workers=1).run(specs)
        parallel = SweepExecutor(workers=4).run(specs)
        assert all(outcome.ok for outcome in serial)
        _assert_outcomes_byte_identical(serial, parallel)
        for s, p in zip(serial, parallel):
            assert s.summary.global_skew == p.summary.global_skew
            assert s.summary.local_skew == p.summary.local_skew

    def test_byzantine_streaming_workers4_equals_workers1(self):
        specs = [
            spec.with_record_trace(False) for spec in _byzantine_case_grid()
        ]
        serial = SweepExecutor(workers=1).run(specs)
        parallel = SweepExecutor(workers=4).run(specs)
        assert all(outcome.ok for outcome in serial)
        _assert_outcomes_byte_identical(serial, parallel)

    def test_attack_actually_fired(self):
        # Guard against a silently inert schedule: the unfiltered aopt
        # case must show more skew than its Byzantine-free twin.
        spec = _byzantine_case_grid()[0]
        clean = ExecutionSpec(
            spec.topology, spec.algorithm, spec.drift, spec.delay,
            spec.horizon, label="star/clean/aopt",
        )
        attacked, unattacked = SweepExecutor(workers=1).run_summaries(
            [spec, clean]
        )
        assert attacked.global_skew > unattacked.global_skew


class TestHarnessEquivalence:
    """The analysis-layer entry points inherit byte-identical parallelism."""

    def test_adversary_suite_workers(self):
        from repro.analysis.experiments import run_adversary_suite

        serial = run_adversary_suite(
            line(5), lambda: AoptAlgorithm(PARAMS), PARAMS,
            horizon=HORIZON, workers=1,
        )
        parallel = run_adversary_suite(
            line(5), lambda: AoptAlgorithm(PARAMS), PARAMS,
            horizon=HORIZON, workers=4,
        )
        assert serial.per_case == parallel.per_case  # exact float equality
        assert serial.worst_global == parallel.worst_global
        assert serial.worst_global_case == parallel.worst_global_case
        assert serial.worst_local == parallel.worst_local
        assert serial.worst_local_case == parallel.worst_local_case

    def test_monte_carlo_workers(self):
        from repro.analysis.montecarlo import run_monte_carlo

        kwargs = dict(
            topology=line(5),
            algorithm_factory=lambda: AoptAlgorithm(PARAMS),
            drift_factory=lambda seed: RandomWalkDrift(
                0.05, step_period=5.0, step_size=0.02, seed=seed
            ),
            delay_factory=lambda seed: UniformDelay(0.0, 1.0, seed=seed),
            horizon=HORIZON,
            runs=6,
        )
        serial = run_monte_carlo(workers=1, **kwargs)
        parallel = run_monte_carlo(workers=4, **kwargs)
        assert pickle.dumps(serial) == pickle.dumps(parallel)

    def test_suite_keep_traces_matches_executor_path(self):
        """The in-process keep_traces path reports the same numbers."""
        from repro.analysis.experiments import run_adversary_suite

        with_traces = run_adversary_suite(
            line(5), lambda: AoptAlgorithm(PARAMS), PARAMS,
            horizon=HORIZON, keep_traces=True,
        )
        without = run_adversary_suite(
            line(5), lambda: AoptAlgorithm(PARAMS), PARAMS,
            horizon=HORIZON, workers=2,
        )
        assert with_traces.per_case == without.per_case
        assert set(with_traces.traces) == set(with_traces.per_case)
        assert without.traces == {}


@pytest.mark.slow
@pytest.mark.backend
class TestCrashIsolationSlow:
    """Hard worker deaths (os._exit) must not take down the sweep."""

    def test_worker_crash_marks_only_that_spec_failed(self):
        specs = _case_grid()
        specs.insert(
            1,
            ExecutionSpec(
                line(4), AoptAlgorithm(PARAMS),
                TwoGroupDrift(0.05, [0, 1]), CrashingDelay(detonate_after=3),
                HORIZON, label="crasher",
            ),
        )
        outcomes = SweepExecutor(workers=2).run(specs)
        by_label = {o.spec.label: o for o in outcomes}
        assert not by_label["crasher"].ok
        assert "crash" in by_label["crasher"].error
        healthy = [o for o in outcomes if o.spec.label != "crasher"]
        assert all(o.ok for o in healthy), [o.error for o in healthy]
        # And the survivors still match the serial reference bit-for-bit.
        serial = {
            o.spec.label: o for o in SweepExecutor(workers=1).run(_case_grid())
        }
        for outcome in healthy:
            assert pickle.dumps(outcome.summary) == pickle.dumps(
                serial[outcome.spec.label].summary
            )

    def test_timeout_marks_spec_failed(self):
        slow_spec = ExecutionSpec(
            line(9), AoptAlgorithm(PARAMS),
            TwoGroupDrift(0.05, list(range(4))), ConstantDelay(1.0),
            3000.0, label="slow-horizon",
        )
        quick = ExecutionSpec(
            line(4), AoptAlgorithm(PARAMS),
            TwoGroupDrift(0.05, [0, 1]), ConstantDelay(1.0),
            HORIZON, label="quick",
        )
        outcomes = SweepExecutor(
            workers=2, retry=RetryPolicy(timeout=0.05)
        ).run([slow_spec, quick])
        by_label = {o.spec.label: o for o in outcomes}
        assert not by_label["slow-horizon"].ok
        assert "timed out" in by_label["slow-horizon"].error
