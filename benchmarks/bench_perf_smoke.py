"""Perf smoke: the fast-path engine must beat the recorded seed baseline,
and streaming mode must keep pace with trace mode on the same machine.

``baselines/engine_perf_baseline.json`` stores end-to-end wall times of
the pre-fast-path engine (see ``record_engine_baseline.py`` for the
regeneration recipe).  Each test here re-runs one workload on the current
tree and asserts the speedup floor recorded alongside the baseline —
2x on the small config, 5x on the mid config, the PR-6 acceptance bar.
(Workloads flagged ``"smoke": false`` — the large config — are covered
by the ``bench_engine_perf`` speedup curve instead, keeping this target
fast.)

Run via ``make perf-smoke``.  These are plain tests (no ``benchmark``
fixture), so ``make bench``'s ``--benchmark-only`` sweep skips them; they
are also excluded from tier-1, which only collects ``tests/``.

A failure means either a genuine engine regression or a baseline recorded
on different hardware — compare ``events`` in the JSON against the
current run before blaming the engine.

``test_streaming_keeps_pace_with_trace`` needs no baseline: it times
both modes of one spec in this process, so its ratio floor holds on any
machine.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import pytest

from benchmarks.record_engine_baseline import measure
from repro.core.node import AoptAlgorithm
from repro.core.params import SyncParams
from repro.exec.spec import ExecutionSpec
from repro.sim.delays import ConstantDelay
from repro.sim.drift import TwoGroupDrift
from repro.topology.generators import line

__all__ = []  # pytest module, nothing to export

BASELINE_PATH = Path(__file__).parent / "baselines" / "engine_perf_baseline.json"
BASELINE = json.loads(BASELINE_PATH.read_text())

pytestmark = pytest.mark.perf_smoke


SMOKE_WORKLOADS = [w for w in BASELINE["workloads"] if w["smoke"]]


@pytest.mark.parametrize(
    "workload", SMOKE_WORKLOADS, ids=[w["name"] for w in SMOKE_WORKLOADS]
)
def test_speedup_vs_seed_baseline(workload):
    wall, events = measure(workload["nodes"], workload["horizon"])
    # Identical workload check: the event count is deterministic, so a
    # mismatch means the baseline was recorded for a different scenario
    # (or the engine changed behavior — which parity tests catch first).
    assert events == workload["events"], (
        f"{workload['name']}: event count {events} != baseline "
        f"{workload['events']} — baseline and workload are out of sync"
    )
    speedup = workload["seed_wall_seconds"] / wall
    assert speedup >= workload["min_speedup"], (
        f"{workload['name']} (n={workload['nodes']}, "
        f"horizon={workload['horizon']}): {speedup:.2f}x vs seed "
        f"(wall {wall:.3f}s, seed {workload['seed_wall_seconds']:.3f}s) "
        f"is below the {workload['min_speedup']}x floor"
    )


#: Streaming ``run_summary`` may take at most this multiple of trace mode's
#: run plus summary on the mid workload (ROADMAP: streaming ≤ trace + summary).
STREAMING_RATIO_CEILING = 1.5


def _best_of(rounds: int, spec: ExecutionSpec):
    best, summary = float("inf"), None
    for _ in range(rounds):
        started = time.perf_counter()
        summary = spec.run_summary()
        best = min(best, time.perf_counter() - started)
    return best, summary


def test_streaming_keeps_pace_with_trace():
    nodes, horizon = 64, 600.0
    params = SyncParams.recommended(epsilon=0.05, delay_bound=1.0)
    spec = ExecutionSpec(
        topology=line(nodes),
        algorithm=AoptAlgorithm(params),
        drift=TwoGroupDrift(0.05, list(range(nodes // 2))),
        delay=ConstantDelay(1.0),
        horizon=horizon,
        params=params,
    )
    trace_wall, traced = _best_of(3, spec)
    stream_wall, streamed = _best_of(3, spec.with_record_trace(False))
    assert dataclasses.replace(streamed, spec_digest="") == dataclasses.replace(
        traced, spec_digest=""
    )
    ratio = stream_wall / trace_wall
    assert ratio <= STREAMING_RATIO_CEILING, (
        f"streaming {stream_wall:.3f}s is {ratio:.2f}x trace run plus "
        f"summary {trace_wall:.3f}s (ceiling {STREAMING_RATIO_CEILING}x)"
    )
