"""E21 — substrate performance: event throughput of the simulator.

Not a paper claim — a harness property worth tracking: the discrete-event
engine's events/second determines which experiment scales are feasible.
Unlike the experiment benchmarks (deterministic, single-round), these run
multiple rounds for stable timing statistics.
"""

import pytest

from repro.core.node import AoptAlgorithm
from repro.core.params import SyncParams
from repro.sim.delays import ConstantDelay, UniformDelay
from repro.sim.drift import RandomWalkDrift, TwoGroupDrift
from repro.sim.engine import SimulationEngine
from repro.topology.generators import grid, line

EPSILON = 0.05
DELAY = 1.0


def build_and_run(topology, params, drift, delay, horizon):
    engine = SimulationEngine(topology, AoptAlgorithm(params), drift, delay, horizon)
    return engine.run()


@pytest.mark.benchmark(group="E21-engine-perf", min_rounds=3)
def test_throughput_line_constant(benchmark):
    params = SyncParams.recommended(epsilon=EPSILON, delay_bound=DELAY)
    topology = line(16)

    def run():
        return build_and_run(
            topology, params, TwoGroupDrift(EPSILON, list(range(8))),
            ConstantDelay(DELAY), 150.0,
        )

    trace = benchmark(run)
    assert trace.events_processed > 1000
    benchmark.extra_info["events"] = trace.events_processed


@pytest.mark.benchmark(group="E21-engine-perf", min_rounds=3)
def test_throughput_grid_random(benchmark):
    params = SyncParams.recommended(epsilon=EPSILON, delay_bound=DELAY)
    topology = grid(5, 5)

    def run():
        return build_and_run(
            topology, params,
            RandomWalkDrift(EPSILON, step_period=5.0, step_size=0.02, seed=1),
            UniformDelay(0.0, DELAY, seed=1), 100.0,
        )

    trace = benchmark(run)
    assert trace.events_processed > 1000
    benchmark.extra_info["events"] = trace.events_processed


@pytest.mark.benchmark(group="E21-engine-perf", min_rounds=3)
def test_exact_skew_evaluation_cost(benchmark):
    """The price of exactness: global-skew evaluation over all breakpoints."""
    params = SyncParams.recommended(epsilon=EPSILON, delay_bound=DELAY)
    trace = build_and_run(
        line(16), params, TwoGroupDrift(EPSILON, list(range(8))),
        ConstantDelay(DELAY), 150.0,
    )

    result = benchmark(trace.global_skew)
    assert result.value > 0


@pytest.mark.benchmark(group="E21-engine-speedup", min_rounds=3)
@pytest.mark.parametrize("name", ["small", "mid", "large"])
def test_speedup_vs_seed_baseline(benchmark, name):
    """End-to-end speedup curve vs the recorded pre-fast-path baseline.

    The baseline JSON stores seed-engine wall times (see
    ``record_engine_baseline.py``); each point here runs the same
    workload (engine + exact skew summary) on the current tree and
    asserts the recorded floor — ≥5x on the mid-size config is the PR-6
    acceptance bar.  ``make perf-smoke`` is the quick subset of this.
    """
    import json
    from pathlib import Path

    from benchmarks.record_engine_baseline import run_workload

    baseline_path = (
        Path(__file__).parent / "baselines" / "engine_perf_baseline.json"
    )
    workload = next(
        w
        for w in json.loads(baseline_path.read_text())["workloads"]
        if w["name"] == name
    )

    def run():
        return run_workload(workload["nodes"], workload["horizon"])

    _, events = benchmark(run)
    assert events == workload["events"]
    wall = benchmark.stats.stats.min
    speedup = workload["seed_wall_seconds"] / wall
    benchmark.extra_info["seed_wall_seconds"] = workload["seed_wall_seconds"]
    benchmark.extra_info["speedup_vs_seed"] = round(speedup, 2)
    assert speedup >= workload["min_speedup"], (
        f"{name}: {speedup:.2f}x vs seed is below the "
        f"{workload['min_speedup']}x floor"
    )


@pytest.mark.benchmark(group="E21-engine-perf", min_rounds=3)
def test_streaming_matches_trace_throughput(benchmark):
    """Streaming mode: the trace run's numbers in O(nodes) memory; time
    the run plus fold, then check it against a trace run of the spec."""
    params = SyncParams.recommended(epsilon=EPSILON, delay_bound=DELAY)
    topology = line(16)

    def run():
        engine = SimulationEngine(
            topology, AoptAlgorithm(params),
            TwoGroupDrift(EPSILON, list(range(8))), ConstantDelay(DELAY),
            150.0, record_trace=False,
        )
        return engine.run_streaming()

    result = benchmark(run)
    assert result.events_processed > 1000
    assert result.global_skew.value > 0
    trace = build_and_run(
        topology, params, TwoGroupDrift(EPSILON, list(range(8))),
        ConstantDelay(DELAY), 150.0,
    )
    assert result.events_processed == trace.events_processed
    assert result.global_skew == trace.global_skew()
    assert result.local_skew == trace.local_skew()
    assert result.final_spread == trace.spread_at(trace.horizon)
    benchmark.extra_info["events"] = result.events_processed
