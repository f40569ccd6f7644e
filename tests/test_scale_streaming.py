"""Scale regression: streaming mode runs 100k nodes in bounded memory.

Trace mode stores every logical-clock checkpoint for every node, which is
exactly what large networks cannot afford — so the engine *refuses* to
record a trace above a configurable node cap instead of slowly drowning.
Streaming mode (``record_trace=False``) has no cap: the skew fold holds
O(nodes + edges) state and prunes consumed record segments as its
frontier advances.

Trace mode's skew evaluation is bounded too: it folds in windows of
``FLUSH_CELLS`` cells, so ``summarize_trace`` on a ``line(64)``,
horizon-600 trace allocates a few MiB, not two nodes × instants float
matrices.  The trace itself stores 32 bytes a checkpoint.

The 100k-node test is ``slow``-marked (tier-1 excludes it; CI opts in
with ``-m slow``).  Its thresholds are deliberately loose — an
order-of-magnitude guard against O(events) memory or quadratic fold
regressions, not a micro-benchmark: the run allocates ~0.4 GB and ~20 s
locally, and the test asserts < 1.2 GB / < 240 s.
"""

from __future__ import annotations

import time
import tracemalloc

import pytest

from repro.core.node import AoptAlgorithm
from repro.core.params import SyncParams
from repro.errors import ReproError, SimulationError
from repro.exec.spec import ExecutionSpec
from repro.exec.summary import summarize_trace
from repro.sim.delays import ConstantDelay
from repro.sim.drift import TwoGroupDrift
from repro.sim.engine import DEFAULT_TRACE_NODE_CAP, SimulationEngine
from repro.sim.runner import run_execution, run_execution_streaming
from repro.topology.generators import line

pytestmark = pytest.mark.parity

PARAMS = SyncParams.recommended(epsilon=0.05, delay_bound=1.0)


def _models(n: int):
    return TwoGroupDrift(0.05, list(range(n // 2))), ConstantDelay(1.0)


class TestTraceNodeCap:
    def test_trace_mode_refuses_above_cap(self):
        drift, delay = _models(9)
        with pytest.raises(SimulationError, match="trace node cap"):
            run_execution(
                line(9), AoptAlgorithm(PARAMS), drift, delay, 10.0,
                trace_node_cap=8,
            )

    def test_refusal_is_a_repro_error_and_names_the_way_out(self):
        drift, delay = _models(9)
        with pytest.raises(ReproError, match="record_trace=False"):
            SimulationEngine(
                line(9), AoptAlgorithm(PARAMS), drift, delay, 10.0,
                trace_node_cap=8,
            )

    def test_streaming_mode_ignores_the_cap(self):
        drift, delay = _models(12)
        topology = line(12)
        engine = SimulationEngine(
            topology, AoptAlgorithm(PARAMS), drift, delay, 10.0,
            initiators=topology.nodes,
            record_trace=False, trace_node_cap=8,
        )
        result = engine.run_streaming()
        assert result.events_processed > 0
        assert result.global_skew.value >= 0.0

    def test_default_cap_value(self):
        assert DEFAULT_TRACE_NODE_CAP == 50_000

    def test_at_cap_is_allowed(self):
        drift, delay = _models(8)
        trace = run_execution(
            line(8), AoptAlgorithm(PARAMS), drift, delay, 10.0,
            initiators=line(8).nodes, trace_node_cap=8,
        )
        assert trace.events_processed > 0


class TestTraceFoldMemory:
    """Trace mode folds its skews in windows of ``FLUSH_CELLS`` cells, so
    the after-the-fact evaluation holds O(window) floats: two nodes ×
    instants float matrices of this trace (64 × 27,471) take 27 MiB."""

    PEAK_CEILING_BYTES = 8 * 1024 * 1024

    #: The trace's records hold four float64 columns, 32 bytes a
    #: checkpoint: this trace (about 28,000 checkpoints) takes about
    #: 1.1 MiB, where lists of Python floats took 3.4 MiB.
    TRACE_CEILING_BYTES = 1536 * 1024

    @staticmethod
    def _line64_spec() -> ExecutionSpec:
        n = 64
        drift, delay = _models(n)
        return ExecutionSpec(
            topology=line(n), algorithm=AoptAlgorithm(PARAMS), drift=drift,
            delay=delay, horizon=600.0, params=PARAMS,
        )

    def test_line64_trace_size_is_bounded(self):
        spec = self._line64_spec()
        tracemalloc.start()
        try:
            trace, _ = spec.run()
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(r.checkpoint_count for r in trace.logical.values()) > 20_000
        assert size <= self.TRACE_CEILING_BYTES, (
            f"the trace holds {size / 2**20:.2f} MiB after spec.run() "
            f"(ceiling {self.TRACE_CEILING_BYTES / 2**20:.1f} MiB)"
        )

    def test_line64_summary_peak_is_bounded(self):
        trace, _ = self._line64_spec().run()
        tracemalloc.start()
        try:
            summarize_trace(trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_CEILING_BYTES, (
            f"summarize_trace peaked at {peak / 2**20:.1f} MiB allocated "
            f"(ceiling {self.PEAK_CEILING_BYTES / 2**20:.0f} MiB)"
        )


@pytest.mark.slow
class TestHundredThousandNodes:
    WALL_CEILING_SECONDS = 240.0
    PEAK_ALLOC_CEILING_BYTES = 1_200 * 1024 * 1024

    def test_line_100k_streaming_bounded(self):
        n = 100_000
        topology = line(n)
        drift, delay = _models(n)
        started = time.perf_counter()
        tracemalloc.start()
        try:
            result = run_execution_streaming(
                topology, AoptAlgorithm(PARAMS), drift, delay, 6.0,
                initiators=topology.nodes,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        wall = time.perf_counter() - started

        assert result.events_processed > 1_000_000
        # Two constant-rate drift groups on a line: the worst skew is the
        # two groups drifting apart at 2ε until the rate rule catches up.
        assert result.global_skew.value > 0.0
        assert result.local_skew.value > 0.0
        assert result.final_spread >= 0.0
        assert wall < self.WALL_CEILING_SECONDS, (
            f"100k-node streaming run took {wall:.1f}s "
            f"(ceiling {self.WALL_CEILING_SECONDS}s)"
        )
        assert peak < self.PEAK_ALLOC_CEILING_BYTES, (
            f"100k-node streaming run peaked at {peak / 1e6:.0f} MB "
            f"allocated (ceiling {self.PEAK_ALLOC_CEILING_BYTES / 1e6:.0f} "
            f"MB) — is the fold or the pruner holding O(events) state?"
        )
