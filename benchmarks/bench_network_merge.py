"""E24 — extension: merging independently synchronized networks.

Two halves of a line run as separate networks — the bridge edge is held
out of the topology by a :class:`~repro.topology.dynamic.TopologySchedule`
(``edge_appears`` at the join time), the first-class dynamic-graph model
that replaced the old message-dropping workaround (since removed).
While separated, the halves' maxima drift apart at ``2ε`` per unit time.
When the bridge appears, §4.2's first-message integration kicks in: the
larger ``L^max`` floods across, the slow half catches up at rate
``≈ μ``, and the merged system settles under the connected-graph bound.
The benchmark sweeps the join time (hence the accumulated divergence)
and reports settle times against the ``gap/((1−ε)μ)`` prediction.
"""

import pytest

from benchmarks.conftest import run_once
from repro.analysis.tables import format_table
from repro.analysis.timeseries import convergence_time, spread_series
from repro.core.bounds import global_skew_bound
from repro.core.node import AoptAlgorithm
from repro.core.params import SyncParams
from repro.sim.delays import ConstantDelay
from repro.sim.drift import PerNodeDrift
from repro.sim.engine import SimulationEngine
from repro.topology.dynamic import TopologySchedule
from repro.topology.generators import line

pytestmark = pytest.mark.dynamic

EPSILON = 0.05
DELAY = 1.0
N = 8
BRIDGE = (3, 4)


@pytest.mark.benchmark(group="E24-network-merge")
def test_merge_settle_time_vs_divergence(benchmark, report):
    params = SyncParams.recommended(epsilon=EPSILON, delay_bound=DELAY)
    bound = global_skew_bound(params, N - 1)

    def run_one(join_time):
        drift = PerNodeDrift(
            EPSILON, {u: 1 + EPSILON for u in range(4)}, default=1 - EPSILON
        )
        schedule = TopologySchedule().edge_appears(*BRIDGE, at=join_time)
        horizon = join_time + 250.0
        engine = SimulationEngine(
            line(N), AoptAlgorithm(params), drift, ConstantDelay(DELAY),
            horizon, initiators=[0, 7], topology_schedule=schedule,
        )
        trace = engine.run()
        gap = trace.spread_at(join_time)
        series = spread_series(trace, join_time, horizon, samples=400)
        settle = convergence_time(series, threshold=bound)
        return gap, settle, join_time

    def experiment():
        rows = []
        for join_time in (40.0, 80.0, 160.0):
            gap, settle, t_join = run_one(join_time)
            predicted = gap / ((1 - EPSILON) * params.mu) + DELAY * N
            rows.append(
                [t_join, gap, settle - t_join if settle is not None else None,
                 predicted]
            )
        return rows

    rows = run_once(benchmark, experiment)
    report(
        "E24 (extension): network merge — settle time vs divergence",
        format_table(
            ["join time", "gap at join", "settle after join", "gap/((1-eps)mu)+DT"],
            rows,
        ),
    )
    for _join, gap, settle_delta, predicted in rows:
        assert settle_delta is not None
        assert settle_delta <= predicted + 25.0
    # Larger divergence takes proportionally longer to reconcile.
    deltas = [row[2] for row in rows]
    assert deltas == sorted(deltas)
    assert deltas[-1] > deltas[0]
