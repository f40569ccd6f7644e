"""Network-merge extension: two components join mid-run (§4.2 at scale).

Two halves of a line are initialized independently (separate initiators,
the bridge edge absent).  When the bridge appears, the halves hold
unrelated ``L^max`` maxima; A^opt must integrate the new neighbors via
their first messages, flood the larger maximum across, and reconcile the
skew at the catch-up rate.

The merge is expressed as a first-class
:class:`~repro.topology.dynamic.TopologySchedule` (``edge_appears``).
"""

import pytest

from repro.analysis.metrics import check_envelope
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
JOIN_TIME = 80.0

#: Spread at the join and settle time of the same merge run through the
#: retired ``TimeGatedDelay`` message-dropping wrapper (E24's historical
#: curve); the schedule model must reproduce them.
GATED_GAP = 10.849999999999994
GATED_SETTLE = 87.71929824561403


def merge_execution(params, horizon=300.0):
    # Left half runs fast, right half slow: before the merge the halves'
    # maxima diverge at ~2*eps per unit time.
    drift = PerNodeDrift(
        EPSILON, {u: 1 + EPSILON for u in range(4)}, default=1 - EPSILON
    )
    engine = SimulationEngine(
        line(N),
        AoptAlgorithm(params),
        drift,
        ConstantDelay(DELAY),
        horizon,
        initiators=[0, 7],
        topology_schedule=TopologySchedule().edge_appears(*BRIDGE, at=JOIN_TIME),
    )
    return engine, engine.run()


@pytest.fixture(scope="module", params=["schedule"])
def merged(request):
    params = SyncParams.recommended(epsilon=EPSILON, delay_bound=DELAY)
    engine, trace = merge_execution(params)
    return params, engine, trace


class TestMerge:
    def test_halves_independent_before_join(self, merged):
        _params, _engine, trace = merged
        # No message crossed the bridge before the join: every attempted
        # crossing is accounted as lost on a non-existent link.
        assert trace.messages_lost_link > 0

    def test_components_diverge_then_reconcile(self, merged):
        params, _engine, trace = merged
        # Just before the join the halves have drifted far apart.
        assert trace.spread_at(JOIN_TIME) > 2 * EPSILON * JOIN_TIME * 0.8
        # Long after the join, the spread obeys the connected-graph bound.
        bound = global_skew_bound(params, N - 1)
        assert trace.global_skew(250.0, trace.horizon).value <= bound + 1e-7

    def test_reconciliation_speed(self, merged):
        """The slow side catches up at rate ~mu: settle time after the
        join is about (pre-join spread)/((1-eps)*mu) plus propagation."""
        params, _engine, trace = merged
        gap = trace.spread_at(JOIN_TIME)
        series = spread_series(trace, JOIN_TIME, trace.horizon, samples=400)
        bound = global_skew_bound(params, N - 1)
        settle = convergence_time(series, threshold=bound)
        assert settle is not None
        expected = JOIN_TIME + DELAY * N + gap / ((1 - EPSILON) * params.mu)
        assert settle <= expected + 20.0

    def test_envelope_through_merge(self, merged):
        params, _engine, trace = merged
        assert check_envelope(trace, EPSILON) <= 1e-7

    def test_neighbors_integrated_by_first_message(self, merged):
        _params, engine, trace = merged
        left_of_bridge = engine.node_state(BRIDGE[0])
        hw = trace.hardware_value(BRIDGE[0], trace.horizon)
        # After the merge, node 3 holds an estimate for node 4.
        assert left_of_bridge.estimate_of(BRIDGE[1], hw) is not None

    def test_mechanisms_agree_on_settle_time(self):
        """The TopologySchedule path reproduces E24's settle curve: the
        same gap at join as the gated-delay mechanism recorded, and a
        settle time within a sampling tolerance of its settle time."""
        params = SyncParams.recommended(epsilon=EPSILON, delay_bound=DELAY)
        bound = global_skew_bound(params, N - 1)
        _engine, trace = merge_execution(params)
        series = spread_series(trace, JOIN_TIME, trace.horizon, samples=400)
        settle = convergence_time(series, threshold=bound)
        assert settle is not None
        # Identical divergence while separated (nothing crossed either
        # way), and settle times within a sampling step of each other.
        assert trace.spread_at(JOIN_TIME) == pytest.approx(GATED_GAP)
        step = (300.0 - JOIN_TIME) / 400
        assert abs(settle - GATED_SETTLE) <= 2 * step
