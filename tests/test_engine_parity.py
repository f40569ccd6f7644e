"""Engine-parity suite: the fast path against pinned fingerprints, bit for bit.

The contract of :class:`~repro.sim.engine.SimulationEngine` is
*exactness*: for every scenario it produces the same breakpoints, the
same skew extrema, the same counters — not approximately, but to the
last float bit.  These tests pin that contract three ways:

* **pinned fingerprints** — ``fixtures/parity/fingerprints.json`` holds,
  for each of 24 cases, the canonical summary JSON (spec digest
  stripped), the sha256 of the structured event log
  (:func:`repro.obs.export.event_log_digest`) and the number of log
  records.  17 pins were captured at commit 5f702da from the
  event-at-a-time reference engine that the fast engine replaced, which
  the fast engine then matched on every case; that engine has since
  been deleted.  The 7 ``rate-rule-*`` pins were captured at commit
  748f587, before the variants' copies of Algorithm 3 became hooks of
  the one rule.  The fast trace path and the streaming path must each
  reproduce every pin.
* **trace vs streaming** — ``record_trace=False`` folds skew extrema
  incrementally instead of materializing a trace; both modes meet the
  same pin, while their (deliberately different) spec digests differ.
* **fold paths** — both evaluation paths of the skew fold (numpy and
  per-instant) give the same extrema, at any window size.

The scenario matrix reuses the certification fuzzer
(:func:`repro.cert.fuzzer.sample_scenario`): seeded draws over
line/ring/star/grid/random topologies, drift/delay adversary kinds, and
fault schedules, so the same generator that hunts theorem violations
also exercises engine parity.

A deliberate model change moves the pins.  Re-pin from the fast engine
with ``PYTHONPATH=src python -m tests.test_engine_parity`` and review
the fixture diff.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import pickle
from pathlib import Path
from typing import Dict

import pytest

from repro.baselines.max_forward import MaxForwardAlgorithm
from repro.cert.fuzzer import sample_scenario
from repro.core.node import AoptAlgorithm
from repro.core.params import SyncParams
from repro.exec.spec import ExecutionSpec
from repro.exec.summary import summarize_streaming, summarize_trace
from repro.obs.export import event_log_digest
from repro.sim.runner import run_execution, run_execution_streaming
from repro.sim.trace import SkewExtremum
from repro.sim.drift import RandomWalkDrift, TwoGroupDrift
from repro.sim.delays import ConstantDelay, UniformDelay
from repro.topology.generators import grid, line

pytestmark = pytest.mark.parity

PARAMS = SyncParams.recommended(epsilon=0.05, delay_bound=1.0)

FINGERPRINTS = Path(__file__).parent / "fixtures" / "parity" / "fingerprints.json"

#: (campaign seed, scenario index) draws for the parity matrix, chosen to
#: span line/ring/star/grid/random topologies, every drift and delay
#: kind, and crash/link-outage fault schedules.  Draw (1, 4) is skipped
#: deliberately: its sampled fault timeline overlaps (two crashes on one
#: node) and FaultInjector rejects it before any engine runs.
SCENARIO_DRAWS = [
    (1, 0),   # random / two-group / zero + faults
    (1, 1),   # star / two-group / zero + faults
    (1, 2),   # ring / sinusoidal / zero + faults
    (1, 5),   # random / two-group / constant + faults
    (1, 6),   # grid / two-group / uniform
    (1, 10),  # line / random-walk / uniform + faults
    (2, 0),   # line / alternating / uniform
    (2, 7),   # line / random-walk / constant + faults
    (2, 8),   # grid / two-group / zero
    (2, 10),  # ring / random-walk / uniform
]

#: Fuzzer draws with ``include_byzantine=True``: star topologies with
#: one or more Byzantine leaves and horizons long enough for the
#: corruption to be *accepted* (not merely injected).
BYZANTINE_DRAWS = [(3, 0), (3, 1)]


def _scenario_spec(seed: int, index: int) -> ExecutionSpec:
    return sample_scenario(seed, index, algorithm="aopt").build_spec()


def _byzantine_spec(seed: int, index: int) -> ExecutionSpec:
    scenario = sample_scenario(seed, index, include_byzantine=True)
    assert scenario.has_byzantine
    return scenario.build_spec()


def _combined_spec() -> ExecutionSpec:
    """Hand-built worst case: Byzantine leaf + crash + edge churn."""
    from repro.faults import FaultSchedule
    from repro.topology.dynamic import TopologySchedule
    from repro.topology.generators import star
    from repro.variants import ftgcs_rejection_window

    params = SyncParams.recommended(epsilon=0.1, delay_bound=0.5)
    topology = star(6)
    window = ftgcs_rejection_window(params, 2)
    faults = (
        FaultSchedule(seed=13, byzantine_magnitude=6.0 * window)
        .byzantine(1, at=2.0, until=40.0)
        .crash(5, at=15.0, until=25.0)
    )
    churn = (
        TopologySchedule()
        .edge_disappears(0, 3, at=10.0, until=20.0)
        .leaves(4, at=30.0, until=40.0)
    )
    return ExecutionSpec(
        topology,
        AoptAlgorithm(params),
        TwoGroupDrift(0.1, topology.nodes[3:]),
        ConstantDelay(0.5),
        60.0,
        faults=faults,
        topology_schedule=churn,
        label="star/byzantine+crash+churn",
    )


def _event_log_spec() -> ExecutionSpec:
    return ExecutionSpec(
        line(6),
        AoptAlgorithm(PARAMS),
        TwoGroupDrift(0.05, [0, 1, 2]),
        UniformDelay(0.0, 1.0, seed=11),
        40.0,
        label="line/event-log",
    )


def _grid_spec() -> ExecutionSpec:
    return ExecutionSpec(
        grid(3, 3),
        AoptAlgorithm(PARAMS),
        TwoGroupDrift(0.05, [(0, 0), (0, 1), (0, 2), (1, 0)]),
        ConstantDelay(1.0),
        50.0,
        label="grid/two-group",
    )


#: Algorithms that change what feeds Algorithm 3 (κ, the L^max headroom,
#: the boost, the rest branch), plus oblivious-gradient, which replaces
#: the rule, and the planted aopt-broken-rate, which never boosts.
RATE_RULE_VARIANTS = (
    "aopt-jump",
    "aopt-no-max-cap",
    "aopt-adaptive-delay",
    "aopt-hw-envelope",
    "aopt-external",
    "oblivious-gradient",
    "aopt-broken-rate",
)


def _rate_rule_spec(name: str) -> ExecutionSpec:
    """``name`` on line(6): a two-group drift, random delays, and the
    middle edge down from t=10 to t=90, so the groups drift about
    ``0.1·80 > κ`` apart before they merge.

    Sized so each variant's own branch runs: jumps are taken, the uncapped
    boost overshoots L^max, the adaptive κ (not ``PARAMS.kappa``) sets the
    increase after the merge, and the damped L^max of hw-envelope and
    external makes the catch-up time, not the budget, end some boosts.
    """
    from repro.baselines.oblivious_gradient import (
        ObliviousGradientAlgorithm,
        blocking_threshold,
    )
    from repro.cert.planted import BrokenRateRuleAoptAlgorithm
    from repro.sim.drift import PerNodeDrift
    from repro.topology.dynamic import TopologySchedule
    from repro.variants import (
        AdaptiveDelayAoptAlgorithm,
        ExternalAoptAlgorithm,
        HardwareEnvelopeAoptAlgorithm,
        JumpAoptAlgorithm,
    )
    from repro.variants.ablations import NoMaxCapAopt

    builders = {
        "aopt-jump": lambda: JumpAoptAlgorithm(PARAMS),
        "aopt-no-max-cap": lambda: NoMaxCapAopt(PARAMS),
        "aopt-adaptive-delay": lambda: AdaptiveDelayAoptAlgorithm(
            PARAMS, initial_estimate=0.01
        ),
        "aopt-hw-envelope": lambda: HardwareEnvelopeAoptAlgorithm(PARAMS),
        "aopt-external": lambda: ExternalAoptAlgorithm(PARAMS, source=0),
        "oblivious-gradient": lambda: ObliviousGradientAlgorithm(
            PARAMS, blocking_threshold(PARAMS, 5)
        ),
        "aopt-broken-rate": lambda: BrokenRateRuleAoptAlgorithm(PARAMS),
    }
    return ExecutionSpec(
        line(6),
        builders[name](),
        # Node 0 runs at real time, as aopt-external's source must (§8.5).
        PerNodeDrift(0.05, {0: 1.0, 1: 1.05, 2: 1.0}, default=0.95),
        UniformDelay(0.0, 1.0, seed=7),
        140.0,
        topology_schedule=TopologySchedule().edge_disappears(
            2, 3, at=10.0, until=90.0
        ),
        label=f"line/{name}",
    )


def pinned_cases() -> Dict[str, ExecutionSpec]:
    """Every pinned case by fixture key, as a trace-mode spec."""
    from tests.test_dynamic_topology import _merge_spec, _partition_spec

    cases = {f"scenario-{s}-{i}": _scenario_spec(s, i) for s, i in SCENARIO_DRAWS}
    cases.update(
        (f"byzantine-{s}-{i}", _byzantine_spec(s, i)) for s, i in BYZANTINE_DRAWS
    )
    cases.update({
        "combined": _combined_spec(),
        "merge": _merge_spec(),
        "partition": _partition_spec(),
        "line-events": _event_log_spec(),
        "grid-tuple-ids": _grid_spec(),
    })
    cases.update(
        (f"rate-rule-{name}", _rate_rule_spec(name)) for name in RATE_RULE_VARIANTS
    )
    return cases


def _canonical(obj):
    """Reduce a summary (or any nested piece of one) to JSON-safe data.

    Floats become their shortest ``repr`` — which round-trips the IEEE-754
    bit pattern exactly, so canonical-JSON equality *is* bit equality.
    Dict keys (node ids may be tuples on grids) are ``repr``-ed too.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _canonical(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {repr(key): _canonical(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(value) for value in obj]
    if isinstance(obj, float):
        return repr(obj)
    return obj


def canonical_summary_json(summary) -> str:
    # Trace and streaming digests differ *by design* (record_trace is part
    # of the digest so the cache keeps the modes separate).
    summary = dataclasses.replace(summary, spec_digest="")
    return json.dumps(_canonical(summary), sort_keys=True)


def run_recorded(spec: ExecutionSpec):
    """Run ``spec`` in its own mode with the event log on.

    Returns ``(summary, event_log)``; the summary is what
    :meth:`ExecutionSpec.run_summary` returns for the same spec.
    """
    if spec.record_trace:
        trace, monitors = spec.run(record_events=True)
        summary = summarize_trace(
            trace, digest=spec.digest(), label=spec.label, monitors=monitors
        )
        return summary, trace.event_log
    algorithm, drift, delay = copy.deepcopy((spec.algorithm, spec.drift, spec.delay))
    monitors = spec._monitors()
    result = run_execution_streaming(
        spec.topology, algorithm, drift, delay, spec.horizon,
        initiators=dict(spec.initiators) if spec.initiators else None,
        monitors=monitors,
        faults=spec.faults,
        topology_schedule=spec.topology_schedule,
        record_events=True,
    )
    summary = summarize_streaming(
        result, digest=spec.digest(), label=spec.label, monitors=monitors
    )
    return summary, result.event_log


def fingerprint(summary, event_log) -> dict:
    """What a pin stores: canonical summary, event-log digest and length."""
    return {
        "summary": json.loads(canonical_summary_json(summary)),
        "event_log_digest": event_log_digest(event_log),
        "events": len(event_log),
    }


@functools.lru_cache(maxsize=None)
def _pins() -> Dict[str, dict]:
    return json.loads(FINGERPRINTS.read_text())


def assert_pinned(name: str, spec: ExecutionSpec):
    """Run ``spec`` and check it against pin ``name``; returns the run."""
    summary, event_log = run_recorded(spec)
    mode = "trace" if spec.record_trace else "streaming"
    assert fingerprint(summary, event_log) == _pins()[name], (
        f"{mode} run of {spec.label} diverged from pinned case {name!r}"
    )
    return summary, event_log


def repin() -> None:
    """Rewrite the fixture from the fast engine's trace mode."""
    pins = {
        name: fingerprint(*run_recorded(spec))
        for name, spec in pinned_cases().items()
    }
    FINGERPRINTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def test_every_case_is_pinned():
    assert sorted(_pins()) == sorted(pinned_cases())


class TestScenarioMatrixParity:
    @pytest.mark.parametrize("seed,index", SCENARIO_DRAWS)
    def test_fast_trace_matches_reference(self, seed, index):
        assert_pinned(f"scenario-{seed}-{index}", _scenario_spec(seed, index))

    @pytest.mark.parametrize("seed,index", SCENARIO_DRAWS)
    def test_streaming_matches_fast_trace(self, seed, index):
        spec = _scenario_spec(seed, index)
        streamed, _ = assert_pinned(
            f"scenario-{seed}-{index}", spec.with_record_trace(False)
        )
        # The digests themselves must differ — cache separation is part of
        # the contract (see docs/ENGINE.md).
        assert streamed.spec_digest != spec.digest()

    @pytest.mark.parametrize("seed,index", SCENARIO_DRAWS[:4])
    def test_streaming_matches_reference_with_metrics(self, seed, index):
        """Counters (events, checkpoints, breakpoints per node) agree too."""
        name = f"scenario-{seed}-{index}"
        spec = _scenario_spec(seed, index).with_record_trace(False)
        streamed = spec.run_summary(collect_metrics=True)
        plain = dataclasses.replace(streamed, run_metrics=None)
        pinned = json.dumps(_pins()[name]["summary"], sort_keys=True)
        assert canonical_summary_json(plain) == pinned
        metrics = streamed.run_metrics
        assert metrics is not None
        assert metrics.events_processed == plain.events_processed
        assert metrics.phase_seconds == {}


class TestEventLogParity:
    def test_event_logs_identical_across_all_three_paths(self):
        spec = _event_log_spec()
        _, event_log = assert_pinned("line-events", spec)
        assert_pinned("line-events", spec.with_record_trace(False))
        assert event_log, "event log unexpectedly empty"


class TestRateRuleVariantParity:
    """Each variant's inputs to Algorithm 3 (κ, headroom, boost, rest)
    reproduce its pin in both modes."""

    @pytest.mark.parametrize("name", RATE_RULE_VARIANTS)
    def test_trace_matches_pin(self, name):
        assert_pinned(f"rate-rule-{name}", _rate_rule_spec(name))

    @pytest.mark.parametrize("name", RATE_RULE_VARIANTS)
    def test_streaming_matches_pin(self, name):
        spec = _rate_rule_spec(name).with_record_trace(False)
        assert_pinned(f"rate-rule-{name}", spec)


class TestByzantineChurnParity:
    """Byzantine corruption and topology churn hold the same bit-exact
    parity contract as the static matrix — alone and combined.

    Corruption draws come from the per-message hash, never shared RNG,
    so the fast trace path and the streaming fold must land every lie on
    the same message with the same depth as the pinned run.
    """

    @pytest.mark.byzantine
    @pytest.mark.parametrize("seed,index", BYZANTINE_DRAWS)
    def test_byzantine_fast_trace_matches_reference(self, seed, index):
        assert_pinned(f"byzantine-{seed}-{index}", _byzantine_spec(seed, index))

    @pytest.mark.byzantine
    @pytest.mark.parametrize("seed,index", BYZANTINE_DRAWS)
    def test_byzantine_streaming_matches_fast_trace(self, seed, index):
        spec = _byzantine_spec(seed, index).with_record_trace(False)
        assert_pinned(f"byzantine-{seed}-{index}", spec)

    @pytest.mark.byzantine
    def test_combined_fast_trace_matches_reference(self):
        assert_pinned("combined", _combined_spec())

    @pytest.mark.byzantine
    def test_combined_streaming_matches_fast_trace(self):
        assert_pinned("combined", _combined_spec().with_record_trace(False))

    @pytest.mark.byzantine
    def test_byzantine_event_logs_identical_across_all_three_paths(self):
        spec = _combined_spec()
        _, event_log = assert_pinned("combined", spec)
        assert_pinned("combined", spec.with_record_trace(False))
        corrupt = [e for e in event_log if e[0] == "corrupt"]
        assert corrupt, "expected corruption entries under a Byzantine schedule"
        assert {e[2] for e in corrupt} == {1}, (
            f"only the scheduled liar may corrupt, got {spec.label} log"
        )


#: Patches of ``repro.sim.trace`` that send every window of the skew
#: fold down one evaluation path.
FOLD_PATHS = {
    "numpy": {"VECTOR_MIN_INSTANTS": 1},
    "per-instant": {"_np": None},
}


def _fold_path(monkeypatch, path):
    import repro.sim.trace as trace_mod

    if path == "numpy":
        pytest.importorskip("numpy")
    for name, value in FOLD_PATHS[path].items():
        monkeypatch.setattr(trace_mod, name, value)


def _scan_oracle(records, ts):
    """``(spread, t, hi, lo)`` by the contract's scan, one instant at a time."""
    best = (-1.0, None, None, None)
    for t in ts:
        for column in (
            [rec.value(t) for rec in records],
            [rec.value_left(t) for rec in records],
        ):
            spread = max(column) - min(column)
            if spread > best[0]:
                best = (
                    spread, t,
                    column.index(max(column)), column.index(min(column)),
                )
    return best


class TestVectorScalarParity:
    """Both paths of the skew fold must equal each other bit-for-bit.

    Every numpy step is the same sequence of correctly-rounded float64
    operations applied elementwise (no reductions that reorder rounding),
    so this is an equality assertion, not an approximation.
    """

    def _trace(self, algorithm="aopt"):
        drift = TwoGroupDrift(0.05, list(range(8)))
        delay = UniformDelay(0.0, 1.0, seed=5)
        # max-forward jumps, so its left limits differ from its values.
        chosen = (
            AoptAlgorithm(PARAMS) if algorithm == "aopt"
            else MaxForwardAlgorithm(1.0)
        )
        return run_execution(line(16), chosen, drift, delay, 150.0)

    def _points(self, trace, nodes):
        points = {0.0, trace.horizon}
        for node in nodes:
            points.update(trace.logical[node].breakpoints_in(0.0, trace.horizon))
        return sorted(points)

    def test_global_and_local_skew_match_forced_scalar(self, monkeypatch):
        import repro.sim.trace as trace_mod

        trace = self._trace()
        points = self._points(trace, trace.logical)
        assert len(points) >= trace_mod.VECTOR_MIN_INSTANTS, (
            "config too small to exercise the vector path"
        )
        vector_global = trace.global_skew()
        vector_local = trace.local_skew()
        monkeypatch.setattr(trace_mod, "_np", None)
        scalar_global = trace.global_skew()
        scalar_local = trace.local_skew()
        assert pickle.dumps(vector_global) == pickle.dumps(scalar_global)
        assert pickle.dumps(vector_local) == pickle.dumps(scalar_local)

    @pytest.mark.parametrize("algorithm", ["aopt", "max-forward"])
    @pytest.mark.parametrize("path", sorted(FOLD_PATHS))
    def test_each_path_matches_default(self, monkeypatch, path, algorithm):
        trace = self._trace(algorithm)
        default = (trace.global_skew(), trace.local_skew())
        _fold_path(monkeypatch, path)
        forced = (trace.global_skew(), trace.local_skew())
        assert pickle.dumps(forced) == pickle.dumps(default)

    @pytest.mark.parametrize("path", sorted(FOLD_PATHS))
    @pytest.mark.parametrize("n_instants", [1, 2, 3])
    def test_short_windows_match_scan(self, monkeypatch, path, n_instants):
        """One to three instants (the per-instant path by default), from
        a jump of node 3, where a left limit is not the value."""
        trace = self._trace("max-forward")
        _fold_path(monkeypatch, path)
        nodes = list(trace.logical)
        records = [trace.logical[node] for node in nodes]
        points = self._points(trace, nodes)
        jumps = trace.logical[3].jump_times
        for t0 in (jumps[0], jumps[len(jumps) // 2], points[-n_instants]):
            i = points.index(t0)
            window = points[i : i + n_instants]
            value, t, hi, lo = _scan_oracle(records, window)
            extremum = trace.global_skew(window[0], window[-1])
            assert pickle.dumps(extremum) == pickle.dumps(
                SkewExtremum(value, t, nodes[hi], nodes[lo])
            )
        a, b = trace.logical[3], trace.logical[4]
        pair_points = self._points(trace, (3, 4))
        for t0 in (jumps[0], jumps[len(jumps) // 2], pair_points[-n_instants]):
            i = pair_points.index(t0)
            window = pair_points[i : i + n_instants]
            value, t = -1.0, None
            for u in window:
                for skew in (a.value(u) - b.value(u), a.value_left(u) - b.value_left(u)):
                    if abs(skew) > value:
                        value, t = abs(skew), u
            extremum = trace.max_pair_skew(3, 4, window[0], window[-1])
            assert pickle.dumps(extremum) == pickle.dumps(
                SkewExtremum(value, t, 3, 4)
            )

    @pytest.mark.parametrize("window", [1, 3, 5, 64, 257])
    @pytest.mark.parametrize("path", sorted(FOLD_PATHS))
    def test_window_size_does_not_change_results(self, monkeypatch, path, window):
        """Trace mode folds in windows of ``FLUSH_CELLS // records``
        instants: any window size gives the one-window extrema."""
        import repro.sim.trace as trace_mod

        trace = self._trace("max-forward")
        _fold_path(monkeypatch, path)
        monkeypatch.setattr(trace_mod, "FLUSH_CELLS", 10**9)
        whole = (trace.global_skew(), trace.local_skew(), trace.max_pair_skew(3, 4))
        assert len(self._points(trace, trace.logical)) > 2 * window
        monkeypatch.setattr(trace_mod, "FLUSH_CELLS", window * len(trace.logical))
        windowed = (trace.global_skew(),)
        monkeypatch.setattr(trace_mod, "FLUSH_CELLS", window * 2)
        windowed += (trace.local_skew(), trace.max_pair_skew(3, 4))
        assert pickle.dumps(windowed) == pickle.dumps(whole)

    def test_vector_results_are_plain_floats(self):
        # np.float64 leaking into a summary would change pickles and JSON
        # reprs — the parity contract requires built-in floats throughout.
        extremum = self._trace().global_skew()
        assert type(extremum.value) is float
        assert type(extremum.time) is float


class TestHandPickedParity:
    """Deterministic non-fuzzed cases covering the summary corner fields."""

    def test_grid_tuple_node_ids(self):
        spec = _grid_spec()
        traced, _ = assert_pinned("grid-tuple-ids", spec)
        streamed, _ = assert_pinned("grid-tuple-ids", spec.with_record_trace(False))
        # Extremum *pairs* carry tuple node ids — exact identity matters.
        assert traced.global_skew_pair == streamed.global_skew_pair
        assert traced.local_skew_pair == streamed.local_skew_pair
        assert isinstance(streamed.global_skew_pair[0], tuple)

    def test_monitor_violations_format_identically(self):
        # aopt-broken-rate trips the rate-bound monitor; the formatted
        # violation strings must match between modes.
        scenario = sample_scenario(0, 3, algorithm="aopt-broken-rate")
        spec = scenario.build_spec()
        traced = spec.run_summary()
        streamed = spec.with_record_trace(False).run_summary()
        assert traced.monitor_violations == streamed.monitor_violations

    def test_random_walk_drift_stateful_rng(self):
        """Stateful model RNGs must be deep-copied identically per mode."""
        spec = ExecutionSpec(
            line(5),
            AoptAlgorithm(PARAMS),
            RandomWalkDrift(0.05, step_period=5.0, step_size=0.02, seed=3),
            UniformDelay(0.0, 1.0, seed=3),
            40.0,
            seed=3,
            label="line/random-walk",
        )
        first = spec.with_record_trace(False).run_summary()
        second = spec.with_record_trace(False).run_summary()
        traced = spec.run_summary()
        # Replays are deterministic, and both match trace evaluation.
        assert pickle.dumps(first) == pickle.dumps(second)
        assert canonical_summary_json(traced) == canonical_summary_json(first)


if __name__ == "__main__":
    repin()
