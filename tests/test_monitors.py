"""Unit tests for the invariant monitors."""

import json
from pathlib import Path

import pytest

from repro.core.interfaces import Algorithm, AlgorithmNode
from repro.errors import InvariantViolation
from repro.sim.delays import ConstantDelay
from repro.sim.drift import ConstantDrift
from repro.sim.engine import SimulationEngine
from repro.sim.monitors import EnvelopeMonitor, MonotonicityMonitor, RateBoundMonitor
from repro.topology.generators import line


class _Node(AlgorithmNode):
    def __init__(self, multiplier, jump_to=None):
        self._multiplier = multiplier
        self._jump_to = jump_to

    def on_start(self, ctx):
        ctx.send_all(("x",))
        ctx.set_rate_multiplier(self._multiplier)
        ctx.set_alarm("tick", 5.0)

    def on_alarm(self, ctx, name):
        if self._jump_to is not None:
            ctx.jump_logical(ctx.logical() + self._jump_to)
        ctx.set_alarm("tick", ctx.hardware() + 5.0)

    def on_message(self, ctx, sender, payload):
        pass


class _Algo(Algorithm):
    def __init__(self, multiplier, jump_to=None, allows_jumps=False):
        self._multiplier = multiplier
        self._jump_to = jump_to
        self.allows_jumps = allows_jumps
        self.name = "monitored"

    def make_node(self, node_id, neighbors):
        return _Node(self._multiplier, self._jump_to)


def run_with(monitors, multiplier=1.0, jump_to=None, allows_jumps=False, horizon=20.0):
    engine = SimulationEngine(
        line(2),
        _Algo(multiplier, jump_to, allows_jumps),
        ConstantDrift(0.05),
        ConstantDelay(0.5),
        horizon,
        monitors=monitors,
    )
    return engine.run()


class TestEnvelopeMonitor:
    def test_clean_run_passes(self):
        monitor = EnvelopeMonitor(0.05, strict=True)
        run_with([monitor])
        assert monitor.violations == []

    def test_upper_violation_detected(self):
        monitor = EnvelopeMonitor(0.05, strict=False)
        run_with([monitor], multiplier=2.0)  # rate 2 > 1 + eps
        assert monitor.violations
        assert "upper" in monitor.violations[0].detail

    def test_strict_mode_raises(self):
        with pytest.raises(InvariantViolation):
            run_with([EnvelopeMonitor(0.05, strict=True)], multiplier=2.0)

    def test_lower_violation_detected(self):
        monitor = EnvelopeMonitor(0.05, strict=False)
        run_with([monitor], multiplier=0.5)  # rate 0.5 < 1 - eps
        assert any("lower" in v.detail for v in monitor.violations)


class TestRateBoundMonitor:
    def test_clean_run_passes(self):
        monitor = RateBoundMonitor(alpha=0.9, beta=1.2, strict=True)
        run_with([monitor])
        assert monitor.violations == []

    def test_beta_violation(self):
        monitor = RateBoundMonitor(alpha=0.9, beta=1.2, strict=False)
        run_with([monitor], multiplier=1.5)
        assert any("above beta" in v.detail for v in monitor.violations)

    def test_alpha_violation(self):
        monitor = RateBoundMonitor(alpha=0.9, beta=1.2, strict=False)
        run_with([monitor], multiplier=0.5)
        assert any("below alpha" in v.detail for v in monitor.violations)

    def test_jump_algorithms_skip_beta(self):
        monitor = RateBoundMonitor(alpha=0.9, beta=1.2, strict=False)
        run_with([monitor], jump_to=1e6, allows_jumps=True)
        assert not any("above beta" in v.detail for v in monitor.violations)


class TestMonotonicityMonitor:
    def test_clean_run_passes(self):
        monitor = MonotonicityMonitor(strict=True)
        run_with([monitor])
        assert monitor.violations == []


# ---------------------------------------------------------------------------
# report pins
# ---------------------------------------------------------------------------

#: Full violation lists of the three per-node monitors on the violating
#: engines below, captured from the accessor-based checks
#: (``engine.start_time`` / ``engine.logical_value``) that the direct
#: runtime reads replaced.
REPORTS = json.loads(
    (Path(__file__).parent / "fixtures" / "monitors" / "violation-reports.json").read_text()
)

REPORT_CASES = {
    "multiplier-2.0": dict(multiplier=2.0),
    "multiplier-0.5": dict(multiplier=0.5),
    "jumps-allowed-multiplier-2.0": dict(multiplier=2.0, jump_to=4.0, allows_jumps=True),
}


def _collecting_monitors():
    return [
        EnvelopeMonitor(0.05, strict=False),
        RateBoundMonitor(alpha=0.9, beta=1.2, strict=False),
        MonotonicityMonitor(strict=False),
    ]


class TestReportPins:
    @pytest.mark.parametrize("case", sorted(REPORT_CASES))
    def test_reports_match_pinned(self, case):
        settings = dict(REPORT_CASES[case])
        monitors = _collecting_monitors()
        SimulationEngine(
            line(2),
            _Algo(settings.pop("multiplier"), **settings),
            ConstantDrift(0.05),
            ConstantDelay(0.5),
            20.0,
            monitors=monitors,
        ).run()
        reports = [
            [v.monitor, v.node, v.time, v.detail]
            for monitor in monitors
            for v in monitor.violations
        ]
        assert reports == REPORTS[case]

    def test_unstarted_node_skipped(self):
        # Before the run no node has started: no clock record exists yet,
        # and every check must return without reading one.
        monitors = _collecting_monitors()
        engine = SimulationEngine(
            line(2),
            _Algo(2.0),
            ConstantDrift(0.05),
            ConstantDelay(0.5),
            20.0,
            monitors=monitors,
        )
        for node in (0, 1):
            assert not engine.is_started(node)
            for monitor in monitors:
                monitor.check(engine, node, 3.0)
        assert [m.violations for m in monitors] == [[], [], []]
        assert monitors[2]._last == {}
