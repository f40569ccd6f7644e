"""Planted violations 1e-6 past each bound must fire.

``TOLERANCE`` (1e-7) is the slack every gate adds to its bound: the CLI
exit code, the skew certificates and the online monitors.  These cases
sit ten tolerances past the limit, so they fail if the slack is raised
to 1e-6 or beyond; each also checks that the limit itself passes.
"""

from types import SimpleNamespace

import pytest

from repro.cert.certificates import CERTIFICATES
from repro.cli import _within_aopt_bounds
from repro.core.bounds import global_skew_bound, local_skew_bound
from repro.core.params import SyncParams
from repro.sim.monitors import EnvelopeMonitor, RateBoundMonitor

PARAMS = SyncParams.recommended(epsilon=0.05, delay_bound=1.0)
D = 4
PAST = 1e-6


class TestCliGate:
    @pytest.mark.parametrize("algorithm", ["aopt", "aopt-jump"])
    def test_global_bound(self, algorithm):
        g = global_skew_bound(PARAMS, D)
        assert _within_aopt_bounds(algorithm, PARAMS, D, g, 0.0)
        assert not _within_aopt_bounds(algorithm, PARAMS, D, g + PAST, 0.0)

    @pytest.mark.parametrize("algorithm", ["aopt", "aopt-jump"])
    def test_local_bound(self, algorithm):
        local = local_skew_bound(PARAMS, D)
        assert _within_aopt_bounds(algorithm, PARAMS, D, 0.0, local)
        assert not _within_aopt_bounds(algorithm, PARAMS, D, 0.0, local + PAST)

    def test_ungated_algorithm_passes(self):
        g = global_skew_bound(PARAMS, D)
        assert _within_aopt_bounds("aopt-ft", PARAMS, D, 2 * g, 0.0)


@pytest.mark.parametrize(
    "name,metric", [("thm-5.5-global-skew", "global"), ("thm-5.10-local-skew", "local")]
)
def test_skew_certificate_verdict(name, metric):
    certificate = CERTIFICATES[name]
    bound = certificate.bound(PARAMS, D)

    def verdict(measured):
        summary = SimpleNamespace(**{
            f"{metric}_skew": measured, f"{metric}_skew_time": 1.0,
        })
        return certificate.check_summary(summary, PARAMS, D)

    assert verdict(bound).satisfied
    failed = verdict(bound + PAST)
    assert not failed.satisfied
    assert failed.violation_time == 1.0


def _engine(logical, rate):
    """One started node, hardware started at 0, with fixed clock readings."""
    record = SimpleNamespace(value=lambda t: logical, rate_at=lambda t: rate)
    runtime = SimpleNamespace(
        started=True, hardware=SimpleNamespace(start_time=0.0), record=record
    )
    return SimpleNamespace(
        _runtimes={0: runtime}, algorithm=SimpleNamespace(allows_jumps=False)
    )


def _violations(monitor, logical=10.0, rate=1.0, t=10.0):
    monitor.check(_engine(logical, rate), 0, t)
    return [v.detail for v in monitor.violations]


class TestEnvelopeMonitor:
    # At t = 10 with ε = 0.05 the envelope is [9.5, 10.5].
    def test_upper(self):
        assert _violations(EnvelopeMonitor(0.05, strict=False), logical=10.5) == []
        fired = _violations(EnvelopeMonitor(0.05, strict=False), logical=10.5 + PAST)
        assert len(fired) == 1 and "upper" in fired[0]

    def test_lower(self):
        assert _violations(EnvelopeMonitor(0.05, strict=False), logical=9.5) == []
        fired = _violations(EnvelopeMonitor(0.05, strict=False), logical=9.5 - PAST)
        assert len(fired) == 1 and "lower" in fired[0]


class TestRateBoundMonitor:
    def test_upper(self):
        assert _violations(RateBoundMonitor(0.95, 1.3, strict=False), rate=1.3) == []
        fired = _violations(RateBoundMonitor(0.95, 1.3, strict=False), rate=1.3 + PAST)
        assert len(fired) == 1 and "above beta" in fired[0]

    def test_lower(self):
        assert _violations(RateBoundMonitor(0.95, 1.3, strict=False), rate=0.95) == []
        fired = _violations(RateBoundMonitor(0.95, 1.3, strict=False), rate=0.95 - PAST)
        assert len(fired) == 1 and "below alpha" in fired[0]
