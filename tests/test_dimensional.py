"""Dimensional oracle: scaling time by a power of two scales every result.

The model has one unit, time, and every bound of the paper is linear in
it (Theorem 5.5's ``G = (1+ε)·D·T + 2ε/(1+ε)·H0`` with ``H0 = T̂/μ``).
So multiplying every time input of an execution by ``2^j`` — the delay
bound ``T`` (and with it ``H0`` and κ), the horizon (and with it the
drift periods), and every crash, link, edge-outage and node-absence
time — must multiply every time-valued output by exactly ``2^j``:
multiplying a float by a power of two is exact, so the scaled run takes
the same branches on the same floats, scaled.  Pairs, counters and the
number of monitor violations stay equal.

This oracle needs no second engine, only a second run.  Scenarios come
from the certification fuzzer; specs with message faults or Byzantine
nodes are left out because their draws hash the send time, and that
hash key is a digest contract.
"""

from __future__ import annotations

import functools

import pytest

from repro.cert.fuzzer import sample_scenario
from repro.cert.scenario import ALGORITHM_KINDS, CertScenario
from repro.exec.summary import ExecutionSummary

pytestmark = pytest.mark.parity

#: Summary fields measured in time.
TIME_FIELDS = (
    "global_skew",
    "global_skew_time",
    "local_skew",
    "local_skew_time",
    "final_spread",
)
#: Summary fields that must not change at all.
INVARIANT_FIELDS = (
    "global_skew_pair",
    "local_skew_pair",
    "total_messages",
    "total_bits",
    "events_processed",
    "messages_dropped",
    "messages_lost_link",
    "messages_lost_crash",
    "messages_duplicated",
)

SCENARIOS = range(10)
EXPONENTS = (1, -1, -10)


def scale_time(scenario: CertScenario, factor: float) -> CertScenario:
    """``scenario`` with every time input multiplied by ``factor``."""

    def scaled(events, first_time):
        return tuple(
            event[:first_time]
            + tuple(None if t is None else t * factor for t in event[first_time:])
            for event in events
        )

    assert not scenario.has_byzantine
    return scenario.with_changes(
        delay_bound=scenario.delay_bound * factor,
        horizon=scenario.horizon * factor,
        crash_events=scaled(scenario.crash_events, 1),
        link_events=scaled(scenario.link_events, 2),
        edge_outages=scaled(scenario.edge_outages, 2),
        node_absences=scaled(scenario.node_absences, 1),
    )


@functools.lru_cache(maxsize=None)
def _summary(scenario: CertScenario) -> ExecutionSummary:
    return scenario.build_spec().run_summary()


def assert_scales(scenario: CertScenario, exponent: int) -> None:
    factor = 2.0 ** exponent
    base = _summary(scenario)
    scaled = _summary(scale_time(scenario, factor))
    assert {f: getattr(scaled, f) for f in TIME_FIELDS} == {
        f: getattr(base, f) * factor for f in TIME_FIELDS
    }
    assert {f: getattr(scaled, f) for f in INVARIANT_FIELDS} == {
        f: getattr(base, f) for f in INVARIANT_FIELDS
    }
    assert len(scaled.monitor_violations) == len(base.monitor_violations)


@pytest.mark.parametrize("exponent", EXPONENTS)
@pytest.mark.parametrize("index", SCENARIOS)
@pytest.mark.parametrize("algorithm", ALGORITHM_KINDS)
def test_time_outputs_scale_exactly(algorithm, index, exponent):
    assert_scales(sample_scenario(0, index, algorithm=algorithm), exponent)


#: ``_INCREASE_EPS`` is an absolute time threshold in Algorithm 3, where
#: the paper tests for an increase greater than 0.  Its one definition is
#: in ``core/node.py``, used by ``AoptNode._set_clock_rate`` (the only
#: copy of the rule) and imported by the oblivious-gradient baseline.  At
#: these scales it suppresses a different set of alarms than at unit
#: scale, so the event counts differ.  Both pass with the threshold at 0.
_INCREASE_EPS = pytest.mark.xfail(
    strict=True, reason="_INCREASE_EPS is an absolute time threshold"
)


@pytest.mark.parametrize(
    "scenario,exponent",
    [
        # events 2687 vs 2688
        pytest.param(sample_scenario(0, 5), 3, id="0-5-x8", marks=_INCREASE_EPS),
        # events 20424 vs 20433, and final_spread differs
        pytest.param(
            sample_scenario(0, 1, include_churn=True), 1,
            id="churn-0-1-x2", marks=_INCREASE_EPS,
        ),
    ],
)
def test_known_scale_defects(scenario, exponent):
    assert_scales(scenario, exponent)
