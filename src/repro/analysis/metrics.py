"""Trace metrics: envelope, rate bounds, legal state, gradient, estimates.

These turn the paper's theorem statements into checkable predicates over a
finished execution trace:

* Condition (1) / Corollary 5.3 — :func:`check_envelope`;
* Condition (2) — :func:`check_rate_bounds`;
* Definition 5.6 (legal state) — :func:`check_legal_state`;
* Corollary 7.9 (gradient property) — :func:`gradient_curve`;
* Lemma 5.4 (estimate accuracy) — :func:`estimate_accuracy_errors`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.bounds import global_skew_bound, gradient_bound, legal_state_levels
from repro.core.params import SyncParams
from repro.sim.monitors import TOLERANCE
from repro.sim.trace import ExecutionTrace

__all__ = [
    "check_envelope",
    "check_rate_bounds",
    "check_legal_state",
    "LegalStateReport",
    "gradient_curve",
    "estimate_accuracy_errors",
    "summarize",
]

NodeId = Hashable


def check_envelope(trace: ExecutionTrace, epsilon: float) -> float:
    """Worst envelope violation across all nodes and all time (exact).

    Returns the maximum of ``(1 − ε)(t − t_v) − L_v(t)`` and
    ``L_v(t) − (1 + ε)·t`` over the execution; a non-positive result means
    Condition (1) held throughout.  Both expressions are piecewise-linear,
    so evaluating at clock breakpoints (plus the horizon) is exact.
    """
    worst = float("-inf")
    for node, record in trace.logical.items():
        start = trace.start_times[node]
        points = record.breakpoints_in(0.0, trace.horizon)
        points.append(trace.horizon)
        for t in points:
            value = record.value(t)
            worst = max(worst, (1 - epsilon) * (t - start) - value)
            worst = max(worst, value - (1 + epsilon) * t)
    return worst


def check_rate_bounds(
    trace: ExecutionTrace, alpha: float, beta: Optional[float]
) -> float:
    """Worst rate-bound violation of Condition (2) (exact).

    Inspects the instantaneous logical rate just after every breakpoint.
    Returns ``max(α − rate, rate − β)`` over the run (non-positive = OK);
    pass ``beta=None`` to skip the upper bound (jump algorithms).
    """
    worst = float("-inf")
    for node, record in trace.logical.items():
        start = trace.start_times[node]
        points = [t for t in record.breakpoints_in(start, trace.horizon)]
        points.append(start)
        for t in points:
            if t >= trace.horizon:
                continue
            rate = record.rate_at(t)
            worst = max(worst, alpha - rate)
            if beta is not None:
                worst = max(worst, rate - beta)
    return worst


@dataclass
class LegalStateReport:
    """Outcome of a legal-state check (Definition 5.6)."""

    satisfied: bool
    worst_margin: float
    worst_time: float
    worst_pair: Optional[Tuple[NodeId, NodeId]]
    worst_level: Optional[int]
    times_checked: int


def check_legal_state(
    trace: ExecutionTrace,
    params: SyncParams,
    distances: Dict[NodeId, Dict[NodeId, int]],
    diameter: int,
    times: Optional[Sequence[float]] = None,
    samples: int = 50,
) -> LegalStateReport:
    """Check Definition 5.6 at the given (or sampled) times.

    For every level ``s ∈ {0, …, s_max}`` and every ordered pair at
    distance ``d ≥ C_s``, the skew must satisfy
    ``L_v(t) − L_w(t) ≤ d·(s + ½)·κ``.  Theorem 5.10's proof shows A^opt
    never leaves the legal state; this verifies it on the executed
    schedule.  Returns the worst margin ``skew − bound`` (negative = OK).
    """
    if times is None:
        step = trace.horizon / samples
        times = [i * step for i in range(1, samples + 1)]
    g = global_skew_bound(params, diameter)
    s_max = legal_state_levels(params, diameter)
    sigma = params.sigma
    # Threshold distances C_s for each level.
    thresholds = [(s, 2 * g / params.kappa * sigma ** (-s)) for s in range(s_max + 1)]
    nodes = list(trace.logical)
    worst = LegalStateReport(True, float("-inf"), 0.0, None, None, len(times))
    for t in times:
        values = {n: trace.logical[n].value(t) for n in nodes}
        for i, v in enumerate(nodes):
            for w in nodes[i + 1:]:
                d = distances[v][w]
                skew = abs(values[v] - values[w])
                for s, c_s in thresholds:
                    if d >= c_s:
                        margin = skew - d * (s + 0.5) * params.kappa
                        if margin > worst.worst_margin:
                            worst = LegalStateReport(
                                margin <= TOLERANCE, margin, t, (v, w), s, len(times)
                            )
    return worst


def gradient_curve(
    trace: ExecutionTrace,
    params: SyncParams,
    distances: Dict[NodeId, Dict[NodeId, int]],
    diameter: int,
) -> List[Tuple[int, float, float]]:
    """``(distance, measured worst skew, legal-state bound)`` triples.

    The measured column is the exact worst-case (over all time) skew
    between any pair at that distance; the bound column is
    :func:`repro.core.bounds.gradient_bound`.
    """
    measured = trace.max_skew_by_distance(distances)
    return [
        (d, measured[d], gradient_bound(params, diameter, d))
        for d in sorted(measured)
        if d >= 1
    ]


def estimate_accuracy_errors(
    trace: ExecutionTrace, params: SyncParams, samples_per_edge: int = 20
) -> List[float]:
    """Violation margins of the Lemma 5.4 estimate-accuracy bound.

    Lemma 5.4: for all times ``t`` after ``v`` first heard from ``w``,
    ``L_v^w(t) > L_w(t − T) − H̄0``.  The A^opt node records an
    ``estimate`` probe ``(w, raw value)`` whenever it adopts a fresh
    estimate (run with ``record_estimates=True``).  Between probes the
    estimate advances at ``h_v``; we reconstruct it and return
    ``(L_w(t − T) − H̄0) − L_v^w(t)`` sampled on each inter-probe interval
    (all values should be negative).
    """
    per_pair: Dict[Tuple[NodeId, NodeId], List[Tuple[float, float]]] = {}
    for probe in trace.probes_named("estimate"):
        sender, raw_value = probe.value
        per_pair.setdefault((probe.node, sender), []).append((probe.time, raw_value))
    margins: List[float] = []
    delay_bound = params.delay_bound
    h_bar = params.h_bar_0
    for (v, w), updates in per_pair.items():
        hw_v = trace.hardware[v]
        record_w = trace.logical[w]
        for index, (t_update, raw_value) in enumerate(updates):
            t_next = (
                updates[index + 1][0] if index + 1 < len(updates) else trace.horizon
            )
            if t_next <= t_update:
                continue
            step = (t_next - t_update) / samples_per_edge
            for i in range(samples_per_edge + 1):
                t = min(t_update + i * step, t_next)
                estimate = raw_value + hw_v.value(t) - hw_v.value(t_update)
                reference = record_w.value(max(t - delay_bound, 0.0)) - h_bar
                margins.append(reference - estimate)
    return margins


def summarize(
    trace: ExecutionTrace, params: SyncParams, diameter: int
) -> Dict[str, float]:
    """One-stop summary comparing an execution against the paper's bounds."""
    from repro.core.bounds import local_skew_bound  # local import avoids cycle

    global_extremum = trace.global_skew()
    local_extremum = trace.local_skew()
    return {
        "global_skew": global_extremum.value,
        "global_bound": global_skew_bound(params, diameter),
        "local_skew": local_extremum.value,
        "local_bound": local_skew_bound(params, diameter),
        "envelope_margin": check_envelope(trace, params.epsilon),
        "rate_margin": check_rate_bounds(trace, params.alpha, params.beta),
        "messages": float(trace.total_messages()),
        "events": float(trace.events_processed),
    }
