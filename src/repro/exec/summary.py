"""Picklable per-execution summaries and reductions to analysis shapes.

Workers cannot ship live :class:`~repro.sim.trace.ExecutionTrace` objects
back across the process boundary cheaply (a trace holds every clock
breakpoint), so each worker reduces its trace to an
:class:`ExecutionSummary` — the exact skew extrema, message/bit counters,
and monitor verdicts — and the parent process folds summaries into the
existing analysis shapes (:class:`~repro.analysis.experiments.SuiteResult`,
:class:`~repro.analysis.montecarlo.SkewSample`).

All skew values are the engine's *exact* piecewise-linear extrema, so a
summary computed in a worker is bit-identical to one computed in-process
for the same spec — the property the equivalence test suite pins down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.obs.metrics import RunMetrics
from repro.sim.trace import ExecutionTrace

__all__ = [
    "ExecutionSummary",
    "summarize_trace",
    "summarize_streaming",
    "to_suite_result",
    "to_skew_samples",
]

NodeId = Hashable


@dataclass(frozen=True)
class ExecutionSummary:
    """Everything a sweep needs from one finished execution, picklable."""

    label: str
    spec_digest: str
    global_skew: float
    global_skew_time: float
    global_skew_pair: Tuple[NodeId, NodeId]
    local_skew: float
    local_skew_time: float
    local_skew_pair: Tuple[Optional[NodeId], Optional[NodeId]]
    final_spread: float
    total_messages: int
    total_bits: int
    events_processed: int
    messages_dropped: int
    monitor_violations: Tuple[str, ...] = ()
    messages_lost_link: int = 0
    messages_lost_crash: int = 0
    messages_duplicated: int = 0
    #: Deterministic engine counters, present when the execution ran with
    #: ``collect_metrics=True``.  Wall-clock phase timings are *stripped*
    #: before attachment (:meth:`RunMetrics.stripped`) so summaries stay
    #: byte-identical across processes, worker counts, and machines.
    run_metrics: Optional[RunMetrics] = None

    @property
    def clean(self) -> bool:
        """True when no invariant monitor recorded a violation."""
        return not self.monitor_violations


def summarize_trace(
    trace: ExecutionTrace,
    digest: str = "",
    label: str = "",
    monitors: Sequence = (),
) -> ExecutionSummary:
    """Reduce a trace (plus any non-strict monitors) to a summary.

    When the trace carries :class:`RunMetrics`, the exact-extremum
    evaluation below is timed into its ``skew-eval`` phase (usually the
    hot phase for dense traces) and the *stripped* metrics — counters
    only, no wall-clock timings — are attached to the summary.
    """
    metrics = trace.metrics
    skew_started = time.perf_counter() if metrics is not None else 0.0
    global_extremum = trace.global_skew()
    local_extremum = trace.local_skew()
    if metrics is not None:
        metrics.phase_seconds["skew-eval"] = (
            metrics.phase_seconds.get("skew-eval", 0.0)
            + time.perf_counter()
            - skew_started
        )
    return _build_summary(
        trace, global_extremum, local_extremum, trace.spread_at(trace.horizon),
        trace.total_messages(), trace.total_bits(), digest, label, monitors,
    )


def summarize_streaming(
    result,
    digest: str = "",
    label: str = "",
    monitors: Sequence = (),
) -> ExecutionSummary:
    """Reduce a :class:`~repro.sim.engine.StreamingResult` to a summary.

    The streaming engine has already folded the exact skew extrema
    (bit-identical to trace evaluation; the engine-parity suite pins
    this), so no skew-eval phase runs here — that is the point of the
    streaming mode.
    """
    return _build_summary(
        result, result.global_skew, result.local_skew, result.final_spread,
        result.total_messages, result.total_bits, digest, label, monitors,
    )


def _build_summary(
    run, global_extremum, local_extremum, final_spread,
    total_messages: int, total_bits: int, digest: str, label: str,
    monitors: Sequence,
) -> ExecutionSummary:
    """The one summary builder: ``run`` is a trace or a streaming result,
    read only for the counters both carry under the same names."""
    violations = tuple(
        f"{v.monitor}@{v.node!r}/t={v.time}: {v.detail}"
        for monitor in monitors
        for v in getattr(monitor, "violations", ())
    )
    metrics = run.metrics
    return ExecutionSummary(
        label=label,
        spec_digest=digest,
        global_skew=global_extremum.value,
        global_skew_time=global_extremum.time,
        global_skew_pair=(global_extremum.node_a, global_extremum.node_b),
        local_skew=local_extremum.value,
        local_skew_time=local_extremum.time,
        local_skew_pair=(local_extremum.node_a, local_extremum.node_b),
        final_spread=final_spread,
        total_messages=total_messages,
        total_bits=total_bits,
        events_processed=run.events_processed,
        messages_dropped=run.messages_dropped,
        monitor_violations=violations,
        messages_lost_link=run.messages_lost_link,
        messages_lost_crash=run.messages_lost_crash,
        messages_duplicated=run.messages_duplicated,
        run_metrics=metrics.stripped() if metrics is not None else None,
    )


def to_suite_result(
    summaries: Sequence[ExecutionSummary],
    traces: Optional[Dict[str, ExecutionTrace]] = None,
):
    """Fold per-case summaries into an experiments ``SuiteResult``.

    Worst-case selection iterates in the given (case) order with strict
    ``>`` comparison — byte-identical to the historical serial loop.
    """
    from repro.analysis.experiments import SuiteResult

    per_case: Dict[str, Dict[str, float]] = {}
    worst_global, worst_local = -1.0, -1.0
    worst_global_case = worst_local_case = ""
    for summary in summaries:
        per_case[summary.label] = {
            "global_skew": summary.global_skew,
            "local_skew": summary.local_skew,
            "messages": float(summary.total_messages),
        }
        if summary.global_skew > worst_global:
            worst_global, worst_global_case = summary.global_skew, summary.label
        if summary.local_skew > worst_local:
            worst_local, worst_local_case = summary.local_skew, summary.label
    return SuiteResult(
        worst_global=worst_global,
        worst_global_case=worst_global_case,
        worst_local=worst_local,
        worst_local_case=worst_local_case,
        per_case=per_case,
        traces=traces if traces is not None else {},
    )


def to_skew_samples(
    summaries: Sequence[ExecutionSummary], seeds: Sequence[int]
) -> List:
    """Fold per-seed summaries into Monte-Carlo ``SkewSample`` objects."""
    from repro.analysis.montecarlo import SkewSample

    return [
        SkewSample(
            seed=seed,
            global_skew=summary.global_skew,
            local_skew=summary.local_skew,
            final_spread=summary.final_spread,
            messages=summary.total_messages,
        )
        for seed, summary in zip(seeds, summaries)
    ]
