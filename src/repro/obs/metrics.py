"""Run- and sweep-level metric containers.

Two picklable value objects carry everything the observability layer
measures:

* :class:`RunMetrics` — one engine execution: events by type, alarm
  lifecycle counters, queue-depth high-water mark, per-node checkpoint
  and breakpoint counts, and wall-time per phase.  Collection is opt-in
  (``collect_metrics=True``) and strictly off the hot path: a disabled
  engine performs one ``is None`` check per event and nothing else.
* :class:`SweepMetrics` — one :class:`~repro.exec.pool.SweepExecutor`
  batch: cache hit/miss/corrupt counts, per-spec wall time, worker
  utilization, attempt/retry/timeout and lease-reclaim counters, and
  quarantine accounting.

Determinism contract
--------------------
Every *counter* in :class:`RunMetrics` is a pure function of the
execution spec, so two runs of the same spec — in any process, at any
worker count — produce identical counters.  Wall-clock *timings* are
not deterministic, so :meth:`RunMetrics.stripped` drops them before a
``RunMetrics`` enters an :class:`~repro.exec.summary.ExecutionSummary`:
summaries stay byte-identical across worker counts and cache replays
(the equivalence suite enforces this), while full timings remain
available in-process via ``ExecutionTrace.metrics`` for profiling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List

__all__ = ["RunMetrics", "SweepMetrics"]

NodeId = Hashable


@dataclass
class RunMetrics:
    """Engine-level counters and timers for one execution.

    All integer counters are deterministic per spec; ``phase_seconds``
    is wall-clock and excluded from summaries (see module docstring).
    """

    #: Processed events by kind (``wake``/``delivery``/``alarm``/
    #: ``crash``/``recover``), in first-occurrence order.
    events_by_type: Dict[str, int] = field(default_factory=dict)
    #: Alarms armed via ``set_alarm``.
    alarms_set: int = 0
    #: Alarms whose callback actually ran.
    alarms_fired: int = 0
    #: Alarm queue entries dropped because re-arming superseded them.
    alarms_superseded: int = 0
    #: Alarms re-queued to a recovery instant because the node was down.
    alarms_deferred: int = 0
    #: Wake events re-queued to a recovery instant.
    wakes_deferred: int = 0
    #: Messages handed to the delay model (before any drop decision).
    sends: int = 0
    #: Maximum event-queue length observed during the run.
    queue_depth_hwm: int = 0
    #: Per-node logical-clock checkpoint counts (rate changes + jumps).
    checkpoints_by_node: Dict[NodeId, int] = field(default_factory=dict)
    #: Per-node linearity breakpoint counts over the full horizon
    #: (checkpoints plus hardware rate changes; what skew evaluation
    #: iterates over).
    breakpoints_by_node: Dict[NodeId, int] = field(default_factory=dict)
    #: Wall seconds per phase (``setup``/``run``/``trace``/``skew-eval``).
    #: Nondeterministic; never stored in summaries.
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    # -- derived ------------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Total processed events (sum over :attr:`events_by_type`)."""
        return sum(self.events_by_type.values())

    @property
    def total_checkpoints(self) -> int:
        return sum(self.checkpoints_by_node.values())

    @property
    def total_breakpoints(self) -> int:
        return sum(self.breakpoints_by_node.values())

    def stripped(self) -> "RunMetrics":
        """A deep copy with wall-clock timings removed.

        This is the form embedded in :class:`~repro.exec.summary.ExecutionSummary`:
        deterministic counters only, so summaries remain byte-identical
        across worker counts and cache replays.
        """
        return RunMetrics(
            events_by_type=dict(self.events_by_type),
            alarms_set=self.alarms_set,
            alarms_fired=self.alarms_fired,
            alarms_superseded=self.alarms_superseded,
            alarms_deferred=self.alarms_deferred,
            wakes_deferred=self.wakes_deferred,
            sends=self.sends,
            queue_depth_hwm=self.queue_depth_hwm,
            checkpoints_by_node=dict(self.checkpoints_by_node),
            breakpoints_by_node=dict(self.breakpoints_by_node),
            phase_seconds={},
        )

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-friendly flat mapping (node keys stringified)."""
        return {
            "events_by_type": dict(self.events_by_type),
            "events_processed": self.events_processed,
            "alarms_set": self.alarms_set,
            "alarms_fired": self.alarms_fired,
            "alarms_superseded": self.alarms_superseded,
            "alarms_deferred": self.alarms_deferred,
            "wakes_deferred": self.wakes_deferred,
            "sends": self.sends,
            "queue_depth_hwm": self.queue_depth_hwm,
            "total_checkpoints": self.total_checkpoints,
            "total_breakpoints": self.total_breakpoints,
            "phase_seconds": dict(self.phase_seconds),
        }

    def counter_rows(self) -> List[List[Any]]:
        """``[name, value]`` rows for plain-text tables."""
        d = self.as_dict()
        rows = [[f"events[{k}]", v] for k, v in d["events_by_type"].items()]
        rows += [
            [key, d[key]]
            for key in (
                "events_processed", "sends", "queue_depth_hwm",
                "alarms_set", "alarms_fired", "alarms_superseded",
                "alarms_deferred", "wakes_deferred",
                "total_checkpoints", "total_breakpoints",
            )
        ]
        return rows


@dataclass
class SweepMetrics:
    """Executor-level accounting for one :meth:`SweepExecutor.run` batch."""

    total_specs: int = 0
    workers: int = 1
    #: Summaries served from the on-disk cache.
    cache_hits: int = 0
    #: Digests with no cache entry.
    cache_misses: int = 0
    #: Cache entries present but unreadable / version- or digest-mismatched.
    cache_corrupt: int = 0
    #: Specs actually executed (cache misses that ran to an outcome).
    executed: int = 0
    #: Outcomes that ended in an error.
    failed: int = 0
    #: Wall seconds for the whole batch, parent-process perspective.
    wall_seconds: float = 0.0
    #: Worker-measured wall seconds per outcome index (executed specs only).
    per_spec_seconds: Dict[int, float] = field(default_factory=dict)
    #: Process-pool crash accounting: reason → count (``pool-breakage``
    #: per broken pool, ``isolated-retry`` per spec re-run alone,
    #: ``crash-failed`` per spec that failed after a worker crash).
    quarantine: Dict[str, int] = field(default_factory=dict)
    #: Total execution attempts across all specs (a clean batch with no
    #: retry policy shows one per executed spec).
    attempts: int = 0
    #: Attempts beyond each spec's first (``attempts - specs`` retried).
    retries: int = 0
    #: Attempts killed by the retry policy's per-attempt wall-clock
    #: budget.
    timeouts: int = 0
    #: Stale work-queue leases reclaimed from dead workers.
    lease_reclaims: int = 0
    #: Specs the backend could not finish this run (interrupted
    #: work-queue campaigns; resumable via the manifest).
    unfinished: int = 0

    # -- derived ------------------------------------------------------------

    @property
    def busy_seconds(self) -> float:
        """Total worker-side execution time (sum of per-spec wall times)."""
        return sum(self.per_spec_seconds.values())

    def hit_rate(self) -> float:
        """Cache hits over all lookups (0.0 when the cache was off/unused)."""
        lookups = self.cache_hits + self.cache_misses + self.cache_corrupt
        return self.cache_hits / lookups if lookups else 0.0

    def utilization(self) -> float:
        """Worker busy time over available pool time (serial runs → ~1)."""
        available = self.wall_seconds * max(self.workers, 1)
        return self.busy_seconds / available if available > 0 else 0.0

    def note(self, reason: str, count: int = 1) -> None:
        """Increment a quarantine counter."""
        self.quarantine[reason] = self.quarantine.get(reason, 0) + count

    def as_dict(self) -> Dict[str, Any]:
        return {
            "total_specs": self.total_specs,
            "workers": self.workers,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_corrupt": self.cache_corrupt,
            "hit_rate": self.hit_rate(),
            "executed": self.executed,
            "failed": self.failed,
            "attempts": self.attempts,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "lease_reclaims": self.lease_reclaims,
            "unfinished": self.unfinished,
            "wall_seconds": self.wall_seconds,
            "busy_seconds": self.busy_seconds,
            "utilization": self.utilization(),
            "per_spec_seconds": {
                str(index): seconds
                for index, seconds in self.per_spec_seconds.items()
            },
            "quarantine": dict(self.quarantine),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def summary_rows(self) -> List[List[Any]]:
        """``[metric, value]`` rows for plain-text tables."""
        return [
            ["specs", self.total_specs],
            ["workers", self.workers],
            ["cache hits", self.cache_hits],
            ["cache misses", self.cache_misses],
            ["cache corrupt", self.cache_corrupt],
            ["cache hit-rate", f"{self.hit_rate():.1%}"],
            ["executed", self.executed],
            ["failed", self.failed],
            ["attempts", self.attempts],
            ["retries", self.retries],
            ["timeouts", self.timeouts],
            ["lease reclaims", self.lease_reclaims],
            ["unfinished", self.unfinished],
            ["wall s", f"{self.wall_seconds:.3f}"],
            ["worker busy s", f"{self.busy_seconds:.3f}"],
            ["utilization", f"{self.utilization():.1%}"],
        ] + [
            [f"quarantine[{reason}]", count]
            for reason, count in sorted(self.quarantine.items())
        ]
