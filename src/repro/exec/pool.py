"""Sweep execution: one batch of specs in, one outcome per spec out.

:class:`SweepExecutor` runs a batch of :class:`~repro.exec.spec.ExecutionSpec`
objects and returns one :class:`SweepOutcome` per spec, in input order.
It owns everything around execution: the result cache, the campaign
manifest and the batch metrics.  Execution itself is the backend's job
(:mod:`repro.exec.backend`): serial in-process at ``workers=1``, a
crash-isolated process pool at ``workers=N`` / ``'auto'``, or a
lease-arbitrated work queue.  On every backend each spec runs through
:func:`~repro.exec.retry.run_with_retry`, so a Python exception, a
timeout or a dead worker process fails that spec alone, under one
:class:`~repro.exec.retry.RetryPolicy`.

Determinism: specs are independent and fully seeded, so scheduling order
cannot influence results — every backend returns byte-identical
summaries to the serial path, and the test suite enforces it.
"""

from __future__ import annotations

import os
import time
from contextlib import closing
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.errors import SimulationError
from repro.exec.backend import Backend, resolve_backend
from repro.exec.cache import ResultCache
from repro.exec.retry import RetryOutcome, RetryPolicy
from repro.exec.spec import ExecutionSpec
from repro.exec.summary import ExecutionSummary
from repro.obs.metrics import SweepMetrics

__all__ = ["SweepExecutor", "SweepOutcome", "resolve_workers"]

#: Least wall time between two mid-run saves of a campaign manifest.
MANIFEST_SAVE_SECONDS = 1.0


def resolve_workers(workers: Union[int, str, None]) -> int:
    """Normalize a ``--workers`` value: ``'auto'``/None → CPU count."""
    if workers is None or workers == "auto":
        return max(1, os.cpu_count() or 1)
    count = int(workers)
    if count < 1:
        raise SimulationError(f"workers must be >= 1 or 'auto', got {workers}")
    return count


@dataclass(frozen=True)
class SweepOutcome:
    """Result slot for one spec: a summary, or an error string.

    ``seconds`` is the worker-measured wall time of the execution itself
    (0.0 for cache hits and undispatchable specs) and ``attempts`` the
    number of execution attempts made (0 for cache hits) — observability
    data, deliberately excluded from the summary so results stay
    deterministic.
    """

    index: int
    spec: ExecutionSpec
    summary: Optional[ExecutionSummary]
    error: Optional[str] = None
    cached: bool = False
    seconds: float = 0.0
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None and self.summary is not None


class SweepExecutor:
    """Run spec batches serially or across a process pool; see module doc.

    Parameters
    ----------
    workers:
        ``1`` (serial, in-process), an integer ≥ 2, or ``'auto'`` for the
        CPU count.
    cache:
        Optional :class:`~repro.exec.cache.ResultCache`; hits skip
        execution entirely and successful runs are stored back.
    collect_metrics:
        Run every spec with engine metrics collection; summaries carry
        the deterministic counters (``summary.run_metrics``).  Metrics-on
        summaries are cached under a distinct key (digest + ``"-obs"``)
        so a metrics-off hit is never served where counters are expected.
    backend:
        How pending specs execute: a
        :class:`~repro.exec.backend.Backend` instance, a name
        (``'auto'``, ``'serial'``, ``'process-pool'``, ``'work-queue'``),
        or ``None`` for ``'auto'`` (serial at ``workers=1``, else the
        process pool).
    retry:
        Optional :class:`~repro.exec.retry.RetryPolicy` applied to every
        execution attempt on every backend: the attempt budget, the
        per-attempt timeout, and so when a spec is quarantined.
        ``None`` means one attempt with no deadline.

    After each :meth:`run`, :attr:`last_metrics` holds the batch's
    :class:`~repro.obs.metrics.SweepMetrics` — cache hit/miss/corrupt
    counts, per-spec wall time, utilization, attempt/retry/timeout and
    lease-reclaim counters, quarantine accounting.
    """

    def __init__(
        self,
        workers: Union[int, str] = 1,
        cache: Optional[ResultCache] = None,
        collect_metrics: bool = False,
        backend: Union[Backend, str, None] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        self.workers = resolve_workers(workers)
        self.cache = cache
        self.collect_metrics = collect_metrics
        self.backend = resolve_backend(backend)
        self.retry = retry
        self.last_metrics: Optional[SweepMetrics] = None

    # -- public API ------------------------------------------------------------

    def _cache_key(self, spec: ExecutionSpec) -> str:
        """Digest-derived cache key; metrics-on results key separately."""
        return spec.digest() + ("-obs" if self.collect_metrics else "")

    def run(
        self,
        specs: Sequence[ExecutionSpec],
        manifest=None,
    ) -> List[SweepOutcome]:
        """Run every spec; outcomes are returned in input order.

        Batch accounting lands on :attr:`last_metrics`.  When a
        :class:`~repro.exec.manifest.CampaignManifest` is passed, every
        spec's progress is recorded in it: cache hits and successes
        become ``done``, failures become ``quarantined``, and specs
        already ``quarantined`` in the manifest are *not* re-run — they
        report their quarantine as the error.  A manifest with a path is
        saved at most every :data:`MANIFEST_SAVE_SECONDS` while outcomes
        arrive, and on every way out, an interrupt included.  Specs the
        backend could not finish (an interrupted work-queue campaign) are
        omitted from the returned list and stay ``pending`` in the
        manifest for ``--resume``.
        """
        started = time.perf_counter()
        specs = list(specs)
        metrics = SweepMetrics(total_specs=len(specs), workers=self.workers)
        self.last_metrics = metrics
        cache = self.cache
        before = (
            (cache.hits, cache.misses, cache.corrupt)
            if cache is not None
            else (0, 0, 0)
        )
        saving = manifest is not None and manifest.path is not None
        outcomes: List[Optional[SweepOutcome]] = [None] * len(specs)
        jobs = []
        try:
            for index, spec in enumerate(specs):
                key = self._cache_key(spec)
                hit = cache.get(key) if cache is not None else None
                if hit is not None:
                    outcomes[index] = SweepOutcome(index, spec, hit, cached=True)
                    if manifest is not None:
                        manifest.mark(
                            spec.digest(), "done", label=spec.label
                        )
                    continue
                if (
                    manifest is not None
                    and manifest.state(spec.digest()) == "quarantined"
                ):
                    attempts = manifest.attempts(spec.digest())
                    outcomes[index] = SweepOutcome(
                        index,
                        spec,
                        None,
                        error=(
                            "quarantined by campaign manifest "
                            f"(after {attempts} attempts)"
                        ),
                        attempts=attempts,
                    )
                    continue
                jobs.append((index, key, spec))
            if cache is not None:
                metrics.cache_hits = cache.hits - before[0]
                metrics.cache_misses = cache.misses - before[1]
                metrics.cache_corrupt = cache.corrupt - before[2]
            if jobs:
                next_save = time.monotonic() + MANIFEST_SAVE_SECONDS
                finished = self.backend.run(
                    jobs, self.workers, self.retry, self.collect_metrics,
                    metrics,
                )
                with closing(finished):
                    for index, outcome in finished:
                        self._finish(
                            outcomes, index, specs[index], outcome, manifest
                        )
                        if saving and time.monotonic() >= next_save:
                            manifest.save()
                            next_save = time.monotonic() + MANIFEST_SAVE_SECONDS
            results = [outcome for outcome in outcomes if outcome is not None]
            metrics.failed = sum(not outcome.ok for outcome in results)
            metrics.unfinished = len(specs) - len(results)
            metrics.wall_seconds = time.perf_counter() - started
            return results
        finally:
            # Saved on every way out, an interrupt included, so the specs
            # that finished before it keep their done/quarantined records.
            if saving:
                manifest.save()

    def run_summaries(
        self,
        specs: Sequence[ExecutionSpec],
        manifest=None,
    ) -> List[ExecutionSummary]:
        """Like :meth:`run`, but raise on the first failed spec."""
        outcomes = self.run(specs, manifest=manifest)
        if len(outcomes) != len(specs):
            raise SimulationError(
                f"campaign incomplete: {len(specs) - len(outcomes)} of "
                f"{len(specs)} specs unfinished (resume via the campaign "
                "manifest)"
            )
        for outcome in outcomes:
            if not outcome.ok:
                raise SimulationError(
                    f"sweep spec {outcome.index} "
                    f"({outcome.spec.label or outcome.spec.digest()[:12]}) "
                    f"failed: {outcome.error}"
                )
        return [outcome.summary for outcome in outcomes]

    def _finish(
        self,
        outcomes: List[Optional[SweepOutcome]],
        index: int,
        spec: ExecutionSpec,
        outcome: RetryOutcome,
        manifest,
    ) -> None:
        """Record one executed spec: outcome slot, metrics, cache, manifest."""
        result = SweepOutcome(
            index, spec, outcome.result, outcome.error,
            seconds=outcome.seconds, attempts=outcome.attempts,
        )
        outcomes[index] = result
        metrics = self.last_metrics
        metrics.executed += 1
        metrics.per_spec_seconds[index] = outcome.seconds
        metrics.attempts += outcome.attempts
        metrics.retries += max(0, outcome.attempts - 1)
        metrics.timeouts += outcome.timeouts
        if result.ok and self.cache is not None:
            self.cache.put(self._cache_key(spec), outcome.result)
        if manifest is not None:
            manifest.mark(
                spec.digest(), "done" if result.ok else "quarantined",
                attempts=outcome.attempts, label=spec.label,
            )
