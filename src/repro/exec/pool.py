"""Process-pool sweep execution with crash isolation and a serial twin.

:class:`SweepExecutor` runs a batch of :class:`~repro.exec.spec.ExecutionSpec`
objects and returns one :class:`SweepOutcome` per spec, in input order.

Execution paths
---------------
``workers=1``
    Everything runs in the calling process — no pickling, breakpoints and
    debuggers work, and any exception is captured per spec.  This is the
    reference path the equivalence tests compare the pool against.
``workers=N`` / ``workers='auto'``
    A :class:`concurrent.futures.ProcessPoolExecutor` dispatches specs in
    chunks (``chunk_size`` specs per task, default 1).  Failure handling
    is layered:

    * a Python exception inside a worker is caught *in* the worker and
      returned as that spec's failure — the sweep continues;
    * a worker process dying outright (segfault, ``os._exit``) breaks the
      pool; the executor rebuilds it and quarantines the chunks that were
      in flight — each suspect is retried alone in a single-worker pool,
      so a second crash implicates exactly one chunk.  A chunk is marked
      failed once it has been involved in more than ``max_crash_retries``
      breakages; innocent chunks caught in a shared breakage succeed on
      their isolated retry and one poisonous spec cannot take down the
      sweep;
    * a chunk exceeding its ``timeout`` budget (``timeout`` seconds per
      spec) is marked failed and its worker terminated best-effort.

Determinism: specs are independent and fully seeded, so scheduling order
cannot influence results — the parallel path returns byte-identical
summaries to the serial path, and the test suite enforces it.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import SimulationError
from repro.exec.backend import Backend, resolve_backend
from repro.exec.cache import ResultCache
from repro.exec.retry import RetryPolicy, run_with_retry
from repro.exec.spec import ExecutionSpec
from repro.exec.summary import ExecutionSummary
from repro.obs.metrics import SweepMetrics

__all__ = ["SweepExecutor", "SweepOutcome", "resolve_workers"]


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


def _format_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_spec_guarded(
    spec: ExecutionSpec,
    collect_metrics: bool = False,
    retry: Optional[RetryPolicy] = None,
) -> Tuple[Optional[ExecutionSummary], Optional[str], float, int, int]:
    """Run one spec under the retry policy, trapping Python-level failures.

    Shared by the serial path and the pool workers.  Returns
    ``(summary, error, seconds, attempts, timeouts)``; with ``retry=None``
    this is exactly the historical single-attempt behavior.
    """
    outcome = run_with_retry(spec, policy=retry, collect_metrics=collect_metrics)
    return (
        outcome.result,
        outcome.error,
        outcome.seconds,
        outcome.attempts,
        outcome.timeouts,
    )


def _run_chunk(
    specs: Sequence[ExecutionSpec],
    collect_metrics: bool = False,
    retry: Optional[RetryPolicy] = None,
) -> List[Tuple[Optional[ExecutionSummary], Optional[str], float, int, int]]:
    """Worker entry point: run a chunk of specs, never raising."""
    return [_run_spec_guarded(spec, collect_metrics, retry) for spec in specs]


class SweepExecutor:
    """Run spec batches serially or across a process pool; see module doc.

    Parameters
    ----------
    workers:
        ``1`` (serial, in-process), an integer ≥ 2, or ``'auto'`` for the
        CPU count.
    timeout:
        Optional per-spec wall-clock budget in seconds (parallel path
        only; the serial path runs to completion for debuggability).
    cache:
        Optional :class:`~repro.exec.cache.ResultCache`; hits skip
        execution entirely and successful runs are stored back.
    chunk_size:
        Specs per worker task.  Larger chunks amortize IPC for many tiny
        specs at the cost of coarser crash/timeout isolation.
    max_crash_retries:
        How many pool breakages a chunk may be involved in before it is
        marked failed.
    mp_context:
        Optional :mod:`multiprocessing` context (e.g. ``'spawn'``) for
        the pool; default is the platform default.
    collect_metrics:
        Run every spec with engine metrics collection; summaries carry
        the deterministic counters (``summary.run_metrics``).  Metrics-on
        summaries are cached under a distinct key (digest + ``"-obs"``)
        so a metrics-off hit is never served where counters are expected.
    backend:
        How pending specs execute: a
        :class:`~repro.exec.backend.Backend` instance, a name
        (``'auto'``, ``'serial'``, ``'process-pool'``, ``'work-queue'``),
        or ``None`` for the historical auto behavior (serial at
        ``workers=1``, else the process pool).
    retry:
        Optional :class:`~repro.exec.retry.RetryPolicy` applied to every
        execution attempt on every backend; ``None`` keeps the
        historical single-attempt, no-deadline behavior.

    After each :meth:`run`, :attr:`last_metrics` holds the batch's
    :class:`~repro.obs.metrics.SweepMetrics` — cache hit/miss/corrupt
    counts, per-spec wall time, utilization, attempt/retry/timeout and
    lease-reclaim counters, quarantine accounting.
    """

    def __init__(
        self,
        workers: Union[int, str] = 1,
        timeout: Optional[float] = None,
        cache: Optional[ResultCache] = None,
        chunk_size: int = 1,
        max_crash_retries: int = 2,
        mp_context=None,
        collect_metrics: bool = False,
        backend: Union[Backend, str, None] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        self.workers = resolve_workers(workers)
        if timeout is not None and timeout <= 0:
            raise SimulationError(f"timeout must be positive, got {timeout}")
        if chunk_size < 1:
            raise SimulationError(f"chunk_size must be >= 1, got {chunk_size}")
        self.timeout = timeout
        self.cache = cache
        self.chunk_size = chunk_size
        self.max_crash_retries = max_crash_retries
        self.mp_context = mp_context
        self.collect_metrics = collect_metrics
        self.backend = resolve_backend(backend) if not isinstance(
            backend, Backend
        ) else backend
        self.retry = retry
        self.last_metrics: Optional[SweepMetrics] = None
        self._manifest = None

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
        spec's progress is mirrored into it (and saved on the way out,
        an interrupt included, if it has a path): cache hits and
        successes become ``done``, failures become ``quarantined``, and
        specs already ``quarantined`` in the manifest are *not* re-run —
        they report their quarantine as the error.  Specs the backend
        could not finish (an interrupted work-queue campaign) are omitted
        from the returned list and stay ``pending``/``leased`` in the
        manifest for ``--resume``.
        """
        started = time.perf_counter()
        specs = list(specs)
        metrics = SweepMetrics(total_specs=len(specs), workers=self.workers)
        self.last_metrics = metrics
        self._manifest = manifest
        cache = self.cache
        before = (
            (cache.hits, cache.misses, cache.corrupt)
            if cache is not None
            else (0, 0, 0)
        )
        outcomes: List[Optional[SweepOutcome]] = [None] * len(specs)
        pending: List[int] = []
        try:
            for index, spec in enumerate(specs):
                hit = (
                    cache.get(self._cache_key(spec))
                    if cache is not None
                    else None
                )
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
                pending.append(index)
            if cache is not None:
                metrics.cache_hits = cache.hits - before[0]
                metrics.cache_misses = cache.misses - before[1]
                metrics.cache_corrupt = cache.corrupt - before[2]
            if pending:
                self.backend.execute(self, specs, pending, outcomes)
            dispatched = set(pending)
            results = [outcome for outcome in outcomes if outcome is not None]
            for outcome in results:
                # Manifest-quarantined specs are reported without being
                # dispatched; only dispatched specs count as executed.
                if not outcome.cached and outcome.index in dispatched:
                    metrics.executed += 1
                    metrics.per_spec_seconds[outcome.index] = outcome.seconds
                if not outcome.ok:
                    metrics.failed += 1
            metrics.unfinished = len(specs) - len(results)
            metrics.wall_seconds = time.perf_counter() - started
            return results
        finally:
            # Saved on every way out, an interrupt included, so the specs
            # that finished before it keep their done/quarantined records.
            self._manifest = None
            if manifest is not None and manifest.path is not None:
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

    # -- serial path -----------------------------------------------------------

    def _finish(
        self,
        outcomes: List[Optional[SweepOutcome]],
        index: int,
        spec: ExecutionSpec,
        summary: Optional[ExecutionSummary],
        error: Optional[str],
        seconds: float = 0.0,
        attempts: int = 1,
        timeouts: int = 0,
    ) -> None:
        outcomes[index] = SweepOutcome(
            index, spec, summary, error, seconds=seconds, attempts=attempts
        )
        metrics = self.last_metrics
        if metrics is not None:
            metrics.attempts += attempts
            metrics.retries += max(0, attempts - 1)
            metrics.timeouts += timeouts
        if error is None and summary is not None and self.cache is not None:
            self.cache.put(self._cache_key(spec), summary)
        if self._manifest is not None:
            state = "done" if error is None and summary is not None else "quarantined"
            self._manifest.mark(
                spec.digest(), state, attempts=attempts, label=spec.label
            )

    def _run_serial(
        self,
        specs: Sequence[ExecutionSpec],
        pending: Sequence[int],
        outcomes: List[Optional[SweepOutcome]],
    ) -> None:
        for index in pending:
            summary, error, seconds, attempts, timeouts = _run_spec_guarded(
                specs[index], self.collect_metrics, self.retry
            )
            self._finish(
                outcomes, index, specs[index], summary, error, seconds,
                attempts=attempts, timeouts=timeouts,
            )

    # -- parallel path ---------------------------------------------------------

    def _run_parallel(
        self,
        specs: Sequence[ExecutionSpec],
        pending: Sequence[int],
        outcomes: List[Optional[SweepOutcome]],
    ) -> None:
        metrics = self.last_metrics
        dispatchable: List[int] = []
        for index in pending:
            try:
                pickle.dumps(specs[index], protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:  # noqa: BLE001 — report, don't abort
                self._finish(
                    outcomes, index, specs[index], None,
                    f"spec not picklable for worker dispatch ({_format_error(exc)})",
                    attempts=0,
                )
                if metrics is not None:
                    metrics.note("unpicklable")
                continue
            dispatchable.append(index)

        chunks: Dict[int, List[int]] = {
            cid: list(dispatchable[start:start + self.chunk_size])
            for cid, start in enumerate(range(0, len(dispatchable), self.chunk_size))
        }
        attempts: Dict[int, int] = {cid: 0 for cid in chunks}

        def crashed(cid: int) -> None:
            attempts[cid] += 1
            if metrics is not None:
                metrics.note("pool-breakage")
            if attempts[cid] > self.max_crash_retries:
                for i in chunks[cid]:
                    self._finish(
                        outcomes, i, specs[i], None,
                        f"worker process crashed (after {attempts[cid]} attempts)",
                        attempts=attempts[cid],
                    )
                if metrics is not None:
                    metrics.note("crash-failed", len(chunks[cid]))
                del chunks[cid]

        while chunks:
            # Quarantine: a chunk implicated in a breakage is retried alone
            # in a single-worker pool so a repeat crash implicates exactly
            # that chunk — innocent chunks swept up in a shared breakage
            # clear their name on the isolated retry.
            suspects = [cid for cid in chunks if attempts[cid] > 0]
            batch = suspects[:1] if suspects else list(chunks)
            if suspects and metrics is not None:
                metrics.note("isolated-retry")
            pool = ProcessPoolExecutor(
                max_workers=min(self.workers, len(batch)),
                mp_context=self.mp_context,
            )
            rebuild = False
            try:
                futures = {}
                try:
                    for cid in batch:
                        futures[cid] = pool.submit(
                            _run_chunk,
                            [specs[i] for i in chunks[cid]],
                            self.collect_metrics,
                            self.retry,
                        )
                except (BrokenProcessPool, RuntimeError):
                    # Pool died during submission: count a breakage against
                    # every chunk in this round and rebuild.
                    rebuild = True
                    for cid in batch:
                        if cid in chunks:
                            crashed(cid)
                    continue
                for cid, future in futures.items():
                    members = chunks.get(cid)
                    if members is None:
                        continue
                    budget = (
                        None if self.timeout is None
                        else self.timeout * len(members)
                    )
                    try:
                        results = future.result(timeout=budget)
                    except FuturesTimeoutError:
                        for i in members:
                            self._finish(
                                outcomes, i, specs[i], None,
                                f"timed out after {budget:.3g}s "
                                f"({self.timeout:.3g}s/spec)",
                                timeouts=1,
                            )
                        if metrics is not None:
                            metrics.note("timeout", len(members))
                        del chunks[cid]
                        self._terminate_pool(pool)
                        rebuild = True
                        break
                    except BrokenProcessPool:
                        crashed(cid)
                        rebuild = True
                        continue  # drain remaining broken futures
                    except CancelledError:
                        continue  # stays pending; retried next round
                    except Exception as exc:  # noqa: BLE001 — dispatch failure
                        for i in members:
                            self._finish(outcomes, i, specs[i], None, _format_error(exc))
                        del chunks[cid]
                        continue
                    for i, (summary, error, seconds, tries, timeouts) in zip(
                        members, results
                    ):
                        self._finish(
                            outcomes, i, specs[i], summary, error, seconds,
                            attempts=tries, timeouts=timeouts,
                        )
                    del chunks[cid]
            except BaseException:
                # KeyboardInterrupt (or any non-Exception) while futures
                # are in flight: a graceful shutdown would block waiting
                # on running workers — hard-terminate instead so no child
                # processes outlive the sweep.
                rebuild = True
                raise
            finally:
                if rebuild:
                    self._terminate_pool(pool)
                else:
                    pool.shutdown(wait=True)

    @staticmethod
    def _terminate_pool(pool: ProcessPoolExecutor) -> None:
        """Best-effort hard stop of a pool with stuck or dead workers."""
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except TypeError:  # pragma: no cover - cancel_futures is 3.9+
            pool.shutdown(wait=False)
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # noqa: BLE001 - already dead
                pass
