"""Campaign execution backends: serial, process-pool, and work-queue.

:class:`~repro.exec.pool.SweepExecutor` decides *what* to run and
records what came back (cache, manifest, metrics); a :class:`Backend`
only moves the pending specs to processes and yields each one's
:class:`~repro.exec.retry.RetryOutcome`.  Attempts, timeouts and
quarantine are decided in one place on every backend:
:func:`~repro.exec.retry.run_with_retry`.

:class:`SerialBackend`
    Everything in the calling process — the debuggable reference path.
:class:`ProcessPoolBackend`
    Serial at ``workers=1``, otherwise a crash-isolated
    :class:`~concurrent.futures.ProcessPoolExecutor`.  This is the
    default (``backend='auto'``).
:class:`WorkQueueBackend`
    A file-based work queue whose unit of work is a spec digest.
    Workers — processes spawned here, or independent drainers on other
    hosts sharing the filesystem — claim work via atomic lease files and
    drain one queue idempotently.  Combined with the digest-keyed result
    store, a campaign survives SIGKILLed workers, and an interrupted
    campaign resumes from its :class:`~repro.exec.manifest.CampaignManifest`.

Lease protocol
--------------
A worker claims ``<key>`` by creating ``leases/<key>.lease`` with
``O_CREAT | O_EXCL`` — the filesystem arbitrates exactly one winner.
While working it heartbeats the lease (``os.utime`` every ``ttl/4``)
from a daemon thread.  A lease whose mtime lags the *filesystem clock*
(:func:`filesystem_now` — the mtime of a freshly written probe file, the
one clock all hosts sharing the filesystem agree on) by more than the
TTL is stale: any worker may reclaim it by atomically renaming it to a
tombstone under ``reclaimed/`` and claiming afresh.  Because results are
content-addressed and execution is deterministic, the rare double
execution after a reclaim race is harmless — both workers write the
same bytes.

Attempt accounting survives worker death: ``attempts/<key>`` is written
*before* each attempt (via :func:`~repro.exec.retry.run_with_retry`'s
``on_attempt`` hook), so a claimer that inherits a half-poisoned spec
resumes the retry budget rather than restarting it, and a spec that
keeps killing its workers escalates to quarantine after
``max_retries + 1`` total attempts across all incarnations.

Everything here is R002-clean: durations use ``time.monotonic`` /
``time.sleep``; lease staleness uses the filesystem clock, never
``time.time``.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import signal
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import closing
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.exec.cache import CorruptEntry, load_pickle
from repro.exec.retry import RetryOutcome, RetryPolicy, format_error, run_with_retry
from repro.obs.metrics import SweepMetrics

__all__ = [
    "Backend",
    "SerialBackend",
    "ProcessPoolBackend",
    "WorkQueueBackend",
    "WorkQueue",
    "ChaosConfig",
    "drain_queue",
    "filesystem_now",
    "resolve_backend",
    "DEFAULT_LEASE_TTL",
]

#: Default lease time-to-live in seconds; a dead worker's claim becomes
#: reclaimable this long after its last heartbeat.
DEFAULT_LEASE_TTL = 5.0

#: Default polling interval for queue scans and the parent monitor loop.
DEFAULT_POLL = 0.05

#: Replacement workers allowed per worker once a whole set has died.
RESPAWNS_PER_WORKER = 4

#: One unit of work handed to a backend: ``(index, cache_key, spec)``.
Job = Tuple[int, str, Any]


def filesystem_now(root: Union[str, "os.PathLike[str]"]) -> float:
    """The shared filesystem's notion of "now", as an mtime.

    Writes a probe file under ``root``, reads its mtime, and unlinks it.
    This is the clock lease staleness is judged against: every host
    sharing the filesystem sees the *same* clock, with the same
    granularity the lease mtimes themselves have — unlike the hosts'
    wall clocks, which may disagree (and which R002 bans in this layer).
    """
    fd, probe = tempfile.mkstemp(dir=os.fspath(root), prefix=".fs-clock-")
    try:
        os.write(fd, b"t")
        return os.fstat(fd).st_mtime
    finally:
        os.close(fd)
        try:
            os.unlink(probe)
        except OSError:
            pass


@dataclass(frozen=True)
class ChaosConfig:
    """Fault injection for the work-queue backend (tests and smoke runs).

    The first ``ceil(kill_fraction * worker_count)`` workers SIGKILL
    themselves immediately after claiming their ``(kill_after + 1)``-th
    spec — mid-attempt, lease held, attempt already charged — which is
    the worst honest moment to die.  Respawned replacement workers get
    indexes ``>= worker_count`` and are never doomed, so a chaos
    campaign with ``respawn=True`` always converges; ``respawn=False``
    leaves the campaign incomplete on purpose, to exercise
    ``--resume``.
    """

    kill_fraction: float = 0.0
    kill_after: int = 0
    respawn: bool = True

    def __post_init__(self):
        if not 0.0 <= self.kill_fraction <= 1.0:
            raise ConfigurationError(
                f"kill_fraction must be in [0, 1], got {self.kill_fraction}"
            )
        if self.kill_after < 0:
            raise ConfigurationError(
                f"kill_after must be >= 0, got {self.kill_after}"
            )

    def doomed(self, worker_index: int, worker_count: int) -> bool:
        """Whether this worker is slated for a SIGKILL."""
        return worker_index < math.ceil(self.kill_fraction * worker_count)


class _LeaseHeartbeat:
    """Daemon thread refreshing a lease file's mtime every ``interval``."""

    def __init__(self, lease_path: str, interval: float):
        self._lease = lease_path
        self._interval = max(0.01, interval)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="lease-heartbeat", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                os.utime(self._lease, None)
            except OSError:
                # Lease reclaimed or released underneath us; results are
                # idempotent, so just stop heartbeating.
                return

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=1.0)


class WorkQueue:
    """The on-disk queue: specs, leases, results, attempt counters.

    Layout under ``root``::

        specs/<key>.pkl       pickled {"key", "spec"} — the work items
        leases/<key>.lease    exists ⇔ a worker claims <key>
        results/<key>.pkl     pickled outcome record (idempotent writes)
        attempts/<key>        total attempt count, written pre-attempt
        reclaimed/            one tombstone per stale-lease reclamation

    ``key`` is the executor's cache key (spec digest, ``-obs``-suffixed
    when metrics collection is on), so metrics-on and metrics-off
    campaigns sharing a queue directory can never serve each other's
    results.
    """

    _DIRS = ("specs", "leases", "results", "attempts", "reclaimed")

    def __init__(self, root: Union[str, "os.PathLike[str]"]):
        self.root = os.fspath(root)

    def ensure(self) -> None:
        os.makedirs(self.root, exist_ok=True)
        for name in self._DIRS:
            os.makedirs(os.path.join(self.root, name), exist_ok=True)

    # -- paths -----------------------------------------------------------------

    def spec_path(self, key: str) -> str:
        return os.path.join(self.root, "specs", f"{key}.pkl")

    def lease_path(self, key: str) -> str:
        return os.path.join(self.root, "leases", f"{key}.lease")

    def result_path(self, key: str) -> str:
        return os.path.join(self.root, "results", f"{key}.pkl")

    def attempts_path(self, key: str) -> str:
        return os.path.join(self.root, "attempts", key)

    # -- specs -----------------------------------------------------------------

    def enqueue(self, key: str, spec: Any) -> None:
        """Write the work item for ``key`` (idempotent)."""
        path = self.spec_path(key)
        if os.path.exists(path):
            return
        self._atomic_pickle(path, {"key": key, "spec": spec})

    def keys(self) -> List[str]:
        """All enqueued work keys, sorted for a deterministic scan order."""
        specs_dir = os.path.join(self.root, "specs")
        try:
            names = os.listdir(specs_dir)
        except FileNotFoundError:
            return []
        return sorted(
            name[: -len(".pkl")] for name in names if name.endswith(".pkl")
        )

    def load_spec(self, key: str) -> Optional[Any]:
        try:
            entry = load_pickle(self.spec_path(key))
        except (FileNotFoundError, CorruptEntry):
            return None
        if not isinstance(entry, dict) or entry.get("key") != key:
            return None
        return entry.get("spec")

    # -- results ---------------------------------------------------------------

    def has_result(self, key: str) -> bool:
        return os.path.exists(self.result_path(key))

    def write_result(self, key: str, record: Dict[str, Any]) -> None:
        self._atomic_pickle(self.result_path(key), dict(record, key=key))

    def read_result(self, key: str) -> Optional[Dict[str, Any]]:
        try:
            record = load_pickle(self.result_path(key))
        except (FileNotFoundError, CorruptEntry):
            return None
        if not isinstance(record, dict) or record.get("key") != key:
            return None
        return record

    def complete(self) -> bool:
        """True when every enqueued key has a result."""
        return all(self.has_result(key) for key in self.keys())

    # -- attempt accounting ----------------------------------------------------

    def read_attempts(self, key: str) -> int:
        try:
            with open(self.attempts_path(key), "r", encoding="ascii") as handle:
                return int(handle.read().strip() or 0)
        except (OSError, ValueError):
            return 0

    def write_attempts(self, key: str, count: int) -> None:
        path = self.attempts_path(key)
        fd, tmp_name = tempfile.mkstemp(dir=os.path.dirname(path))
        try:
            with os.fdopen(fd, "w", encoding="ascii") as handle:
                handle.write(str(count))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- leases ----------------------------------------------------------------

    def try_claim(self, key: str, owner: str, ttl: float) -> bool:
        """Claim ``key`` via create-exclusive; reclaim first if stale."""
        lease = self.lease_path(key)
        try:
            fd = os.open(lease, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            if not self._lease_stale(lease, ttl):
                return False
            if not self._reclaim(lease):
                return False
            try:
                fd = os.open(lease, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return False
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(owner)
        return True

    def release(self, key: str) -> None:
        try:
            os.unlink(self.lease_path(key))
        except OSError:
            pass

    def _lease_stale(self, lease: str, ttl: float) -> bool:
        try:
            held_since = os.stat(lease).st_mtime
        except OSError:
            return False  # gone already; the next claim attempt decides
        return filesystem_now(self.root) - held_since > ttl

    def _reclaim(self, lease: str) -> bool:
        """Atomically retire a stale lease to a ``reclaimed/`` tombstone.

        The rename is the arbiter: exactly one reclaimer wins; losers see
        the lease vanish and report failure so their caller re-scans.
        """
        reclaimed_dir = os.path.join(self.root, "reclaimed")
        fd, tombstone = tempfile.mkstemp(
            dir=reclaimed_dir, prefix=os.path.basename(lease) + "."
        )
        os.close(fd)
        try:
            os.replace(lease, tombstone)
        except OSError:
            try:
                os.unlink(tombstone)
            except OSError:
                pass
            return False
        return True

    def reclaim_count(self) -> int:
        """How many stale leases have been reclaimed on this queue."""
        try:
            return len(os.listdir(os.path.join(self.root, "reclaimed")))
        except FileNotFoundError:
            return 0

    # -- plumbing --------------------------------------------------------------

    @staticmethod
    def _atomic_pickle(path: str, payload: Any) -> None:
        fd, tmp_name = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise


def drain_queue(
    queue_dir: Union[str, "os.PathLike[str]"],
    worker_index: int = 0,
    worker_count: int = 1,
    retry: Optional[RetryPolicy] = None,
    collect_metrics: bool = False,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    poll: float = DEFAULT_POLL,
    chaos: Optional[ChaosConfig] = None,
) -> Dict[str, int]:
    """Worker loop: claim, execute, record — until the queue is drained.

    This is both the entry point of the processes
    :class:`WorkQueueBackend` spawns and a standalone hook: any process
    on any host sharing ``queue_dir``'s filesystem can call it to join a
    campaign.  Returns ``{"claimed": n, "completed": n}`` for the work
    this call performed.

    The loop exits when every enqueued key has a result.  When nothing
    is claimable but results are still missing (live leases held
    elsewhere), it sleeps ``poll`` and re-scans — if those holders die,
    their leases go stale after ``lease_ttl`` and this worker reclaims
    and finishes their work.
    """
    queue = WorkQueue(queue_dir)
    queue.ensure()
    # The pid only labels the lease file for post-mortem debugging; it
    # never reaches a result record, summary, or digest.
    owner = f"worker-{worker_index}-pid-{os.getpid()}"  # reprolint: disable=R006
    doomed = chaos is not None and chaos.doomed(worker_index, worker_count)
    claimed = 0
    completed = 0
    while True:
        progressed = False
        for key in queue.keys():
            if queue.has_result(key):
                continue
            if not queue.try_claim(key, owner, lease_ttl):
                continue
            if queue.has_result(key):  # lost a reclaim race after the fact
                queue.release(key)
                continue
            claimed += 1
            if doomed and chaos is not None and claimed > chaos.kill_after:
                # Die the way a real fault would: attempt charged, lease
                # held, no result written.
                queue.write_attempts(key, queue.read_attempts(key) + 1)
                # Chaos-harness suicide: the pid addresses *this* process
                # for SIGKILL and never enters any output.
                os.kill(os.getpid(), signal.SIGKILL)  # reprolint: disable=R006
            heartbeat = _LeaseHeartbeat(queue.lease_path(key), lease_ttl / 4.0)
            heartbeat.start()
            try:
                spec = queue.load_spec(key)
                if spec is None:
                    outcome = RetryOutcome(
                        result=None,
                        error="queue entry unreadable (corrupt spec pickle)",
                        seconds=0.0,
                        attempts=queue.read_attempts(key),
                        timeouts=0,
                    )
                else:
                    outcome = run_with_retry(
                        spec,
                        policy=retry,
                        collect_metrics=collect_metrics,
                        attempts_used=queue.read_attempts(key),
                        on_attempt=lambda n, k=key: queue.write_attempts(k, n),
                    )
                queue.write_result(key, {
                    "summary": outcome.result,
                    "error": outcome.error,
                    "seconds": outcome.seconds,
                    "attempts": outcome.attempts,
                    "timeouts": outcome.timeouts,
                })
                completed += 1
            finally:
                heartbeat.stop()
                queue.release(key)
            progressed = True
        if queue.complete():
            break
        if not progressed:
            time.sleep(poll)
    return {"claimed": claimed, "completed": completed}


class Backend:
    """How a batch of jobs reaches processes; see module docstring.

    :meth:`run` receives ``jobs``, a list of ``(index, cache_key, spec)``
    triples, and is a generator yielding ``(index, RetryOutcome)`` as
    each job finishes.  Every attempt runs through
    :func:`~repro.exec.retry.run_with_retry` under ``retry``, which alone
    counts attempts, applies the timeout and decides when a spec fails
    for good.  Jobs a backend cannot finish (an interrupted work-queue
    campaign) are never yielded; the executor reports them as unfinished
    and the manifest keeps them resumable.  ``metrics`` is the batch's
    :class:`~repro.obs.metrics.SweepMetrics`; a backend touches only its
    own counters there.
    """

    name = "backend"

    def run(
        self,
        jobs: Sequence[Job],
        workers: int,
        retry: Optional[RetryPolicy],
        collect_metrics: bool,
        metrics: SweepMetrics,
    ) -> Iterator[Tuple[int, RetryOutcome]]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


def _run_in_process(jobs, retry, collect_metrics):
    for index, _key, spec in jobs:
        yield index, run_with_retry(
            spec, policy=retry, collect_metrics=collect_metrics
        )


class SerialBackend(Backend):
    """Everything in the calling process, regardless of ``workers``."""

    name = "serial"

    def run(self, jobs, workers, retry, collect_metrics, metrics):
        return _run_in_process(jobs, retry, collect_metrics)


class ProcessPoolBackend(Backend):
    """The default: serial at ``workers=1``, else a process pool.

    A worker dying outright (segfault, ``os._exit``) breaks its pool.
    The breakage of a shared pool charges no spec: every job still in
    flight re-runs alone in a one-worker pool, so a repeat crash
    implicates exactly one spec.  A crash while running alone charges
    that spec one attempt, and it re-runs alone with its crash count as
    ``attempts_used`` until :func:`~repro.exec.retry.run_with_retry`
    reports the budget spent — the way a dead work-queue worker's
    attempt is charged.
    """

    name = "process-pool"

    def run(self, jobs, workers, retry, collect_metrics, metrics):
        if workers == 1:
            yield from _run_in_process(jobs, retry, collect_metrics)
            return
        crashes: Dict[int, int] = {}
        suspects: List[Job] = []
        batch = list(jobs)
        while batch:
            broke = False
            dispatched = self._dispatch(
                batch, workers, retry, collect_metrics, crashes
            )
            with closing(dispatched):
                for job, outcome in dispatched:
                    if outcome is not None:
                        if crashes.get(job[0]) and not outcome.ok:
                            metrics.note("crash-failed")
                        yield job[0], outcome
                        continue
                    broke = True
                    suspects.append(job)
                    if len(batch) == 1:
                        crashes[job[0]] = crashes.get(job[0], 0) + 1
            if broke:
                metrics.note("pool-breakage")
            batch, suspects = suspects[:1], suspects[1:]
            if batch:
                metrics.note("isolated-retry")

    def _dispatch(self, jobs, workers, retry, collect_metrics, crashes):
        """Run ``jobs`` on one fresh pool, yielding ``(job, outcome)``.

        The outcome is ``None`` for a job the pool's breakage took.  A
        job whose submission fails (the spec does not pickle, say)
        reports the error on its own outcome; the others run on.
        """
        pool = ProcessPoolExecutor(max_workers=min(workers, len(jobs)))
        broken = False
        try:
            futures = {}
            for job in jobs:
                try:
                    future = pool.submit(
                        run_with_retry, job[2], retry, collect_metrics,
                        attempts_used=crashes.get(job[0], 0),
                    )
                except BrokenProcessPool:
                    broken = True
                    break
                futures[future] = job
            for future in as_completed(futures):
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    broken = True
                    outcome = None
                except Exception as exc:  # noqa: BLE001 — this job's dispatch failed
                    outcome = RetryOutcome(
                        result=None, error=format_error(exc), seconds=0.0,
                        attempts=0, timeouts=0,
                    )
                yield futures[future], outcome
            for job in jobs[len(futures):]:
                yield job, None  # never submitted: the pool broke first
        except BaseException:
            # An interrupt (or the consumer closing this generator) while
            # futures are in flight: a graceful shutdown would wait on
            # running workers, so hard-terminate and let none outlive us.
            broken = True
            raise
        finally:
            if broken:
                self._terminate_pool(pool)
            else:
                pool.shutdown(wait=True)

    @staticmethod
    def _terminate_pool(pool: ProcessPoolExecutor) -> None:
        """Best-effort hard stop of a pool with stuck or dead workers."""
        pool.shutdown(wait=False, cancel_futures=True)
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # noqa: BLE001 - already dead
                pass


class WorkQueueBackend(Backend):
    """Lease-arbitrated file queue drained by disposable worker processes.

    Parameters
    ----------
    queue_dir:
        Queue root on a filesystem all workers share.  Reusing the same
        directory across runs is what makes ``--resume`` cheap: results
        already on disk are honored before any work is enqueued.
    workers:
        Worker processes to spawn; default is the executor's ``workers``.
    lease_ttl:
        Seconds without a heartbeat before a lease counts as stale.
    poll:
        Scan/monitor cadence in seconds.
    chaos:
        Optional :class:`ChaosConfig` fault injection (tests/smoke).

    When every worker has died, a fresh set is spawned, up to
    ``RESPAWNS_PER_WORKER × workers`` replacements in all; the cap stops
    a spec that kills every process it touches faster than its retry
    budget can quarantine it.
    """

    name = "work-queue"

    def __init__(
        self,
        queue_dir: Union[str, "os.PathLike[str]"],
        workers: Optional[int] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        poll: float = DEFAULT_POLL,
        chaos: Optional[ChaosConfig] = None,
    ):
        if lease_ttl <= 0:
            raise ConfigurationError(
                f"lease_ttl must be positive, got {lease_ttl}"
            )
        if poll <= 0:
            raise ConfigurationError(f"poll must be positive, got {poll}")
        self.queue_dir = os.fspath(queue_dir)
        self.workers = workers
        self.lease_ttl = lease_ttl
        self.poll = poll
        self.chaos = chaos

    def run(self, jobs, workers, retry, collect_metrics, metrics):
        queue = WorkQueue(self.queue_dir)
        queue.ensure()
        for _index, key, spec in jobs:
            if not queue.has_result(key):
                queue.enqueue(key, spec)
        worker_count = self.workers or workers
        reclaims_before = queue.reclaim_count()
        # fork where available, so campaign-local spec classes reach workers.
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )

        def spawn(index: int):
            process = ctx.Process(
                target=drain_queue,
                kwargs=dict(
                    queue_dir=self.queue_dir,
                    worker_index=index,
                    worker_count=worker_count,
                    retry=retry,
                    collect_metrics=collect_metrics,
                    lease_ttl=self.lease_ttl,
                    poll=self.poll,
                    chaos=self.chaos,
                ),
                daemon=True,
            )
            process.start()
            return process

        processes = [spawn(i) for i in range(worker_count)]
        waiting = list(jobs)
        try:
            while True:
                unfinished = []
                for job in waiting:
                    record = queue.read_result(job[1])
                    if record is None:
                        unfinished.append(job)
                        continue
                    yield job[0], RetryOutcome(
                        result=record.get("summary"),
                        error=record.get("error"),
                        seconds=record.get("seconds", 0.0),
                        attempts=record.get("attempts", 1),
                        timeouts=record.get("timeouts", 0),
                    )
                waiting = unfinished
                if not waiting:
                    break
                if not any(process.is_alive() for process in processes):
                    if self.chaos is not None and not self.chaos.respawn:
                        break  # deliberate: leave the campaign resumable
                    spawned = len(processes)
                    if spawned >= (1 + RESPAWNS_PER_WORKER) * worker_count:
                        break  # something kills every worker; give up
                    processes.extend(
                        spawn(spawned + i) for i in range(worker_count)
                    )
                time.sleep(self.poll)
        finally:
            deadline = time.monotonic() + max(1.0, 4 * self.poll)
            for process in processes:
                process.join(timeout=max(0.0, deadline - time.monotonic()))
            for process in processes:
                if process.is_alive():
                    process.terminate()
            for process in processes:
                process.join(timeout=1.0)
            metrics.lease_reclaims += queue.reclaim_count() - reclaims_before


def resolve_backend(
    backend: Union[Backend, str, None] = None,
    queue_dir: Optional[Union[str, "os.PathLike[str]"]] = None,
    workers: Optional[int] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    poll: float = DEFAULT_POLL,
    chaos: Optional[ChaosConfig] = None,
) -> Backend:
    """Turn a ``--backend`` value into a :class:`Backend` instance.

    ``None``/``'auto'`` give :class:`ProcessPoolBackend`, which runs
    serially at ``workers=1``.
    ``'work-queue'`` requires ``queue_dir``.
    """
    if isinstance(backend, Backend):
        return backend
    name = (backend or "auto").lower()
    if name in ("auto", "process-pool", "pool", "process"):
        return ProcessPoolBackend()
    if name == "serial":
        return SerialBackend()
    if name in ("work-queue", "queue", "workqueue"):
        if queue_dir is None:
            raise ConfigurationError(
                "the work-queue backend needs a queue directory "
                "(--queue-dir)"
            )
        return WorkQueueBackend(
            queue_dir,
            workers=workers,
            lease_ttl=lease_ttl,
            poll=poll,
            chaos=chaos,
        )
    raise ConfigurationError(
        f"unknown backend {backend!r} "
        "(expected auto, serial, process-pool, or work-queue)"
    )
