"""Per-spec retry/timeout policy: bounded attempts, deterministic backoff.

A campaign over millions of executions will see transient failures —
workers OOM-killed mid-spec, NFS hiccups, a wedged child process — that
have nothing to do with the spec itself.  :class:`RetryPolicy` gives
every execution path (serial, process-pool workers, work-queue workers)
one shared answer to "how often, how long, and how far apart do we try
again":

* **bounded attempts** — ``max_retries`` re-runs after the first
  attempt, then escalation: the spec fails permanently and the campaign
  layer quarantines it (manifest state ``quarantined``);
* **per-attempt wall-clock timeout** — enforced with ``SIGALRM`` where
  available (main thread of a POSIX process; every worker process
  qualifies), skipped silently elsewhere, so a runaway spec cannot wedge
  a worker forever;
* **exponential backoff with deterministic jitter** — the wait before
  attempt *k* is ``backoff_base * backoff_factor**(k-1)`` capped at
  ``backoff_max``, scaled by a jitter factor derived by hashing the spec
  digest and the attempt number.  Keying jitter off the digest — never a
  shared RNG — means two workers retrying different specs de-correlate,
  while replaying the same campaign produces the same schedule, and no
  RNG stream that could perturb simulation results is ever touched.

Timing state (attempt counts, backoff waits, timeouts) lives entirely
outside :class:`~repro.exec.spec.ExecutionSpec` digests and outside
:class:`~repro.exec.summary.ExecutionSummary`: a retried execution
produces bytes identical to a first-try success, which is what makes
retry safe under the byte-identity contract of
``tests/test_parallel_equivalence.py``.

This module is importable inside worker processes and is R002-clean by
construction: it uses only monotonic durations (``time.sleep``), never
the wall clock or the environment.
"""

from __future__ import annotations

import hashlib
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import ConfigurationError, ReproError

__all__ = [
    "RetryPolicy",
    "RetryOutcome",
    "SpecTimeoutError",
    "run_with_retry",
    "format_error",
]


class SpecTimeoutError(ReproError):
    """One execution attempt exceeded the policy's wall-clock budget."""


def format_error(exc: BaseException) -> str:
    """The one-line ``Type: message`` form used in outcome records."""
    return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class RetryPolicy:
    """How a single spec's execution attempts are bounded and spaced.

    Parameters
    ----------
    max_retries:
        Re-runs allowed after the first attempt; total attempts are
        ``max_retries + 1``.  ``0`` disables retrying but keeps the
        timeout enforcement.
    timeout:
        Optional per-*attempt* wall-clock budget in seconds.  Enforced
        via ``SIGALRM`` when running in the main thread of a POSIX
        process (true for every sweep worker); silently skipped
        elsewhere, so the policy degrades to retry-only.
    backoff_base, backoff_factor, backoff_max:
        Exponential backoff shape: the wait before retry ``k`` (1-based)
        is ``min(backoff_max, backoff_base * backoff_factor**(k-1))``,
        jitter-scaled.
    jitter:
        Fraction of the backoff that deterministic jitter may remove:
        the wait is scaled by a factor in ``[1 - jitter, 1]`` derived by
        hashing ``(digest, attempt)``.  ``0`` disables jitter.
    """

    max_retries: int = 2
    timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 5.0
    jitter: float = 0.5

    def __post_init__(self):
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(
                f"retry timeout must be positive, got {self.timeout}"
            )
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigurationError("backoff bounds must be non-negative")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    @property
    def attempts_allowed(self) -> int:
        """Total attempts before escalation to quarantine."""
        return self.max_retries + 1

    def backoff_seconds(self, digest: str, attempt: int) -> float:
        """Wait before retrying after failed attempt ``attempt`` (1-based).

        Deterministic: the jitter factor is a pure function of the spec
        digest and the attempt number, so the schedule replays exactly
        and never consumes any RNG stream a simulation could observe.
        """
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        base = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )
        if self.jitter == 0.0:
            return base
        token = f"retry-jitter:{digest}:{attempt}".encode("utf-8")
        unit = int.from_bytes(
            hashlib.sha256(token).digest()[:8], "big"
        ) / float(2 ** 64)
        return base * (1.0 - self.jitter * unit)


@dataclass(frozen=True)
class RetryOutcome:
    """What a retried execution produced, with its attempt accounting.

    ``attempts`` counts *total* attempts including any ``attempts_used``
    budget consumed before this call (work-queue claims carried across
    worker deaths); ``timeouts`` counts attempts killed by the policy's
    wall-clock budget.  ``seconds`` is the summed execution wall time of
    all attempts made here (observability only — never part of results).
    """

    result: Optional[Any]
    error: Optional[str]
    seconds: float
    attempts: int
    timeouts: int

    @property
    def ok(self) -> bool:
        return self.error is None


@contextmanager
def _attempt_deadline(seconds: Optional[float]):
    """Raise :class:`SpecTimeoutError` in the body after ``seconds``.

    Uses ``SIGALRM``/``setitimer``, which only works in the main thread
    of a POSIX process; everywhere else this is a no-op (documented
    policy degradation, never an error).
    """
    usable = (
        seconds is not None
        and hasattr(signal, "SIGALRM")
        # Capability probe (SIGALRM needs the main thread); the thread
        # identity gates the timeout mechanism, never the results.
        and threading.current_thread() is threading.main_thread()  # reprolint: disable=R006
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise SpecTimeoutError(
            f"execution attempt timed out after its {seconds:g}s "
            "wall-clock budget"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_with_retry(
    spec,
    policy: Optional[RetryPolicy] = None,
    collect_metrics: bool = False,
    runner: Optional[Callable[[Any], Any]] = None,
    attempts_used: int = 0,
    on_attempt: Optional[Callable[[int], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> RetryOutcome:
    """Run ``spec`` under ``policy``; trap failures per attempt.

    ``runner`` defaults to ``spec.run_summary(collect_metrics=...)`` —
    the worker path — but any callable of the spec works (the profiler
    passes one returning the full trace).  ``attempts_used`` pre-charges
    the budget with attempts that died with their worker process (the
    work queue persists the count across worker deaths; the process
    pool counts crashes of a spec running alone), and
    ``on_attempt(total_attempt_number)`` fires *before* each attempt so
    callers can persist the counter first — an attempt that dies with
    the worker is still accounted for.  A spec whose budget those crashes
    already spent fails without running.

    ``policy=None`` means one attempt, no timeout.
    """
    if runner is None:
        def runner(s):
            return s.run_summary(collect_metrics=collect_metrics)

    if policy is None:
        policy = RetryPolicy(max_retries=0, timeout=None)
    digest = spec.digest()
    total_seconds = 0.0
    timeouts = 0
    attempt = attempts_used
    error: Optional[str] = None
    if attempt >= policy.attempts_allowed:
        return RetryOutcome(
            result=None,
            error=(
                "retry budget exhausted: worker process crashed "
                f"(after {attempt} attempts)"
            ),
            seconds=0.0,
            attempts=attempt,
            timeouts=0,
        )
    while attempt < policy.attempts_allowed:
        attempt += 1
        if on_attempt is not None:
            on_attempt(attempt)
        started = time.perf_counter()
        try:
            with _attempt_deadline(policy.timeout):
                result = runner(spec)
            total_seconds += time.perf_counter() - started
            return RetryOutcome(
                result=result,
                error=None,
                seconds=total_seconds,
                attempts=attempt,
                timeouts=timeouts,
            )
        except Exception as exc:  # noqa: BLE001 — failure isolation by design
            total_seconds += time.perf_counter() - started
            if isinstance(exc, SpecTimeoutError):
                timeouts += 1
            error = format_error(exc)
            if attempt < policy.attempts_allowed:
                sleep(policy.backoff_seconds(digest, attempt))
    if attempt > 1:
        error = f"{error} (after {attempt} attempts)"
    return RetryOutcome(
        result=None,
        error=error,
        seconds=total_seconds,
        attempts=attempt,
        timeouts=timeouts,
    )
