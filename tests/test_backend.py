"""Fault-tolerance suite: backends, retries, leases, manifests, caching.

Covers the campaign-execution stack from the bottom up:

* :class:`~repro.exec.retry.RetryPolicy` — bounded attempts,
  deterministic digest-keyed backoff jitter, SIGALRM timeouts, budget
  pre-charging (``attempts_used``) and the ``on_attempt`` persistence
  hook;
* :class:`~repro.exec.manifest.CampaignManifest` — canonical JSON
  round-trips, atomic saves, version refusal, monotone attempt counts;
* :class:`~repro.exec.backend.WorkQueue` — create-exclusive lease
  claims, stale-lease reclamation against the filesystem clock, corrupt
  spec entries;
* backend equivalence — serial, process-pool, and work-queue executions
  of the same specs are byte-identical (pickled summaries compared
  exactly);
* crash recovery — a chaos-killed campaign resumes from its manifest to
  the byte-identical result, and a failing spec escalates to quarantine
  exactly once its retry budget is spent;
* :class:`~repro.exec.cache.ResultCache` corruption quarantine and the
  pool's hard-terminate-on-interrupt guarantee.

The multi-process cases here use small spec batches so the whole module
stays in tier-1; the large-campaign chaos acceptance lives in
``tests/test_backend_chaos.py`` (marked ``slow``).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.node import AoptAlgorithm
from repro.core.params import SyncParams
from repro.errors import ConfigurationError
from repro.exec import ExecutionSpec, SweepExecutor
from repro.exec.backend import (
    ChaosConfig,
    ProcessPoolBackend,
    SerialBackend,
    WorkQueue,
    WorkQueueBackend,
    drain_queue,
    filesystem_now,
    resolve_backend,
)
from repro.exec.cache import ResultCache
from repro.exec.manifest import MANIFEST_VERSION, CampaignManifest, ManifestEntry
from repro.exec.retry import RetryPolicy, run_with_retry
from repro.sim.delays import ConstantDelay, DelayModel
from repro.sim.drift import TwoGroupDrift
from repro.topology.generators import line

pytestmark = pytest.mark.backend

PARAMS = SyncParams.recommended(epsilon=0.05, delay_bound=1.0)
HORIZON = 20.0


def _specs(count: int, horizon: float = HORIZON):
    return [
        ExecutionSpec(
            line(4), AoptAlgorithm(PARAMS),
            TwoGroupDrift(0.05, [0, 1]), ConstantDelay(1.0),
            horizon, seed=i, label=f"s{i}",
        )
        for i in range(count)
    ]


#: Entries that exist but fail to unpickle with something other than
#: an ``UnpicklingError``: each must read as a miss, never raise.
UNLOADABLE_PICKLES = {
    # A class in a module that no longer exists (ModuleNotFoundError).
    "deleted-module": b"crepro.sim.events\nEvent\n)\x81.",
    # A malformed INT literal (ValueError).
    "bad-int-literal": b"I12x\n.",
}


class AlwaysFailingDelay(DelayModel):
    """Raises on every message — a permanently poisonous spec.

    Module-level so it pickles into fork/spawn workers.
    """

    def __init__(self):
        super().__init__(1.0)

    def delay(self, sender, receiver, send_time, seq) -> float:
        raise RuntimeError("injected permanent failure")


class UnpicklableDelay(ConstantDelay):
    """Digests like any delay model but refuses to pickle."""

    def __reduce_ex__(self, protocol):
        raise TypeError("cannot pickle UnpicklableDelay")


def _failing_spec(seed: int = 0):
    return ExecutionSpec(
        line(4), AoptAlgorithm(PARAMS),
        TwoGroupDrift(0.05, [0, 1]), AlwaysFailingDelay(),
        HORIZON, seed=seed, label=f"poison{seed}",
    )


class _StubSpec:
    """Just enough spec surface for run_with_retry with a custom runner."""

    label = "stub"

    def __init__(self, digest: str = "ab" * 32):
        self._digest = digest

    def digest(self) -> str:
        return self._digest


def _assert_byte_identical(serial, other):
    assert len(serial) == len(other)
    for s, o in zip(serial, other):
        assert s.index == o.index
        assert s.error == o.error
        assert pickle.dumps(s.summary) == pickle.dumps(o.summary), (
            f"summary mismatch for {s.spec.label}"
        )


# ---------------------------------------------------------------------------
# RetryPolicy / run_with_retry
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_retries=3, backoff_base=0.1,
                             backoff_factor=2.0, backoff_max=1.0, jitter=0.5)
        digest = "c3" * 32
        for attempt in (1, 2, 3):
            first = policy.backoff_seconds(digest, attempt)
            assert first == policy.backoff_seconds(digest, attempt)
            base = min(1.0, 0.1 * 2.0 ** (attempt - 1))
            assert base * 0.5 <= first <= base

    def test_backoff_decorrelates_across_digests(self):
        policy = RetryPolicy(jitter=0.5)
        a = policy.backoff_seconds("aa" * 32, 1)
        b = policy.backoff_seconds("bb" * 32, 1)
        assert a != b

    def test_jitter_zero_is_pure_exponential(self):
        policy = RetryPolicy(backoff_base=0.05, backoff_factor=2.0,
                             backoff_max=5.0, jitter=0.0)
        assert policy.backoff_seconds("ab" * 32, 3) == 0.05 * 4

    def test_invalid_policies_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)

    def test_retry_recovers_from_transient_failures(self):
        calls = []
        waits = []

        def runner(spec):
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError("transient")
            return 42

        outcome = run_with_retry(
            _StubSpec(), RetryPolicy(max_retries=3),
            runner=runner, sleep=waits.append,
        )
        assert outcome.ok
        assert outcome.result == 42
        assert outcome.attempts == 3
        assert len(waits) == 2  # slept between the failed attempts only

    def test_budget_exhaustion_reports_attempt_count(self):
        def runner(spec):
            raise RuntimeError("always")

        outcome = run_with_retry(
            _StubSpec(), RetryPolicy(max_retries=2),
            runner=runner, sleep=lambda s: None,
        )
        assert not outcome.ok
        assert outcome.attempts == 3
        assert "(after 3 attempts)" in outcome.error

    def test_single_attempt_failure_keeps_bare_error(self):
        def runner(spec):
            raise RuntimeError("boom")

        outcome = run_with_retry(_StubSpec(), RetryPolicy(max_retries=0),
                                 runner=runner)
        assert outcome.error == "RuntimeError: boom"

    def test_precharged_budget_is_honored(self):
        calls = []

        def runner(spec):
            calls.append(1)
            return 1

        policy = RetryPolicy(max_retries=1)  # 2 attempts total
        outcome = run_with_retry(
            _StubSpec(), policy, runner=runner, attempts_used=2,
        )
        assert not outcome.ok
        assert "retry budget exhausted" in outcome.error
        assert not calls  # never even ran

    def test_on_attempt_fires_before_each_attempt(self):
        seen = []

        def runner(spec):
            # The hook must have persisted the current attempt already.
            assert len(seen) >= 1
            if len(seen) < 2:
                raise RuntimeError("transient")
            return "ok"

        outcome = run_with_retry(
            _StubSpec(), RetryPolicy(max_retries=2),
            runner=runner, on_attempt=seen.append, sleep=lambda s: None,
        )
        assert outcome.ok
        assert seen == [1, 2]

    def test_timeout_kills_runaway_attempt(self):
        def runner(spec):
            time.sleep(10.0)
            return "unreachable"

        outcome = run_with_retry(
            _StubSpec(), RetryPolicy(max_retries=0, timeout=0.2),
            runner=runner,
        )
        assert not outcome.ok
        assert outcome.timeouts == 1
        assert "SpecTimeoutError" in outcome.error


# ---------------------------------------------------------------------------
# CampaignManifest
# ---------------------------------------------------------------------------


class TestCampaignManifest:
    def test_round_trip(self, tmp_path):
        specs = _specs(3)
        path = tmp_path / "campaign.json"
        manifest = CampaignManifest.for_specs(
            specs, meta={"command": "test"}, path=path
        )
        manifest.mark(specs[0].digest(), "done", attempts=1)
        manifest.mark(specs[1].digest(), "quarantined", attempts=3)
        manifest.save()

        loaded = CampaignManifest.load(path)
        assert loaded.digests() == [spec.digest() for spec in specs]
        assert loaded.state(specs[0].digest()) == "done"
        assert loaded.state(specs[1].digest()) == "quarantined"
        assert loaded.state(specs[2].digest()) == "pending"
        assert loaded.attempts(specs[1].digest()) == 3
        assert loaded.meta == {"command": "test"}
        assert loaded.unfinished() == [specs[2].digest()]
        assert not loaded.complete
        assert loaded.counts() == {
            "pending": 1, "leased": 0, "done": 1, "quarantined": 1,
        }

    def test_canonical_json_is_stable(self, tmp_path):
        specs = _specs(2)
        manifest = CampaignManifest.for_specs(specs, meta={"k": 1})
        text = manifest.to_json()
        assert text == manifest.to_json()
        payload = json.loads(text)
        assert payload["manifest"] == "repro-campaign"
        assert payload["version"] == MANIFEST_VERSION
        # No wall-clock contamination: the manifest is a pure function of
        # campaign progress.
        assert "time" not in text and "date" not in text

    def test_save_is_atomic_and_leaves_no_temp_files(self, tmp_path):
        manifest = CampaignManifest.for_specs(
            _specs(2), path=tmp_path / "m.json"
        )
        manifest.save()
        leftovers = [p for p in os.listdir(tmp_path) if p != "m.json"]
        assert leftovers == []

    def test_load_rejects_version_mismatch(self, tmp_path):
        path = tmp_path / "m.json"
        manifest = CampaignManifest.for_specs(_specs(1), path=path)
        manifest.save()
        payload = json.loads(path.read_text())

        payload["version"] = MANIFEST_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="version"):
            CampaignManifest.load(path)

        payload["version"] = MANIFEST_VERSION
        payload["cache_version"] = -1
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="cache/digest"):
            CampaignManifest.load(path)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("not json at all {")
        with pytest.raises(ConfigurationError):
            CampaignManifest.load(path)
        path.write_text(json.dumps({"something": "else"}))
        with pytest.raises(ConfigurationError, match="not a repro campaign"):
            CampaignManifest.load(path)

    def test_unknown_state_rejected(self):
        manifest = CampaignManifest([ManifestEntry(digest="d")])
        with pytest.raises(ConfigurationError):
            manifest.mark("d", "exploded")

    def test_attempts_are_monotone(self):
        manifest = CampaignManifest()
        manifest.mark("d", "leased", attempts=3)
        manifest.mark("d", "pending", attempts=1)  # late, stale report
        assert manifest.attempts("d") == 3


# ---------------------------------------------------------------------------
# WorkQueue lease protocol
# ---------------------------------------------------------------------------


class TestWorkQueueLeases:
    def test_claim_is_exclusive_until_released(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.ensure()
        assert queue.try_claim("k", "a", ttl=60.0)
        assert not queue.try_claim("k", "b", ttl=60.0)
        queue.release("k")
        assert queue.try_claim("k", "b", ttl=60.0)

    def test_stale_lease_is_reclaimed(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.ensure()
        assert queue.try_claim("k", "dead-worker", ttl=1.0)
        lease = queue.lease_path("k")
        # Backdate the lease far past the TTL, as if its heartbeat died.
        past = os.stat(lease).st_mtime - 3600.0
        os.utime(lease, (past, past))
        assert queue.try_claim("k", "survivor", ttl=1.0)
        assert queue.reclaim_count() == 1

    def test_fresh_lease_is_not_reclaimed(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.ensure()
        assert queue.try_claim("k", "alive", ttl=60.0)
        assert not queue.try_claim("k", "thief", ttl=60.0)
        assert queue.reclaim_count() == 0

    def test_filesystem_clock_agrees_with_lease_mtimes(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.ensure()
        queue.try_claim("k", "w", ttl=60.0)
        drift = filesystem_now(tmp_path) - os.stat(queue.lease_path("k")).st_mtime
        assert abs(drift) < 30.0  # same clock, modulo test wall time

    def test_spec_round_trip_and_corruption(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.ensure()
        spec = _specs(1)[0]
        queue.enqueue("key1", spec)
        assert queue.keys() == ["key1"]
        loaded = queue.load_spec("key1")
        assert loaded.digest() == spec.digest()
        # Truncate the entry: load_spec degrades to None, never raises.
        with open(queue.spec_path("key1"), "wb") as handle:
            handle.write(b"\x80")
        assert queue.load_spec("key1") is None

    def test_attempt_counter_round_trip(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.ensure()
        assert queue.read_attempts("k") == 0
        queue.write_attempts("k", 2)
        assert queue.read_attempts("k") == 2

    def test_result_records_validate_their_key(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.ensure()
        queue.write_result("k", {"summary": None, "error": "x"})
        assert queue.read_result("k")["error"] == "x"
        # A record copied under the wrong key is rejected.
        os.replace(queue.result_path("k"), queue.result_path("other"))
        assert queue.read_result("other") is None

    @pytest.mark.parametrize("payload", sorted(UNLOADABLE_PICKLES))
    def test_unloadable_entries_read_as_none(self, tmp_path, payload):
        queue = WorkQueue(tmp_path)
        queue.ensure()
        queue.enqueue("k", _specs(1)[0])
        queue.write_result("k", {"summary": None, "error": "x"})
        for path in (queue.spec_path("k"), queue.result_path("k")):
            with open(path, "wb") as handle:
                handle.write(UNLOADABLE_PICKLES[payload])
        assert queue.load_spec("k") is None
        assert queue.read_result("k") is None


# ---------------------------------------------------------------------------
# Backend equivalence & resolution
# ---------------------------------------------------------------------------


class TestBackendEquivalence:
    def test_serial_pool_and_work_queue_byte_identical(self, tmp_path):
        specs = _specs(4)
        serial = SweepExecutor(workers=1, backend="serial").run(specs)
        pooled = SweepExecutor(workers=2).run(specs)
        queued = SweepExecutor(
            workers=2,
            backend=WorkQueueBackend(tmp_path / "q", lease_ttl=10.0),
        ).run(specs)
        _assert_byte_identical(serial, pooled)
        _assert_byte_identical(serial, queued)

    def test_unpicklable_spec_fails_alone_on_pool(self):
        specs = _specs(3)
        specs.insert(1, ExecutionSpec(
            line(4), AoptAlgorithm(PARAMS),
            TwoGroupDrift(0.05, [0, 1]), UnpicklableDelay(1.0),
            HORIZON, label="unpicklable",
        ))
        outcomes = SweepExecutor(workers=2).run(specs)
        assert outcomes[1].error == "TypeError: cannot pickle UnpicklableDelay"
        assert outcomes[1].attempts == 0
        serial = SweepExecutor(workers=1).run(specs[:1] + specs[2:])
        for s, o in zip(serial, outcomes[:1] + outcomes[2:]):
            assert o.ok
            assert pickle.dumps(s.summary) == pickle.dumps(o.summary)

    def test_drain_queue_standalone_worker(self, tmp_path):
        # Any process sharing the filesystem can drain the queue directly
        # (the multi-host path, exercised here in-process).
        specs = _specs(2)
        queue = WorkQueue(tmp_path / "q")
        queue.ensure()
        for spec in specs:
            queue.enqueue(spec.digest(), spec)
        stats = drain_queue(tmp_path / "q", lease_ttl=10.0)
        assert stats == {"claimed": 2, "completed": 2}
        for spec in specs:
            record = queue.read_result(spec.digest())
            assert record["error"] is None
            assert record["summary"] is not None

    def test_resolve_backend_names(self, tmp_path):
        assert resolve_backend(None).name == "process-pool"
        assert resolve_backend("auto").name == "process-pool"
        assert resolve_backend("serial").name == "serial"
        assert resolve_backend("work-queue", queue_dir=tmp_path).name == (
            "work-queue"
        )
        backend = SerialBackend()
        assert resolve_backend(backend) is backend
        with pytest.raises(ConfigurationError, match="queue directory"):
            resolve_backend("work-queue")
        with pytest.raises(ConfigurationError, match="unknown backend"):
            resolve_backend("carrier-pigeon")


# ---------------------------------------------------------------------------
# Crash recovery: chaos kill + manifest resume (small-scale)
# ---------------------------------------------------------------------------


class TestWorkQueueRecovery:
    def test_killed_campaign_resumes_byte_identical(self, tmp_path):
        specs = _specs(6)
        serial = SweepExecutor(workers=1, backend="serial").run(specs)
        manifest = CampaignManifest.for_specs(
            specs, path=tmp_path / "m.json"
        )
        retry = RetryPolicy(max_retries=2, backoff_base=0.0, jitter=0.0)

        # Every worker SIGKILLs itself after its second claim, with no
        # respawns: the campaign is left deliberately incomplete.
        chaos = ChaosConfig(kill_fraction=1.0, kill_after=1, respawn=False)
        interrupted = SweepExecutor(
            workers=2, retry=retry,
            backend=WorkQueueBackend(
                tmp_path / "q", lease_ttl=1.0, chaos=chaos
            ),
        ).run(specs, manifest=manifest)
        assert len(interrupted) < len(specs)
        assert not manifest.complete

        resumed = SweepExecutor(
            workers=2, retry=retry,
            backend=WorkQueueBackend(tmp_path / "q", lease_ttl=1.0),
        ).run(specs, manifest=CampaignManifest.load(tmp_path / "m.json"))
        _assert_byte_identical(serial, resumed)

        final = CampaignManifest.load(tmp_path / "m.json")
        assert final.complete
        assert final.counts()["done"] == len(specs)
        for digest in final.digests():
            assert final.attempts(digest) <= retry.attempts_allowed

    def test_chaos_with_respawn_converges(self, tmp_path):
        specs = _specs(4)
        serial = SweepExecutor(workers=1, backend="serial").run(specs)
        chaos = ChaosConfig(kill_fraction=1.0, kill_after=0, respawn=True)
        executor = SweepExecutor(
            workers=2, retry=RetryPolicy(max_retries=3, backoff_base=0.0),
            backend=WorkQueueBackend(
                tmp_path / "q", lease_ttl=1.0, chaos=chaos
            ),
        )
        outcomes = executor.run(specs)
        _assert_byte_identical(serial, outcomes)
        # The killed workers' leases were reclaimed, and the metrics saw it.
        assert executor.last_metrics.lease_reclaims >= 1

    def test_quarantine_escalation_after_budget(self, tmp_path):
        spec = _failing_spec()
        manifest = CampaignManifest.for_specs(
            [spec], path=tmp_path / "m.json"
        )
        retry = RetryPolicy(max_retries=1, backoff_base=0.0, jitter=0.0)
        executor = SweepExecutor(workers=1, backend="serial", retry=retry)
        outcomes = executor.run([spec], manifest=manifest)
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 2
        assert manifest.state(spec.digest()) == "quarantined"

        # A resumed campaign refuses to re-run the quarantined spec.
        loaded = CampaignManifest.load(tmp_path / "m.json")
        calls = executor.last_metrics.executed
        outcomes = executor.run([spec], manifest=loaded)
        assert not outcomes[0].ok
        assert "quarantined by campaign manifest" in outcomes[0].error
        assert executor.last_metrics.executed == 0
        assert calls == 1

    def test_interrupted_certify_reports_incomplete(self, tmp_path):
        # An interrupted certification campaign must refuse to certify:
        # unchecked scenarios are unfinished work, not passing checks.
        from repro.cert import certify

        retry = RetryPolicy(max_retries=2, backoff_base=0.0, jitter=0.0)
        chaos = ChaosConfig(kill_fraction=1.0, kill_after=0, respawn=False)
        interrupted = certify(
            theorems=["thm-5.5-global-skew"],
            budget=4,
            seed=0,
            shrink=False,
            manifest_path=str(tmp_path / "m.json"),
            executor=SweepExecutor(
                workers=2, retry=retry,
                backend=WorkQueueBackend(
                    tmp_path / "q", lease_ttl=1.0, chaos=chaos
                ),
            ),
        )
        assert interrupted.unfinished > 0
        assert not interrupted.complete
        assert "RESULT: INCOMPLETE" in interrupted.format_text()
        assert interrupted.as_dict()["unfinished"] == interrupted.unfinished

        resumed = certify(
            theorems=["thm-5.5-global-skew"],
            budget=4,
            seed=0,
            shrink=False,
            manifest_path=str(tmp_path / "m.json"),
            resume=True,
            executor=SweepExecutor(
                workers=2, retry=retry,
                backend=WorkQueueBackend(tmp_path / "q", lease_ttl=1.0),
            ),
        )
        assert resumed.complete
        assert resumed.unfinished == 0
        assert resumed.scenarios_run == 4
        assert "RESULT: CERTIFIED" in resumed.format_text()

    def test_metrics_count_attempts_and_retries(self):
        specs = _specs(2) + [_failing_spec()]
        retry = RetryPolicy(max_retries=1, backoff_base=0.0, jitter=0.0)
        executor = SweepExecutor(workers=1, backend="serial", retry=retry)
        outcomes = executor.run(specs)
        metrics = executor.last_metrics
        assert len(outcomes) == 3
        assert metrics.attempts == 4  # 1 + 1 + 2 (poison retried once)
        assert metrics.retries == 1
        assert metrics.failed == 1
        assert metrics.unfinished == 0


    def test_driver_death_resume_reexecutes_nothing(self, tmp_path):
        # The driver dies after the queue finished but before its manifest
        # recorded anything: resuming from the all-pending manifest must
        # serve every outcome from the queue's result store.
        specs = _specs(4)
        serial = SweepExecutor(workers=1, backend="serial").run(specs)
        path = tmp_path / "m.json"
        CampaignManifest.for_specs(specs, path=path).save()
        as_started = path.read_bytes()
        SweepExecutor(
            workers=2, backend=WorkQueueBackend(tmp_path / "q", lease_ttl=10.0),
        ).run(specs, manifest=CampaignManifest.load(path))

        attempts_dir = tmp_path / "q" / "attempts"

        def attempt_files():
            return {
                entry.name: (entry.read_bytes(), entry.stat().st_mtime_ns)
                for entry in attempts_dir.iterdir()
            }

        before = attempt_files()
        assert len(before) == len(specs)
        path.write_bytes(as_started)
        stale = CampaignManifest.load(path)
        assert stale.counts()["pending"] == len(specs)

        resumed = SweepExecutor(
            workers=2, backend=WorkQueueBackend(tmp_path / "q", lease_ttl=10.0),
        ).run(specs, manifest=stale)
        _assert_byte_identical(serial, resumed)
        assert attempt_files() == before
        assert CampaignManifest.load(path).counts()["done"] == len(specs)


# ---------------------------------------------------------------------------
# One failure semantics, every backend
# ---------------------------------------------------------------------------

BACKENDS = ["serial", "process-pool", "work-queue"]


def _executor(backend: str, tmp_path, retry: RetryPolicy) -> SweepExecutor:
    if backend == "work-queue":
        return SweepExecutor(
            workers=2, retry=retry,
            backend=WorkQueueBackend(tmp_path / "q", lease_ttl=1.0),
        )
    return SweepExecutor(
        workers=1 if backend == "serial" else 2, backend=backend, retry=retry
    )


class TestFailureSemantics:
    """A raise, a timeout and a dead worker fail a spec the same way
    on every backend: through ``run_with_retry`` and its policy."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_raising_spec_quarantined_after_budget(self, backend, tmp_path):
        specs = _specs(1) + [_failing_spec()]
        manifest = CampaignManifest.for_specs(specs)
        retry = RetryPolicy(max_retries=1, backoff_base=0.0, jitter=0.0)
        executor = _executor(backend, tmp_path, retry)
        outcomes = executor.run(specs, manifest=manifest)
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert outcomes[1].attempts == 2
        assert manifest.state(specs[1].digest()) == "quarantined"
        assert manifest.attempts(specs[1].digest()) == 2
        assert executor.last_metrics.retries == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_runaway_spec_times_out(self, backend, tmp_path):
        runaway = ExecutionSpec(
            line(9), AoptAlgorithm(PARAMS),
            TwoGroupDrift(0.05, list(range(4))), ConstantDelay(1.0),
            3000.0, label="runaway",
        )
        quick = _specs(1, horizon=5.0)[0]
        executor = _executor(
            backend, tmp_path, RetryPolicy(max_retries=0, timeout=0.05)
        )
        outcomes = executor.run([runaway, quick])
        assert not outcomes[0].ok
        assert "timed out" in outcomes[0].error
        assert executor.last_metrics.timeouts == 1
        serial = SweepExecutor(workers=1, backend="serial").run([quick])
        assert outcomes[1].ok
        assert pickle.dumps(outcomes[1].summary) == pickle.dumps(
            serial[0].summary
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("backend", ["process-pool", "work-queue"])
    def test_worker_death_charges_one_attempt(self, backend, tmp_path):
        from tests.test_parallel_equivalence import CrashingDelay

        specs = _specs(3)
        specs.insert(1, ExecutionSpec(
            line(4), AoptAlgorithm(PARAMS),
            TwoGroupDrift(0.05, [0, 1]), CrashingDelay(detonate_after=3),
            HORIZON, label="crasher",
        ))
        retry = RetryPolicy(max_retries=1, backoff_base=0.0, jitter=0.0)
        outcomes = _executor(backend, tmp_path, retry).run(specs)
        crasher = outcomes[1]
        assert not crasher.ok
        assert crasher.attempts == retry.attempts_allowed
        assert (
            f"worker process crashed (after {retry.attempts_allowed} attempts)"
            in crasher.error
        )
        healthy = outcomes[:1] + outcomes[2:]
        serial = SweepExecutor(workers=1, backend="serial").run(
            specs[:1] + specs[2:]
        )
        for s, o in zip(serial, healthy):
            assert o.ok
            assert pickle.dumps(s.summary) == pickle.dumps(o.summary)


# ---------------------------------------------------------------------------
# ResultCache corruption quarantine (satellite)
# ---------------------------------------------------------------------------


class TestCacheCorruptionQuarantine:
    def _summary(self):
        spec = _specs(1, horizon=5.0)[0]
        return spec.digest(), spec.run_summary()

    @pytest.mark.parametrize("payload", sorted(UNLOADABLE_PICKLES))
    def test_unloadable_entry_quarantined(self, tmp_path, payload):
        cache = ResultCache(tmp_path)
        digest, summary = self._summary()
        cache.put(digest, summary)
        path = cache.path_for(digest)
        path.write_bytes(UNLOADABLE_PICKLES[payload])
        assert cache.get(digest) is None
        assert (cache.hits, cache.misses, cache.corrupt) == (0, 0, 1)
        assert path.with_name(path.name + ".corrupt").exists()
        assert not path.exists()

    def test_truncated_entry_quarantined_not_reread(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest, summary = self._summary()
        cache.put(digest, summary)
        path = cache.path_for(digest)

        # Truncate the entry mid-pickle, as a crashed host would.
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])

        assert cache.get(digest) is None
        assert cache.corrupt == 1
        corrupt = path.with_name(path.name + ".corrupt")
        assert corrupt.exists()  # kept for post-mortem
        assert not path.exists()  # poisoned bytes never re-read

        # The next lookup is a clean miss, and a re-put heals the entry.
        assert cache.get(digest) is None
        assert cache.misses == 1
        assert cache.corrupt == 1
        cache.put(digest, summary)
        assert pickle.dumps(cache.get(digest)) == pickle.dumps(summary)

    def test_mismatched_digest_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest, summary = self._summary()
        cache.put(digest, summary)
        # Copy the valid entry under a different digest: content/key
        # mismatch must quarantine, not serve.
        other = "0" * len(digest)
        target = cache.path_for(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(cache.path_for(digest).read_bytes())
        assert cache.get(other) is None
        assert cache.corrupt == 1
        assert target.with_name(target.name + ".corrupt").exists()

    def test_put_survives_interruption_without_partial_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest, summary = self._summary()

        real_replace = os.replace

        def exploding_replace(src, dst, **kw):
            raise KeyboardInterrupt()

        os.replace = exploding_replace
        try:
            with pytest.raises(KeyboardInterrupt):
                cache.put(digest, summary)
        finally:
            os.replace = real_replace
        # Neither a visible entry nor a leaked temp file.
        assert cache.get(digest) is None
        assert cache.orphan_tmp_files() == []


# ---------------------------------------------------------------------------
# Pool interrupt hygiene (satellite)
# ---------------------------------------------------------------------------


class TestPoolInterrupt:
    def test_keyboard_interrupt_hard_terminates_pool(self, monkeypatch):
        specs = _specs(4)
        executor = SweepExecutor(workers=2)

        real_submit = ProcessPoolExecutor.submit
        submitted = []

        def interrupting_submit(pool, fn, *args, **kwargs):
            if submitted:
                raise KeyboardInterrupt()
            submitted.append(1)
            return real_submit(pool, fn, *args, **kwargs)

        terminated = []
        real_terminate = ProcessPoolBackend._terminate_pool

        def spying_terminate(pool):
            terminated.append(pool)
            real_terminate(pool)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", interrupting_submit)
        monkeypatch.setattr(
            ProcessPoolBackend, "_terminate_pool", staticmethod(spying_terminate)
        )

        with pytest.raises(KeyboardInterrupt):
            executor.run(specs)

        assert terminated, "interrupt must hard-terminate the pool"
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and multiprocessing.active_children():
            time.sleep(0.05)
        assert not multiprocessing.active_children(), (
            "worker processes must not outlive an interrupted sweep"
        )

    def test_interrupt_saves_manifest(self, tmp_path):
        # A campaign interrupted mid-dispatch keeps the records of the
        # specs that finished before the interrupt, on disk.
        class InterruptAfterOne(SerialBackend):
            def run(self, jobs, workers, retry, collect_metrics, metrics):
                yield from super().run(
                    jobs[:1], workers, retry, collect_metrics, metrics
                )
                raise KeyboardInterrupt()

        specs = _specs(3)
        path = tmp_path / "m.json"
        manifest = CampaignManifest.for_specs(specs, path=path)
        executor = SweepExecutor(workers=1, backend=InterruptAfterOne())
        with pytest.raises(KeyboardInterrupt):
            executor.run(specs, manifest=manifest)

        saved = CampaignManifest.load(path)
        assert saved.state(specs[0].digest()) == "done"
        assert saved.attempts(specs[0].digest()) == 1
        for spec in specs[1:]:
            assert saved.state(spec.digest()) == "pending"

    def test_manifest_saved_while_outcomes_arrive(self, tmp_path, monkeypatch):
        import repro.exec.pool as pool_module

        monkeypatch.setattr(pool_module, "MANIFEST_SAVE_SECONDS", 0.0)
        path = tmp_path / "m.json"
        on_disk = []

        class ReadBack(SerialBackend):
            def run(self, jobs, *args):
                for index, outcome in super().run(jobs, *args):
                    yield index, outcome
                    on_disk.append(CampaignManifest.load(path).counts()["done"])

        specs = _specs(3)
        SweepExecutor(backend=ReadBack()).run(
            specs, manifest=CampaignManifest.for_specs(specs, path=path)
        )
        assert on_disk == [1, 2, 3]
