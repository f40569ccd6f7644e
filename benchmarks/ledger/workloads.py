"""The four ledger workloads: inputs from a seed, one operation, output checks.

:func:`build` turns ``(name, seed, quick)`` into a :class:`Prepared`
workload.  Its ``run`` is the op the ledger times; ``evaluate`` turns
that op's output into an :class:`OpResult` outside the timed region: the
canonical sha256 of the output (the correctness gate compares it across
ops, against the seed-0 goldens and across modes), the simulated event
count, and the failures found.

Inputs are pure functions of the seed: topologies, drift and delay
models, fault and churn schedules, and the certification scenario
stream are all seeded, so the same seed rebuilds byte-identical specs in
any process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.cert import runner as cert_runner
from repro.cert.certificates import resolve_certificates
from repro.cert.fuzzer import sample_scenario
from repro.core.node import AoptAlgorithm
from repro.core.params import SyncParams
from repro.exec.cache import ResultCache
from repro.exec.pool import SweepExecutor
from repro.exec.spec import ExecutionSpec
from repro.faults.schedule import FaultSchedule
from repro.sim.delays import ConstantDelay, UniformDelay
from repro.sim.drift import RandomWalkDrift, TwoGroupDrift
from repro.topology.dynamic import TopologySchedule
from repro.topology.generators import grid, line
from repro.topology.properties import diameter as topology_diameter
from repro.variants.ftgcs import FtgcsAlgorithm, ftgcs_rejection_window

__all__ = ["WORKLOADS", "OpResult", "Prepared", "build"]

#: Timed ops of each workload in a ledger ``run``.  Why each workload is
#: in the matrix: ``BENCHMARK.json`` and ``README.md``.
WORKLOADS: Dict[str, int] = {
    "line-trace": 20,
    "line-stream": 10,
    "fault-mix": 10,
    "certify-campaign": 5,
}

_EPSILON = 0.05
_DELAY_BOUND = 1.0


@dataclass
class OpResult:
    """What one op produced: output identity, work done, failures."""

    sha: str
    events: int
    #: Units of work attempted inside the op (specs for the campaign).
    attempted: int = 1
    #: Attempted units that failed (run errors, violations, unfinished).
    failed: int = 0
    #: Wrong outputs: any entry makes the op fail the correctness gate.
    problems: List[str] = field(default_factory=list)
    #: Seconds the op timed itself (the campaign's cold and warm runs).
    phases: Dict[str, float] = field(default_factory=dict)
    #: Engine counters, present when the op ran with metrics collection.
    counters: Dict[str, int] = field(default_factory=dict)


@dataclass
class Prepared:
    """A built workload: inputs ready, ops not yet run."""

    #: One op; the argument turns on engine metrics (traced runs only).
    run: Callable[[bool], Any]
    #: Reduces one op's output to an :class:`OpResult` (not timed).
    evaluate: Callable[[Any], OpResult]
    #: sha256 over the spec digests the set-up computed.
    input_digest: str
    #: Checks run after the timed loop, given the first op's output sha.
    final_checks: Callable[[str], List[str]] = lambda sha: []
    #: Pool workers each op starts (0: the op runs in this process).
    workers: int = 0
    #: One op of the same workload at quick size: imports, pools and code
    #: paths warm up without paying for a full op.
    warm_up: Callable[[], None] = lambda: None


def _canonical(obj: Any) -> Any:
    """JSON-safe form in which floats are their round-trip ``repr``."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _canonical(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {repr(key): _canonical(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(value) for value in obj]
    if isinstance(obj, float):
        return repr(obj)
    return obj


def _canonical_sha(data: Any) -> str:
    """sha256 of ``data``'s canonical JSON (floats bit-exact)."""
    text = json.dumps(_canonical(data), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _summary_sha(summary) -> str:
    # spec_digest is an input (digested separately) and differs between
    # trace and streaming specs by design; run_metrics is present only in
    # traced runs.  Everything else must match bit for bit.
    return _canonical_sha(dataclasses.replace(summary, spec_digest="", run_metrics=None))


# -- single-execution workloads ---------------------------------------------


def _line_spec(seed: int, quick: bool, record_trace: bool) -> ExecutionSpec:
    nodes, horizon = (8, 60.0) if quick else (64, 600.0)
    if seed == 0:
        fast = list(range(nodes // 2))  # the perf-smoke split
    else:
        rng = random.Random(f"ledger:line:{seed}")
        fast = sorted(rng.sample(range(nodes), nodes // 2))
    params = SyncParams.recommended(epsilon=_EPSILON, delay_bound=_DELAY_BOUND)
    return ExecutionSpec(
        topology=line(nodes),
        algorithm=AoptAlgorithm(params),
        drift=TwoGroupDrift(_EPSILON, fast),
        delay=ConstantDelay(_DELAY_BOUND),
        horizon=horizon,
        seed=seed,
        params=params,
        record_trace=record_trace,
        label=f"line-{nodes}",
    )


def _fault_mix_spec(seed: int, quick: bool) -> ExecutionSpec:
    side, horizon = (3, 120.0) if quick else (8, 400.0)
    topology = grid(side, side)
    nodes = list(topology.nodes)
    params = SyncParams.recommended(epsilon=_EPSILON, delay_bound=_DELAY_BOUND)
    window = ftgcs_rejection_window(params, 2 * (side - 1))
    faults = FaultSchedule.random_crash_cycles(
        nodes[1:],
        0.005,
        10.0,
        horizon,
        start=40.0,
        seed=seed,
        drop_probability=0.02,
        duplicate_probability=0.01,
        spike_probability=0.02,
        spike_delay=0.5,
        byzantine_magnitude=6 * window,
    )
    for node in nodes[5::17]:
        faults.byzantine(node, at=30.0, until=200.0)
    churn = TopologySchedule.churn(
        topology.edges(), 0.004, 8.0, horizon, start=40.0, seed=seed
    )
    return ExecutionSpec(
        topology=topology,
        algorithm=FtgcsAlgorithm(params, window),
        drift=RandomWalkDrift(_EPSILON, 5.0, 0.02, seed=seed),
        delay=UniformDelay(0.0, _DELAY_BOUND, seed=seed),
        horizon=horizon,
        seed=seed,
        check_invariants=True,
        params=params,
        faults=faults,
        topology_schedule=churn,
        label=f"fault-mix-grid-{side}x{side}",
    )


def _certificate_failures(spec: ExecutionSpec, summary, diameter: int) -> List[str]:
    """The applicable execution certificates the summary violates."""
    faults = spec.faults
    has_faults = faults is not None and bool(
        faults.node_events or faults.link_events or faults.has_message_faults
    )
    has_byzantine = faults is not None and faults.has_byzantine
    schedule = spec.topology_schedule
    has_schedule = schedule is not None and not schedule.is_empty
    problems = []
    for certificate in resolve_certificates(None):
        if certificate.kind != "execution" or not certificate.applies_to(
            spec.algorithm.name, has_faults, has_schedule, has_byzantine
        ):
            continue
        verdict = certificate.check_summary(summary, spec.params, diameter)
        if not verdict.satisfied:
            problems.append(f"{certificate.name}: {verdict.detail}")
    return problems


def _single_run(spec: ExecutionSpec) -> Prepared:
    diameter = topology_diameter(spec.topology)

    def evaluate(summary) -> OpResult:
        problems = [f"monitor: {v}" for v in summary.monitor_violations]
        problems += _certificate_failures(spec, summary, diameter)
        counters = {}
        metrics = summary.run_metrics
        if metrics is not None:
            counters = {
                "events": metrics.events_processed,
                "queue_depth_hwm": metrics.queue_depth_hwm,
                "alarms_superseded": metrics.alarms_superseded,
                "breakpoints": metrics.total_breakpoints,
            }
        return OpResult(
            sha=_summary_sha(summary),
            events=summary.events_processed,
            failed=1 if problems else 0,
            problems=problems,
            counters=counters,
        )

    return Prepared(
        run=lambda collect_metrics: spec.run_summary(collect_metrics=collect_metrics),
        evaluate=evaluate,
        input_digest=hashlib.sha256(spec.digest().encode()).hexdigest(),
    )


def _line_stream(seed: int, quick: bool) -> Prepared:
    spec = _line_spec(seed, quick, record_trace=False)
    prepared = _single_run(spec)

    def parity(streamed_sha: str) -> List[str]:
        # Trace==streaming parity.  Runs after the timed loop, so the
        # trace-mode memory never shows in this workload's peak RSS.
        if _summary_sha(spec.with_record_trace(True).run_summary()) != streamed_sha:
            return ["trace and streaming summaries differ beyond spec_digest"]
        return []

    prepared.final_checks = parity
    return prepared


# -- the certification campaign -----------------------------------------------

#: The reference campaign: seed 0, 200 scenarios (8 in quick mode).
_REFERENCE_BUDGET = {False: 200, True: 8}


def _predicted_work(scenario) -> float:
    """Deliveries plus alarms the scenario will roughly process.

    Every node broadcasts to each neighbor once per ``H0`` of logical
    progress, so the event count grows as ``(2|E| + n) · horizon / H0``
    (correlation 0.97 with the measured count over 400 fuzzed scenarios).
    """
    topology = scenario.build_topology()
    edges = len(topology.edges())
    return (2 * edges + len(topology.nodes)) * scenario.horizon / scenario.build_params().h0


def _campaign_budget(seed: int, quick: bool) -> int:
    """Scenarios of the ``seed`` stream that add up to the reference's work.

    Fuzzed scenarios differ tenfold in cost, so a fixed count made the
    campaign's wall time vary about 10% from seed to seed.  Cutting each
    seed's stream at the predicted work of the seed-0 reference keeps
    the amount of simulation steady while the seed still changes every
    scenario; seed 0 itself runs exactly the reference budget.
    """
    reference = _REFERENCE_BUDGET[quick]
    target = sum(_predicted_work(sample_scenario(0, i)) for i in range(reference))
    total, budget = 0.0, 0
    while total < target:
        total += _predicted_work(sample_scenario(seed, budget))
        budget += 1
    return budget


def _campaign(seed: int, quick: bool, scratch: Path) -> Prepared:
    budget = _campaign_budget(seed, quick)
    workers = min(2, os.cpu_count() or 1)
    # A campaign digests every spec before its first dispatch; doing it
    # here puts that work in set-up time.
    digests = [sample_scenario(seed, i).build_spec().digest() for i in range(budget)]
    runs = [0]

    def run(collect_metrics: bool) -> Tuple[Path, Any, Any, Dict[str, float]]:
        cache_dir = scratch / f"cache-{runs[0]}"
        runs[0] += 1
        cache = ResultCache(cache_dir)
        executor = SweepExecutor(workers=workers, backend="process-pool", cache=cache)
        started = time.perf_counter()
        cold = cert_runner.certify(budget=budget, seed=seed, executor=executor)
        cold_s = time.perf_counter() - started
        warm = cert_runner.certify(budget=budget, seed=seed, executor=executor)
        warm_s = time.perf_counter() - started - cold_s
        return cache_dir, cold, warm, {"wall_s": cold_s, "warm_wall_s": warm_s}

    def evaluate(output) -> OpResult:
        cache_dir, cold, warm, phases = output
        cache = ResultCache(cache_dir)
        events = 0
        for digest in digests:
            summary = cache.get(digest)
            if summary is not None:
                events += summary.events_processed
        shutil.rmtree(cache_dir, ignore_errors=True)
        sha = _canonical_sha(_report_without_clock(cold))
        problems = []
        if _canonical_sha(_report_without_clock(warm)) != sha:
            problems.append("warm re-run report differs from the cold campaign")
        violations = sum(stat.violations for stat in cold.stats.values())
        return OpResult(
            sha=sha,
            events=events,
            attempted=budget,
            failed=len(cold.errors) + cold.unfinished + violations,
            problems=problems,
            phases=phases,
            counters={"events": events},
        )

    return Prepared(
        run=run,
        evaluate=evaluate,
        input_digest=hashlib.sha256("".join(digests).encode()).hexdigest(),
        workers=workers,
    )


def _report_without_clock(report) -> Dict[str, Any]:
    data = report.as_dict()
    data.pop("duration_seconds")
    return data


def build(name: str, seed: int, quick: bool, scratch: Path) -> Prepared:
    """Set up workload ``name`` for ``seed``; ops keep their files in ``scratch``."""
    prepared = _build(name, seed, quick, scratch)

    def warm_up() -> None:
        small = prepared if quick else _build(name, seed, True, scratch / "warm-up")
        small.evaluate(small.run(False))

    prepared.warm_up = warm_up
    return prepared


def _build(name: str, seed: int, quick: bool, scratch: Path) -> Prepared:
    if name == "line-trace":
        return _single_run(_line_spec(seed, quick, record_trace=True))
    if name == "line-stream":
        return _line_stream(seed, quick)
    if name == "fault-mix":
        return _single_run(_fault_mix_spec(seed, quick))
    if name == "certify-campaign":
        return _campaign(seed, quick, scratch)
    raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
