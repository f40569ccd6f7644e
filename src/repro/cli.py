"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``bounds``
    Print the paper's closed-form bounds for a parameter set and a range
    of diameters (Theorems 5.5, 5.10; lower bounds of Section 7).
``simulate``
    Run one algorithm on one topology under one adversary; print the
    measured skews next to the bounds.
``suite``
    Run the standard adversary suite (worst over six schedules).
``sweep``
    Run the adversary suite across a whole diameter grid through the
    parallel :class:`~repro.exec.pool.SweepExecutor`
    (``--workers auto`` uses every core; results are byte-identical to
    serial runs and cached on disk by spec digest unless ``--no-cache``).
    Failed or timed-out specs are reported (count + digest) instead of
    aborting the whole sweep.
``faults``
    Run a fault-injection scenario (``partition``/``crashes``/``flaky``)
    and report per-fault-epoch skews, message-loss accounting, and the
    time-to-resynchronize after the last fault clears (see
    ``docs/FAULTS.md``).  Exit 0 resynchronized, 1 not resynchronized
    within the horizon, 2 usage error.
``profile``
    Run the adversary suite serially with engine metrics enabled and
    rank hot specs and hot phases (see ``docs/OBSERVABILITY.md``).
``lint``
    Run the reprolint static-analysis pass (determinism & digest-safety
    rules R001–R005) over the given paths; exit 0 clean, 1 findings,
    2 usage error (see ``docs/LINT.md``).
``certify``
    Fuzz the theorem certificates (Theorems 5.5/5.10, the Corollary 5.3
    conditions, the Section 7 constructions) over seeded random
    scenarios, shrink any counterexample to a minimal repro artifact,
    and report margin-to-bound percentiles; ``--replay`` re-derives a
    stored artifact byte-for-byte and ``--differential`` cross-checks
    A^opt variants.  Exit 0 certified, 1 violation, 2 usage error (see
    ``docs/CERTIFICATION.md``).

``sweep --metrics json|table`` reports the batch's
:class:`~repro.obs.metrics.SweepMetrics` (cache hit-rate, per-spec wall
time, utilization, attempt/retry/timeout and lease-reclaim counters);
``sweep --cache-stats`` additionally surfaces on-disk cache state
including orphaned temp files.  ``faults --metrics json|table`` reports
the engine counters (:class:`~repro.obs.metrics.RunMetrics`) of its one
in-process run.

``sweep`` and ``certify`` are fault-tolerant campaigns: ``--backend
work-queue --queue-dir DIR`` drains specs through lease-arbitrated
work-queue workers (survives SIGKILL; multiple hosts can share DIR),
``--max-retries``/``--spec-timeout`` bound per-spec attempts, and
``--manifest PATH`` / ``--resume PATH`` record and resume campaign
progress (see ``docs/EXECUTION.md``).
``lower-bound global``
    Replay the Theorem 7.2 execution against A^opt.
``lower-bound local``
    Replay the Theorem 7.7 skew amplification against A^opt.

All output is plain text tables; exit code 0 means every applicable bound
was respected (``simulate``/``suite``) or the construction achieved its
target (``lower-bound``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.adversary.global_bound import run_global_lower_bound
from repro.adversary.local_bound import run_skew_amplification
from repro import algorithms
from repro.analysis.experiments import (
    run_adversary_suite,
    standard_adversaries,
    suite_specs,
)
from repro.analysis.tables import format_table
from repro.core.bounds import (
    global_skew_bound,
    global_skew_lower_bound,
    local_skew_bound,
    local_skew_lower_bound,
)
from repro.core.node import AoptAlgorithm
from repro.core.params import SyncParams
from repro.errors import ConfigurationError, TopologyError
from repro.sim.monitors import TOLERANCE
from repro.topology import generators
from repro.topology.properties import diameter as graph_diameter

__all__ = ["main", "build_parser"]


def _check_horizon(args) -> None:
    if args.horizon is not None and not args.horizon > 0:
        raise ConfigurationError(f"--horizon must be positive, got {args.horizon:g}")


def _build_topology(args) -> generators.Topology:
    try:
        return _generate_topology(args.topology, args.nodes, args.seed)
    except TopologyError as exc:
        raise ConfigurationError(f"--nodes {args.nodes}: {exc}") from exc


def _generate_topology(kind: str, n: int, seed: int) -> generators.Topology:
    if kind == "line":
        return generators.line(n)
    if kind == "ring":
        return generators.ring(n)
    if kind == "star":
        return generators.star(n)
    if kind == "complete":
        return generators.complete_graph(n)
    if kind == "grid":
        side = max(2, int(round(n ** 0.5)))
        return generators.grid(side, side)
    if kind == "torus":
        side = max(3, int(round(n ** 0.5)))
        return generators.torus(side, side)
    if kind == "tree":
        depth = max(1, n.bit_length() - 1)
        return generators.binary_tree(depth)
    if kind == "hypercube":
        dim = max(1, (n - 1).bit_length())
        return generators.hypercube(dim)
    if kind == "random":
        return generators.random_connected(n, 0.1, seed=seed)
    raise SystemExit(f"unknown topology {kind!r}")


def _build_params(args) -> SyncParams:
    return SyncParams.recommended(
        epsilon=args.epsilon,
        delay_bound=args.delay,
        epsilon_hat=getattr(args, "epsilon_hat", None),
        delay_bound_hat=getattr(args, "delay_hat", None),
        mu=getattr(args, "mu", None),
        h0=getattr(args, "h0", None),
    )


def _cmd_bounds(args) -> int:
    params = _build_params(args)
    rows = []
    for d in args.diameters:
        rows.append(
            [
                d,
                global_skew_bound(params, d),
                global_skew_lower_bound(d, params.delay_bound, params.epsilon),
                local_skew_bound(params, d),
                local_skew_lower_bound(
                    d, params.delay_bound, params.epsilon, params.alpha, params.beta
                ),
            ]
        )
    print(
        format_table(
            ["D", "global upper G", "global lower", "local upper", "local lower"],
            rows,
            title=(
                f"closed-form bounds: eps={params.epsilon} T={params.delay_bound} "
                f"mu={params.mu:.4f} kappa={params.kappa:.4f} sigma={params.sigma}"
            ),
        )
    )
    return 0


def _cmd_simulate(args) -> int:
    _check_horizon(args)
    params = _build_params(args)
    topology = _build_topology(args)
    d = graph_diameter(topology)
    algorithm = algorithms.build(args.algorithm, params, topology)
    cases = {
        case.name: case for case in standard_adversaries(topology, params, args.seed)
    }
    if args.adversary not in cases:
        raise SystemExit(
            f"unknown adversary {args.adversary!r}; choose from {sorted(cases)}"
        )
    case = cases[args.adversary]
    from repro.sim.runner import run_execution

    horizon = args.horizon
    trace = run_execution(topology, algorithm, case.drift, case.delay, horizon)
    global_extremum = trace.global_skew()
    local_extremum = trace.local_skew()
    rows = [
        ["global skew", global_extremum.value, global_skew_bound(params, d)],
        ["local skew", local_extremum.value, local_skew_bound(params, d)],
    ]
    print(
        format_table(
            ["metric", "measured", "A^opt bound"],
            rows,
            title=(
                f"{algorithm.name} on {topology.name} (D={d}), adversary "
                f"{case.name}, horizon {horizon}"
            ),
        )
    )
    print(f"messages: {trace.total_messages()}  events: {trace.events_processed}")
    within = _within_aopt_bounds(
        args.algorithm, params, d, global_extremum.value, local_extremum.value
    )
    return 0 if within else 1


def _within_aopt_bounds(algorithm_name, params, d, worst_global, worst_local) -> bool:
    """The exit-code gate: False only if A^opt broke Theorem 5.5 or 5.10.

    Variants with modified kappa (bit-budget) or adaptive kappa have
    their own bounds; the gate applies the plain Theorem 5.5/5.10 bounds
    only to the algorithms they govern directly (the ``bounded`` trait).
    """
    if algorithm_name not in algorithms.names("bounded"):
        return True
    return (
        worst_global <= global_skew_bound(params, d) + TOLERANCE
        and worst_local <= local_skew_bound(params, d) + TOLERANCE
    )


def _executor_options(args):
    """Resolve the shared ``--workers`` / ``--no-cache`` flags."""
    from repro.exec.cache import ResultCache
    from repro.exec.pool import resolve_workers

    workers = resolve_workers(getattr(args, "workers", 1))
    cache = None if getattr(args, "no_cache", False) else ResultCache()
    return workers, cache


def _retry_policy(args):
    """The :class:`RetryPolicy` for ``--max-retries``/``--spec-timeout``.

    Raises :class:`~repro.errors.ConfigurationError` on
    ``--max-retries < 0`` or ``--spec-timeout <= 0``.
    """
    from repro.exec.retry import RetryPolicy

    return RetryPolicy(max_retries=args.max_retries, timeout=args.spec_timeout)


def _campaign_options(args, workers):
    """Resolve ``--backend``/``--max-retries``/``--spec-timeout``/chaos flags.

    Returns ``(backend, retry)`` ready for :class:`SweepExecutor`.
    Raises :class:`~repro.errors.ConfigurationError` on bad values or
    combinations (e.g. ``--backend work-queue`` without ``--queue-dir``).
    """
    from repro.exec.backend import DEFAULT_LEASE_TTL, ChaosConfig, resolve_backend

    chaos = None
    kill = getattr(args, "chaos_kill", 0.0) or 0.0
    no_respawn = bool(getattr(args, "no_respawn", False))
    if kill > 0.0 or no_respawn:
        chaos = ChaosConfig(kill_fraction=kill, respawn=not no_respawn)
    backend = resolve_backend(
        getattr(args, "backend", None),
        queue_dir=getattr(args, "queue_dir", None),
        workers=workers,
        lease_ttl=(
            DEFAULT_LEASE_TTL if args.lease_ttl is None else args.lease_ttl
        ),
        chaos=chaos,
    )
    return backend, _retry_policy(args)


def _campaign_manifest(args, specs, meta):
    """Build or load the campaign manifest for ``--manifest``/``--resume``.

    ``--resume`` loads an existing manifest (warning when its digest set
    does not match the rebuilt campaign — typically a changed CLI flag);
    ``--manifest`` starts a fresh one.  Returns ``None`` when neither
    flag was given.
    """
    from repro.exec.manifest import CampaignManifest

    resume_path = getattr(args, "resume", None)
    if resume_path:
        manifest = CampaignManifest.load(resume_path)
        known = set(manifest.digests())
        digests = {spec.digest() for spec in specs}
        if digests != known:
            print(
                "warning: --resume manifest does not match this campaign "
                f"({len(digests - known)} new spec(s), "
                f"{len(known - digests)} no longer requested); "
                "check that the CLI flags match the original run",
                file=sys.stderr,
            )
        for spec in specs:
            manifest.ensure(spec.digest(), spec.label)
        return manifest
    manifest_path = getattr(args, "manifest", None)
    if manifest_path:
        manifest = CampaignManifest.for_specs(specs, meta=meta, path=manifest_path)
        manifest.save()
        return manifest
    return None


def _print_sweep_metrics(metrics, outcomes, fmt: str) -> None:
    """Print a :class:`~repro.obs.metrics.SweepMetrics` as JSON or tables."""
    if metrics is None:
        return
    if fmt == "json":
        print(metrics.to_json())
        return
    print(format_table(["metric", "value"], metrics.summary_rows(),
                       title="sweep metrics"))
    executed = [o for o in outcomes if not o.cached]
    if executed:
        rows = [
            [o.index, o.spec.label or o.spec.digest()[:12], f"{o.seconds:.4f}"]
            for o in sorted(executed, key=lambda o: -o.seconds)
        ]
        print(format_table(["#", "spec", "wall s"], rows,
                           title="per-spec wall time (executed specs)"))


def _cmd_suite(args) -> int:
    _check_horizon(args)
    params = _build_params(args)
    topology = _build_topology(args)
    d = graph_diameter(topology)
    algorithm_name = args.algorithm
    workers, cache = _executor_options(args)
    result = run_adversary_suite(
        topology,
        lambda: algorithms.build(algorithm_name, params, topology),
        params,
        horizon=args.horizon,
        workers=workers,
        cache=cache,
    )
    rows = [
        [name, case["global_skew"], case["local_skew"], int(case["messages"])]
        for name, case in sorted(result.per_case.items())
    ]
    print(
        format_table(
            ["adversary", "global skew", "local skew", "messages"],
            rows,
            title=f"{algorithm_name} on {topology.name} (D={d})",
        )
    )
    print(
        f"worst global: {result.worst_global:.4f} ({result.worst_global_case})  "
        f"bound G: {global_skew_bound(params, d):.4f}"
    )
    print(
        f"worst local:  {result.worst_local:.4f} ({result.worst_local_case})  "
        f"bound: {local_skew_bound(params, d):.4f}"
    )
    within = _within_aopt_bounds(
        algorithm_name, params, d, result.worst_global, result.worst_local
    )
    return 0 if within else 1


def _cmd_lower_global(args) -> int:
    params = _build_params(args)
    topology = _build_topology(args)
    if graph_diameter(topology) < 1:
        raise ConfigurationError(
            f"--nodes {args.nodes} gives {topology.name} of diameter 0; "
            "Theorem 7.2 needs diameter >= 1"
        )
    result = run_global_lower_bound(
        topology,
        AoptAlgorithm(params),
        args.epsilon,
        args.delay,
        delay_ratio=args.c1,
        epsilon_hat=params.epsilon_hat,
    )
    print(
        format_table(
            ["forced skew", "construction target", "paper sup", "rho", "t0"],
            [
                [
                    result.forced_skew,
                    result.predicted,
                    result.theoretical,
                    result.rho,
                    result.t0,
                ]
            ],
            title=f"Theorem 7.2 on {topology.name} (v0={result.v0}, far={result.v_far})",
        )
    )
    return 0 if result.forced_skew >= result.predicted * 0.999 else 1


def _cmd_lower_local(args) -> int:
    if args.base < 2 or args.nodes < args.base + 1:
        raise ConfigurationError(
            f"Theorem 7.7 needs --base >= 2 and --nodes >= base + 1, got "
            f"--base {args.base} --nodes {args.nodes}"
        )
    params = _build_params(args)
    result = run_skew_amplification(
        lambda: AoptAlgorithm(params),
        n=args.nodes,
        epsilon=args.epsilon,
        delay_bound=args.delay,
        base=args.base,
        verify_indistinguishability=args.verify,
    )
    rows = [
        [
            r.index,
            f"({r.v},{r.w})",
            r.distance,
            r.skew_before_shift,
            r.skew_after_shift,
            r.predicted,
        ]
        for r in result.rounds
    ]
    print(
        format_table(
            ["round", "pair", "d", "skew E", "skew shifted", "theorem"],
            rows,
            title=f"Theorem 7.7 amplification (n={args.nodes}, b={args.base})",
        )
    )
    last = result.rounds[-1]
    print(f"forced neighbor skew: {last.skew_after_shift:.4f}")
    return 0 if last.skew_after_shift >= (1 - args.epsilon) * args.delay - 1e-6 else 1


#: ``sweep`` builds one topology per requested diameter.
SWEEP_TOPOLOGIES = {
    "line": lambda d: generators.line(d + 1),
    "ring": lambda d: generators.ring(max(3, 2 * d)),
    "grid": lambda d: generators.grid(d // 2 + 1, d - d // 2 + 1),
}


def _cmd_sweep(args) -> int:
    import time

    from repro.exec.pool import SweepExecutor

    _check_horizon(args)
    if min(args.diameters) < 1:
        raise ConfigurationError(
            f"diameter must be >= 1, got {min(args.diameters)}"
        )
    params = _build_params(args)
    algorithm_name = args.algorithm
    workers, cache = _executor_options(args)
    build = SWEEP_TOPOLOGIES[args.topology]

    # Flatten every (diameter × adversary case) pair into one batch so
    # the pool stays saturated across the whole grid.
    batches = []  # (diameter, bound info, specs)
    all_specs = []
    for d in args.diameters:
        topology = build(d)
        actual_d = graph_diameter(topology)
        specs = suite_specs(
            topology,
            lambda: algorithms.build(algorithm_name, params, topology),
            params,
            horizon=args.horizon,
        )
        if getattr(args, "streaming", False):
            specs = [spec.with_record_trace(False) for spec in specs]
        if getattr(args, "churn", None) is not None:
            from repro.topology.dynamic import TopologySchedule

            # One deterministic flap schedule per spec, seeded by the
            # spec seed so reruns and cache hits line up; churn starts
            # after a quarter of the horizon to leave the initialization
            # flood intact.
            specs = [
                spec.with_topology_schedule(
                    TopologySchedule.churn(
                        topology.edges(),
                        args.churn,
                        args.churn_outage,
                        spec.horizon,
                        start=0.25 * spec.horizon,
                        seed=spec.seed,
                    )
                )
                for spec in specs
            ]
        batches.append((actual_d, specs))
        all_specs.extend(specs)

    from repro.errors import ReproError

    try:
        backend, retry = _campaign_options(args, workers)
        manifest = _campaign_manifest(
            args, all_specs,
            meta={
                "command": "sweep",
                "topology": args.topology,
                "algorithm": algorithm_name,
                "diameters": list(args.diameters),
                "churn": args.churn,
            },
        )
    except ReproError as exc:
        print(f"repro sweep: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    executor = SweepExecutor(
        workers=workers, cache=cache,
        collect_metrics=bool(args.metrics), backend=backend, retry=retry,
    )
    outcomes = executor.run(all_specs, manifest=manifest)
    elapsed = time.perf_counter() - started

    from repro.exec.summary import to_suite_result

    # Failed / quarantined / timed-out specs are surfaced instead of
    # aborting: the rest of the grid still reports, the failures are
    # listed by digest (stable across relabeling), and the exit code
    # flags the run.  An interrupted work-queue campaign may also leave
    # specs *unfinished* — reported separately, resumable via --resume.
    failed = [outcome for outcome in outcomes if not outcome.ok]
    by_index = {outcome.index: outcome for outcome in outcomes}
    unfinished = len(all_specs) - len(outcomes)

    rows, ok = [], not failed and not unfinished
    cursor = 0
    for actual_d, specs in batches:
        batch = [
            by_index[i]
            for i in range(cursor, cursor + len(specs))
            if i in by_index
        ]
        cursor += len(specs)
        result = to_suite_result(
            [outcome.summary for outcome in batch if outcome.ok]
        )
        g_bound = global_skew_bound(params, actual_d)
        l_bound = local_skew_bound(params, actual_d)
        rows.append(
            [
                actual_d,
                result.worst_global,
                g_bound,
                result.worst_local,
                l_bound,
                result.worst_global_case,
            ]
        )
        if args.churn is None:
            # Under churn the static skew theorems are vacuous (a
            # partition drifts past G unavoidably), so the bounds are
            # reported for context but do not gate the exit code.
            ok = ok and _within_aopt_bounds(
                algorithm_name, params, actual_d,
                result.worst_global, result.worst_local,
            )
    print(
        format_table(
            ["D", "worst global", "bound G", "worst local", "local bound",
             "worst case"],
            rows,
            title=(
                f"{algorithm_name} {args.topology} sweep, "
                f"{len(all_specs)} executions"
                + (
                    f" (churn rate {args.churn}, mean outage "
                    f"{args.churn_outage}; static bounds not gated)"
                    if args.churn is not None
                    else ""
                )
            ),
        )
    )
    cache_note = "off" if cache is None else str(cache.root)
    print(
        f"executions: {len(all_specs)}  workers: {workers}  "
        f"wall: {elapsed:.2f}s  cache: {cache_note}"
    )
    if args.metrics:
        _print_sweep_metrics(executor.last_metrics, outcomes, args.metrics)
    if args.cache_stats and cache is not None:
        stats = cache.stats()
        print(
            "cache stats: entries {entries}  orphan-tmp {orphan_tmp}  "
            "hits {hits}  misses {misses}  corrupt {corrupt}".format(**stats)
        )
        if stats["orphan_tmp"]:
            print(
                "  (orphaned *.tmp files come from workers killed "
                "mid-write; 'clear()' removes them)"
            )
    elif args.cache_stats:
        print("cache stats: cache disabled (--no-cache)")
    if failed:
        print(f"FAILED specs: {len(failed)} of {len(all_specs)}")
        for outcome in failed:
            label = outcome.spec.label or "(unlabeled)"
            print(
                f"  [{outcome.spec.digest()[:12]}] {label}: {outcome.error}"
            )
    if unfinished:
        where = (
            manifest.path
            if manifest is not None and manifest.path
            else "<manifest>"
        )
        print(
            f"INCOMPLETE campaign: {unfinished} of {len(all_specs)} specs "
            f"unfinished; resume with --resume {where}"
        )
    return 0 if ok else 1


FAULT_SCENARIOS = ["partition", "crashes", "flaky", "byzantine"]


def _halves_and_cut(topology):
    """Split the graph at the median BFS level from the first node.

    Returns ``(near, far, cut_edges)`` where ``cut_edges`` (each listed
    once) are exactly the edges between the halves — taking them down
    partitions the network.
    """
    from repro.topology.properties import bfs_distances

    distances = bfs_distances(topology, topology.nodes[0])
    median = sorted(distances.values())[len(topology.nodes) // 2]
    near = {node for node, dist in distances.items() if dist < median}
    if not near:  # degenerate (diameter 0/1): isolate the root instead
        near = {topology.nodes[0]}
    cut = [
        (u, v)
        for u in topology.nodes
        if u in near
        for v in topology.neighbors(u)
        if v not in near
    ]
    far = [node for node in topology.nodes if node not in near]
    return [node for node in topology.nodes if node in near], far, cut


def _fault_scenario(args, topology, params, horizon):
    """Build ``(schedule, drift, description)`` for a named scenario."""
    from repro.faults import FaultSchedule
    from repro.sim.drift import RandomWalkDrift, TwoGroupDrift

    start = args.fault_start if args.fault_start is not None else 0.25 * horizon
    duration = (
        args.fault_duration if args.fault_duration is not None else 0.3 * horizon
    )
    if args.scenario == "byzantine":
        from repro.topology.properties import diameter as topo_diameter
        from repro.variants.ftgcs import ftgcs_rejection_window

        # The ftgcs adversary (docs/FAULTS.md): Byzantine nodes from the
        # slow half lie *downward* at full filter-clearing magnitude while
        # tail-aligned two-group drift makes their honest victims need
        # the boost the lies suppress.  The corruption window closes at
        # start + duration, so time-to-resync measures the recovery.
        half = len(topology.nodes) // 2
        drift = TwoGroupDrift(params.epsilon, topology.nodes[half:])
        window = ftgcs_rejection_window(params, topo_diameter(topology))
        schedule = FaultSchedule(seed=args.seed, byzantine_magnitude=6.0 * window)
        count = max(1, min(args.byzantine_count, max(1, half - 1)))
        for node in topology.nodes[1 : 1 + count]:
            schedule.byzantine(node, at=start, until=start + duration)
        return schedule, drift, (
            f"byzantine: {count} corrupting node(s) on "
            f"[{start:g}, {start + duration:g}), magnitude {6.0 * window:.3g}"
        )
    if args.scenario == "partition":
        near, _far, cut = _halves_and_cut(topology)
        # The halves drift apart while separated — the worst case for a
        # partition, and the one Theorem 5.5 must re-bound after it heals.
        drift = TwoGroupDrift(params.epsilon, near)
        schedule = FaultSchedule(seed=args.seed).partition(
            cut, at=start, until=start + duration
        )
        return schedule, drift, (
            f"partition: {len(cut)} cut edges down on "
            f"[{start:g}, {start + duration:g})"
        )
    drift = RandomWalkDrift(
        params.epsilon, step_period=5 * params.h0, step_size=params.epsilon / 4,
        seed=args.seed,
    )
    if args.scenario == "crashes":
        schedule = FaultSchedule.random_crash_cycles(
            topology.nodes,
            crash_rate=args.crash_rate,
            mean_downtime=args.mean_downtime * params.h0,
            horizon=start + duration,
            start=start,
            seed=args.seed,
        )
        crashes = sum(1 for _, _, kind in schedule.node_events if kind == "crash")
        return schedule, drift, (
            f"crashes: {crashes} crash/recover cycles on "
            f"[{start:g}, {start + duration:g})"
        )
    if args.scenario == "flaky":
        schedule = FaultSchedule(
            drop_probability=args.drop,
            duplicate_probability=args.duplicate,
            spike_probability=args.spike,
            spike_delay=2 * params.delay_bound if args.spike > 0 else 0.0,
            seed=args.seed,
        )
        return schedule, drift, (
            f"flaky links: drop={args.drop} dup={args.duplicate} "
            f"spike={args.spike}"
        )
    raise SystemExit(f"unknown fault scenario {args.scenario!r}")


def _check_fault_flags(args) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` on a fault flag
    outside its domain, whichever scenario runs."""
    for flag, value, positive in (
        ("--horizon", args.horizon, True),
        ("--fault-start", args.fault_start, False),
        ("--fault-duration", args.fault_duration, False),
        ("--crash-rate", args.crash_rate, True),
    ):
        if value is not None and not (value > 0 if positive else value >= 0):
            need = "positive" if positive else "non-negative"
            raise ConfigurationError(f"{flag} must be {need}, got {value:g}")
    if not 0 <= args.drop < 1:
        raise ConfigurationError(f"--drop must be in [0, 1), got {args.drop:g}")


def _cmd_faults(args) -> int:
    from repro.errors import ReproError
    from repro.exec.spec import ExecutionSpec
    from repro.exec.summary import summarize_trace
    from repro.faults import loss_accounting, per_epoch_skew, time_to_resync
    from repro.sim.delays import ConstantDelay

    params = _build_params(args)
    topology = _build_topology(args)
    d = graph_diameter(topology)
    if args.byzantine:
        args.scenario = "byzantine"
    horizon = args.horizon if args.horizon is not None else 40 * d * params.delay_bound
    try:
        _check_fault_flags(args)
        schedule, drift, description = _fault_scenario(
            args, topology, params, horizon
        )
    except ReproError as exc:
        print(f"repro faults: {exc}", file=sys.stderr)
        return 2
    algorithm = algorithms.build(args.algorithm, params, topology)

    spec = ExecutionSpec(
        topology=topology,
        algorithm=algorithm,
        drift=drift,
        delay=ConstantDelay(params.delay_bound, max_delay=params.delay_bound),
        horizon=horizon,
        seed=args.seed,
        check_invariants=True,
        params=params,
        faults=schedule,
        label=f"faults:{args.scenario}:{args.algorithm}",
    )

    # One in-process run: the epoch/resync metrics need the trace, and the
    # summary is reduced from that same trace.
    trace, monitors = spec.run(collect_metrics=bool(args.metrics))
    summary = summarize_trace(
        trace, digest=spec.digest(), label=spec.label, monitors=monitors
    )

    g_bound = global_skew_bound(params, d)
    epoch_rows = [
        [f"[{e.start:g}, {e.end:g})", e.global_skew, e.local_skew]
        for e in per_epoch_skew(trace, schedule)
    ]
    print(
        format_table(
            ["fault epoch", "global skew", "local skew"],
            epoch_rows,
            title=(
                f"{algorithm.name} on {topology.name} (D={d}), {description}, "
                f"horizon {horizon:g}"
            ),
        )
    )
    losses = loss_accounting(trace)
    print(
        "messages: sent {sent}  delivered {delivered}  dropped {dropped}  "
        "lost-link {lost_link}  lost-crash {lost_crash}  "
        "duplicated {duplicated}".format(**losses)
    )
    # The tight drift+delay combination makes the steady-state spread brush
    # the bound G exactly, so resynchronization is judged against a hair of
    # relative slack to keep the metric well conditioned.  Probabilistic
    # message faults never clear, so the ``flaky`` scenario is judged
    # against the retry-stretched bound instead (expected effective delay
    # T/(1−p); see benchmarks/bench_message_loss.py) plus a 2κ allowance
    # for duplicate/spike noise.
    if args.scenario == "flaky":
        stretched = params.delay_bound / (1 - args.drop)
        resync_bound = (
            global_skew_bound(
                params.with_overrides(
                    delay_bound=stretched, delay_bound_hat=stretched
                ),
                d,
            )
            + 2 * params.kappa
        )
    else:
        resync_bound = g_bound * (1 + 1e-6)
    ttr = time_to_resync(trace, resync_bound, schedule=schedule)
    cleared = schedule.cleared_time()
    print(
        f"bound G (Theorem 5.5): {g_bound:.4f}  resync bound: "
        f"{resync_bound:.4f}  faults cleared at t={cleared:g}"
    )
    if ttr is None:
        print("time-to-resync: NOT resynchronized within the horizon")
    else:
        print(
            f"time-to-resync: {ttr:.4f} "
            f"(back within the resync bound at t={cleared + ttr:g})"
        )
    if summary.monitor_violations:
        print(f"monitor violations: {len(summary.monitor_violations)}")
        for violation in summary.monitor_violations[:5]:
            print(f"  {violation}")
    if args.metrics == "json":
        print(json.dumps(summary.run_metrics.as_dict(), indent=2, sort_keys=True))
    elif args.metrics:
        print(format_table(
            ["counter", "value"], summary.run_metrics.counter_rows(),
            title="engine counters",
        ))
    return 0 if ttr is not None else 1


def _cmd_profile(args) -> int:
    # Lazy import: repro.obs.profile pulls in the exec layer.
    from repro.errors import ReproError
    from repro.obs.profile import profile_specs

    try:
        retry = _retry_policy(args)
    except ReproError as exc:
        print(f"repro profile: {exc}", file=sys.stderr)
        return 2

    _check_horizon(args)
    params = _build_params(args)
    topology = _build_topology(args)
    d = graph_diameter(topology)
    algorithm_name = args.algorithm
    specs = suite_specs(
        topology,
        lambda: algorithms.build(algorithm_name, params, topology),
        params,
        horizon=args.horizon,
    )
    report = profile_specs(specs, retry=retry)
    if args.format == "json":
        import json

        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return 0
    rows = [
        [
            profile.label,
            f"{profile.seconds:.4f}",
            profile.metrics.events_processed,
            f"{profile.events_per_second:,.0f}",
        ]
        for profile in report.hot_specs(args.top)
    ]
    print(
        format_table(
            ["spec", "wall s", "events", "events/s"],
            rows,
            title=(
                f"hot specs: {algorithm_name} on {topology.name} (D={d}), "
                f"total {report.total_seconds:.3f}s"
            ),
        )
    )
    phase_rows = [
        [phase, f"{seconds:.4f}"]
        for phase, seconds in report.phase_totals().items()
    ]
    print(format_table(["phase", "wall s"], phase_rows, title="hot phases"))
    counter_rows = [
        [name, value] for name, value in sorted(report.counter_totals().items())
    ]
    print(format_table(["counter", "total"], counter_rows,
                       title="counter totals"))
    print(
        f"campaign: attempts {report.attempts}  retries {report.retries}  "
        f"timeouts {report.timeouts}"
    )
    return 0


def _cmd_lint(args) -> int:
    # Lazy import: the linter is pure stdlib but irrelevant to sim runs.
    import json
    import os

    from repro.errors import LintError
    from repro.lint import (
        DEFAULT_BASELINE_NAME,
        PROJECT_RULES,
        RULES,
        lint_paths,
        load_baseline,
        prune_baseline,
        write_baseline,
    )

    if args.list_rules:
        catalog = list(RULES.values()) + list(PROJECT_RULES.values())
        rows = [
            [rule.id, rule.summary]
            for rule in sorted(catalog, key=lambda rule: rule.id)
        ]
        print(format_table(["rule", "enforces"], rows, title="reprolint rules"))
        print("catalog with rationale and examples: docs/LINT.md")
        return 0

    if args.prune_baseline:
        if not os.path.exists(args.baseline):
            print(f"repro lint: baseline not found: {args.baseline}",
                  file=sys.stderr)
            return 2
        try:
            _, removed = prune_baseline(args.baseline, root=os.getcwd())
        except LintError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
        if removed:
            for entry in removed:
                print(f"pruned stale baseline entry: {entry.path} "
                      f"[{entry.rule}]")
        else:
            print("baseline is clean: no stale entries")
        return 0

    rules = None
    if args.rules:
        rules = [
            token.strip().upper()
            for token in args.rules.split(",")
            if token.strip()
        ]

    baseline = None
    if not args.no_baseline and not args.write_baseline:
        if os.path.exists(args.baseline):
            baseline = load_baseline(args.baseline)
        elif args.baseline != DEFAULT_BASELINE_NAME:
            print(f"repro lint: baseline not found: {args.baseline}",
                  file=sys.stderr)
            return 2

    try:
        report = lint_paths(
            args.paths,
            rules=rules,
            baseline=baseline,
            graph=args.graph,
            cache_path=args.cache,
        )
    except LintError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    if baseline is not None:
        for entry in baseline.stale_entries(os.getcwd()):
            print(
                f"repro lint: warning: baseline entry for missing file "
                f"{entry.path} [{entry.rule}]; run --prune-baseline",
                file=sys.stderr,
            )

    if args.write_baseline:
        written = write_baseline(args.baseline, report.findings)
        print(
            f"wrote {len(written.entries)} baseline entr"
            f"{'y' if len(written.entries) == 1 else 'ies'} "
            f"to {args.baseline}"
        )
        return 0

    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.format_text())
            if args.call_chain and finding.chain:
                for step in finding.format_chain():
                    print(step)
        print(report.summary_line())
        if args.cache:
            print(
                f"cache: {report.files_cached} file(s) warm, "
                f"{report.files_reanalyzed} reanalyzed"
            )
    return 0 if report.ok else 1


def _cmd_certify(args) -> int:
    # Lazy import: the certification stack pulls in the whole exec layer.
    import json

    from repro.cert import (
        CERTIFICATES,
        ReproArtifact,
        certify,
        differential_certify,
        replay_artifact,
    )
    from repro.errors import ReproError
    from repro.exec.pool import SweepExecutor

    if args.list_certificates:
        rows = [
            [cert.name, cert.kind, cert.theorem, cert.claim]
            for cert in CERTIFICATES.values()
        ]
        print(format_table(["certificate", "kind", "theorem", "claim"], rows,
                           title="certificate catalog"))
        print("catalog with formulas and predicates: docs/CERTIFICATION.md")
        return 0

    if args.budget < 1:
        print("repro certify: --budget must be >= 1", file=sys.stderr)
        return 2

    workers, cache = _executor_options(args)
    try:
        backend, retry = _campaign_options(args, workers)
    except ReproError as exc:
        print(f"repro certify: {exc}", file=sys.stderr)
        return 2
    executor = SweepExecutor(
        workers=workers, cache=cache, backend=backend, retry=retry
    )

    try:
        if args.replay is not None:
            try:
                artifact = ReproArtifact.load(args.replay)
            except (OSError, ValueError, KeyError) as exc:
                print(f"repro certify: cannot load artifact {args.replay!r}: "
                      f"{exc}", file=sys.stderr)
                return 2
            result = replay_artifact(artifact)
            if args.format == "json":
                print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
            else:
                print(result.summary_line())
            # A replayed artifact *demonstrates* a violation: reproducing it
            # is the expected, "successful" outcome and still exits 1 —
            # the build it ran against is in violation.
            return 1 if result.reproduced else (0 if result.verdict.satisfied else 1)

        if args.differential:
            diff = differential_certify(
                budget=args.budget, seed=args.seed, executor=executor,
                byzantine=args.byzantine,
            )
            if args.format == "json":
                print(json.dumps(diff.as_dict(), indent=2, sort_keys=True))
            else:
                print(diff.format_text())
            return 0 if diff.agree else 1

        report = certify(
            theorems=args.theorems,
            budget=args.budget,
            budget_seconds=args.budget_seconds,
            seed=args.seed,
            algorithm=args.algorithm,
            include_faults=not args.no_faults,
            include_churn=args.churn,
            include_byzantine=args.byzantine,
            shrink=not args.no_shrink,
            artifact_dir=args.artifact_dir,
            executor=executor,
            manifest_path=args.resume or args.manifest,
            resume=bool(args.resume),
        )
    except ReproError as exc:
        print(f"repro certify: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.format_text())
    return 0 if report.clean and report.complete else 1


def _cmd_report(args) -> int:
    from repro.analysis.report import generate_report

    workers, cache = _executor_options(args)
    text = generate_report(
        epsilon=args.epsilon, delay_bound=args.delay, quick=not args.full,
        workers=workers, cache=cache,
    )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    algorithm_choices = algorithms.names("cli")
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Tight Bounds for Clock Synchronization' "
        "(Lenzen, Locher, Wattenhofer; PODC'09/JACM'10)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_model_arguments(p, include_knowledge=False):
        p.add_argument("--epsilon", type=float, default=0.05,
                       help="maximum hardware drift (default 0.05)")
        p.add_argument("--delay", type=float, default=1.0,
                       help="delay uncertainty T (default 1.0)")
        p.add_argument("--mu", type=float, default=None,
                       help="rate boost mu (default: 14*eps/(1-eps))")
        p.add_argument("--h0", type=float, default=None,
                       help="send period H0 (default: T_hat/mu)")
        if include_knowledge:
            p.add_argument("--epsilon-hat", dest="epsilon_hat", type=float,
                           default=None, help="known drift bound (default exact)")
            p.add_argument("--delay-hat", dest="delay_hat", type=float,
                           default=None, help="known delay bound (default exact)")

    def add_topology_arguments(p):
        p.add_argument("--topology", default="line",
                       choices=["line", "ring", "star", "complete", "grid",
                                "torus", "tree", "hypercube", "random"])
        p.add_argument("--nodes", type=int, default=16)
        p.add_argument("--seed", type=int, default=0)

    def workers_argument(value):
        if value != "auto":
            try:
                count = int(value)
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"expected a positive integer or 'auto', got {value!r}"
                )
            if count < 1:
                raise argparse.ArgumentTypeError(
                    f"expected a positive integer or 'auto', got {value!r}"
                )
        return value

    def add_executor_arguments(p):
        p.add_argument("--workers", default="1", metavar="N|auto",
                       type=workers_argument,
                       help="parallel worker processes (default 1 = serial; "
                            "'auto' = CPU count); results are byte-identical "
                            "either way")
        p.add_argument("--no-cache", dest="no_cache", action="store_true",
                       help="bypass the on-disk result cache "
                            "(default: $REPRO_CACHE_DIR or ~/.cache/repro-sweeps)")

    def add_metrics_argument(p):
        p.add_argument("--metrics", choices=["json", "table"], default=None,
                       help="collect engine/sweep metrics and report them "
                            "in the given format (see docs/OBSERVABILITY.md)")

    def add_retry_arguments(p):
        p.add_argument("--max-retries", dest="max_retries", type=int,
                       default=0, metavar="N",
                       help="re-run a failed spec up to N times with "
                            "deterministic exponential backoff before "
                            "quarantining it (default 0 = fail fast)")
        p.add_argument("--spec-timeout", dest="spec_timeout", type=float,
                       default=None, metavar="SECONDS",
                       help="per-attempt wall-clock budget; an attempt that "
                            "exceeds it counts as a failure (and hence "
                            "against --max-retries)")

    def add_campaign_arguments(p):
        add_retry_arguments(p)
        p.add_argument("--backend",
                       choices=["auto", "serial", "process-pool", "work-queue"],
                       default=None,
                       help="execution backend (default auto: serial at "
                            "--workers 1, process pool otherwise; work-queue "
                            "needs --queue-dir; see docs/EXECUTION.md)")
        p.add_argument("--queue-dir", dest="queue_dir", default=None,
                       metavar="DIR",
                       help="work-queue directory (shared filesystem) for "
                            "--backend work-queue; multiple hosts pointing "
                            "at the same DIR drain one campaign")
        p.add_argument("--lease-ttl", dest="lease_ttl", type=float,
                       default=None, metavar="SECONDS",
                       help="work-queue lease time-to-live; leases idle "
                            "longer than this are reclaimed from dead "
                            "workers (default 5)")
        p.add_argument("--manifest", default=None, metavar="PATH",
                       help="write a resumable campaign manifest (canonical "
                            "JSON progress record) to PATH")
        p.add_argument("--resume", default=None, metavar="PATH",
                       help="resume the campaign recorded in an existing "
                            "manifest: done specs replay from cache, "
                            "quarantined specs are skipped")
        p.add_argument("--chaos-kill", dest="chaos_kill", type=float,
                       default=0.0, metavar="FRACTION",
                       help="fault-injection harness: SIGKILL this fraction "
                            "of work-queue workers mid-campaign (testing "
                            "only)")
        p.add_argument("--no-respawn", dest="no_respawn", action="store_true",
                       help="with --chaos-kill: do not respawn killed "
                            "workers, leaving the campaign incomplete "
                            "(exercises --resume)")

    bounds_parser = subparsers.add_parser(
        "bounds", help="print the closed-form bounds"
    )
    add_model_arguments(bounds_parser, include_knowledge=True)
    bounds_parser.add_argument(
        "--diameters", type=int, nargs="+", default=[4, 8, 16, 32, 64, 128]
    )
    bounds_parser.set_defaults(handler=_cmd_bounds)

    simulate_parser = subparsers.add_parser(
        "simulate", help="run one algorithm under one adversary"
    )
    add_model_arguments(simulate_parser, include_knowledge=True)
    add_topology_arguments(simulate_parser)
    simulate_parser.add_argument(
        "--algorithm", default="aopt", choices=algorithm_choices
    )
    simulate_parser.add_argument("--adversary", default="two-group-drift")
    simulate_parser.add_argument("--horizon", type=float, default=300.0)
    simulate_parser.set_defaults(handler=_cmd_simulate)

    suite_parser = subparsers.add_parser(
        "suite", help="run the standard adversary suite"
    )
    add_model_arguments(suite_parser, include_knowledge=True)
    add_topology_arguments(suite_parser)
    suite_parser.add_argument(
        "--algorithm", default="aopt", choices=algorithm_choices
    )
    suite_parser.add_argument("--horizon", type=float, default=None)
    add_executor_arguments(suite_parser)
    suite_parser.set_defaults(handler=_cmd_suite)

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run the adversary suite over a diameter grid, in parallel",
    )
    add_model_arguments(sweep_parser, include_knowledge=True)
    sweep_parser.add_argument(
        "--topology", default="line", choices=sorted(SWEEP_TOPOLOGIES),
        help="topology family; one instance is built per diameter"
    )
    sweep_parser.add_argument(
        "--diameters", type=int, nargs="+", default=[4, 8, 16, 32],
        help="target diameters to sweep (default: 4 8 16 32)"
    )
    sweep_parser.add_argument(
        "--algorithm", default="aopt", choices=algorithm_choices
    )
    sweep_parser.add_argument("--horizon", type=float, default=None)
    add_executor_arguments(sweep_parser)
    add_campaign_arguments(sweep_parser)
    add_metrics_argument(sweep_parser)
    sweep_parser.add_argument(
        "--cache-stats", dest="cache_stats", action="store_true",
        help="report on-disk cache state (entries, orphaned temp files, "
             "hit/miss/corrupt counts) after the sweep"
    )
    sweep_parser.add_argument(
        "--streaming", action="store_true",
        help="run with record_trace=False: fold exact skews in O(nodes) "
             "memory instead of materializing full traces (bit-identical "
             "extrema; separate cache namespace)"
    )
    sweep_parser.add_argument(
        "--churn", type=float, default=None, metavar="RATE",
        help="overlay a deterministic edge-churn TopologySchedule: each "
             "edge flaps with present-times ~ Exp(RATE) (see "
             "docs/DYNAMIC.md); disables the static-bound pass/fail gate, "
             "since the skew theorems assume a static graph"
    )
    sweep_parser.add_argument(
        "--churn-outage", dest="churn_outage", type=float, default=5.0,
        metavar="MEAN",
        help="mean outage duration for --churn flaps (default: 5.0)"
    )
    sweep_parser.set_defaults(handler=_cmd_sweep)

    faults_parser = subparsers.add_parser(
        "faults",
        help="run a fault-injection scenario and report recovery metrics",
    )
    add_model_arguments(faults_parser, include_knowledge=True)
    add_topology_arguments(faults_parser)
    faults_parser.add_argument(
        "--algorithm", default="aopt-ft", choices=algorithm_choices,
        help="algorithm under test (default: the recovery-aware aopt-ft)"
    )
    faults_parser.add_argument(
        "--scenario", default="partition", choices=FAULT_SCENARIOS,
        help="partition: median cut goes down; crashes: random "
             "crash/recover cycles; flaky: per-message drop/dup/spike; "
             "byzantine: nodes corrupt their outgoing estimates"
    )
    faults_parser.add_argument("--horizon", type=float, default=None,
                               help="real-time horizon (default: 40*D*T)")
    faults_parser.add_argument(
        "--fault-start", dest="fault_start", type=float, default=None,
        help="first fault time (default: 25%% of the horizon, leaving the "
             "initialization flood intact)"
    )
    faults_parser.add_argument(
        "--fault-duration", dest="fault_duration", type=float, default=None,
        help="fault window length (default: 30%% of the horizon)"
    )
    faults_parser.add_argument("--crash-rate", dest="crash_rate", type=float,
                               default=0.01,
                               help="crashes: per-node crash rate (1/time)")
    faults_parser.add_argument("--mean-downtime", dest="mean_downtime",
                               type=float, default=6.0,
                               help="crashes: mean downtime in units of H0")
    faults_parser.add_argument("--drop", type=float, default=0.2,
                               help="flaky: per-message drop probability")
    faults_parser.add_argument("--duplicate", type=float, default=0.05,
                               help="flaky: per-message duplicate probability")
    faults_parser.add_argument("--spike", type=float, default=0.05,
                               help="flaky: per-message delay-spike "
                                    "probability (spike adds 2T)")
    faults_parser.add_argument(
        "--byzantine", action="store_true",
        help="shorthand for --scenario byzantine"
    )
    faults_parser.add_argument(
        "--byzantine-count", dest="byzantine_count", type=int, default=1,
        help="byzantine: number of corrupting nodes (default: 1)"
    )
    add_metrics_argument(faults_parser)
    faults_parser.set_defaults(handler=_cmd_faults)

    profile_parser = subparsers.add_parser(
        "profile",
        help="rank hot specs and hot phases of the adversary suite",
    )
    add_model_arguments(profile_parser, include_knowledge=True)
    add_topology_arguments(profile_parser)
    profile_parser.add_argument(
        "--algorithm", default="aopt", choices=algorithm_choices
    )
    profile_parser.add_argument("--horizon", type=float, default=None)
    profile_parser.add_argument(
        "--top", type=int, default=0,
        help="show only the N slowest specs (default: all)"
    )
    profile_parser.add_argument(
        "--format", choices=["json", "table"], default="table"
    )
    add_retry_arguments(profile_parser)
    profile_parser.set_defaults(handler=_cmd_profile)

    lower_parser = subparsers.add_parser(
        "lower-bound", help="replay a Section 7 lower-bound construction"
    )
    lower_subparsers = lower_parser.add_subparsers(dest="which", required=True)

    lower_global = lower_subparsers.add_parser("global", help="Theorem 7.2")
    add_model_arguments(lower_global, include_knowledge=True)
    add_topology_arguments(lower_global)
    lower_global.add_argument("--c1", type=float, default=1.0,
                              help="delay knowledge accuracy T/T_hat")
    lower_global.set_defaults(handler=_cmd_lower_global)

    lower_local = lower_subparsers.add_parser("local", help="Theorem 7.7")
    add_model_arguments(lower_local)
    lower_local.add_argument("--nodes", type=int, default=17)
    lower_local.add_argument("--base", type=int, default=4)
    lower_local.add_argument("--verify", action="store_true",
                             help="verify indistinguishability (slower)")
    lower_local.set_defaults(handler=_cmd_lower_local)

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the reprolint determinism/digest-safety checks "
             "(see docs/LINT.md)",
    )
    lint_parser.add_argument(
        "paths", nargs="*", default=["src", "benchmarks"],
        help="files/directories to lint (default: src benchmarks)"
    )
    lint_parser.add_argument(
        "--format", choices=["text", "json"], default="text"
    )
    lint_parser.add_argument(
        "--rules", default=None, metavar="R001,R003",
        help="comma-separated rule subset (default: all rules)"
    )
    lint_parser.add_argument(
        "--baseline", default=".reprolint-baseline.json",
        help="committed baseline of accepted (path, rule) findings"
    )
    lint_parser.add_argument(
        "--no-baseline", dest="no_baseline", action="store_true",
        help="ignore the baseline file and report everything"
    )
    lint_parser.add_argument(
        "--write-baseline", dest="write_baseline", action="store_true",
        help="accept all current findings into the baseline file"
    )
    lint_parser.add_argument(
        "--list-rules", dest="list_rules", action="store_true",
        help="print the rule catalog and exit"
    )
    lint_parser.add_argument(
        "--graph", dest="graph", action="store_true", default=True,
        help="run the whole-program pass (call graph + R006/R009); "
             "the default"
    )
    lint_parser.add_argument(
        "--no-graph", dest="graph", action="store_false",
        help="single-file rules only; skip the whole-program pass"
    )
    lint_parser.add_argument(
        "--call-chain", dest="call_chain", action="store_true",
        help="with --format text, print the full source→sink call "
             "chain under each interprocedural finding"
    )
    lint_parser.add_argument(
        "--cache", default=None, metavar="PATH",
        help="incremental cache file (sha256-keyed per-file results; "
             "output is byte-identical with or without it)"
    )
    lint_parser.add_argument(
        "--prune-baseline", dest="prune_baseline", action="store_true",
        help="drop baseline entries whose files no longer exist, "
             "then exit"
    )
    lint_parser.set_defaults(handler=_cmd_lint)

    certify_parser = subparsers.add_parser(
        "certify",
        help="fuzz the theorem certificates, shrink any counterexample "
             "(see docs/CERTIFICATION.md)",
    )
    certify_parser.add_argument(
        "--theorems", nargs="+", default=None, metavar="CERT",
        help="certificate subset by name (default: the full catalog; "
             "--list prints it)"
    )
    certify_parser.add_argument(
        "--list", dest="list_certificates", action="store_true",
        help="print the certificate catalog and exit"
    )
    certify_parser.add_argument(
        "--budget", type=int, default=50,
        help="number of fuzzed scenarios (default 50)"
    )
    certify_parser.add_argument(
        "--budget-seconds", dest="budget_seconds", type=float, default=None,
        help="wall-time cap; stops dispatching new scenarios once exceeded"
    )
    certify_parser.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed: same seed, same scenario stream (default 0)"
    )
    certify_parser.add_argument(
        "--algorithm", default="aopt",
        choices=algorithms.names("certifiable"),
        help="variant to certify (%s are the planted-violation controls)"
             % ", ".join(algorithms.names("planted"))
    )
    certify_parser.add_argument(
        "--no-faults", dest="no_faults", action="store_true",
        help="fuzz only faultless scenarios"
    )
    certify_parser.add_argument(
        "--churn", action="store_true",
        help="fuzz partition-then-merge dynamic-topology scenarios; "
             "this is what arms the kllo-stabilization certificate "
             "(see docs/DYNAMIC.md)"
    )
    certify_parser.add_argument(
        "--byzantine", action="store_true",
        help="fuzz Byzantine corruption scenarios; this is what arms the "
             "ftgcs-byzantine-skew certificate, and with --differential "
             "scores the per-variant survival matrix (see docs/FAULTS.md)"
    )
    certify_parser.add_argument(
        "--no-shrink", dest="no_shrink", action="store_true",
        help="report violations without minimizing them"
    )
    certify_parser.add_argument(
        "--artifact-dir", dest="artifact_dir", default=None,
        help="write a repro artifact per violated certificate here"
    )
    certify_parser.add_argument(
        "--replay", metavar="ARTIFACT", default=None,
        help="replay a repro artifact instead of fuzzing; exit 1 when the "
             "recorded violation reproduces byte-for-byte"
    )
    certify_parser.add_argument(
        "--differential", action="store_true",
        help="cross-variant certification: aopt vs aopt-jump vs aopt-ft "
             "must agree on every certificate (with --byzantine: aopt vs "
             "aopt-ft vs ftgcs, asymmetric survival expected)"
    )
    certify_parser.add_argument(
        "--format", choices=["text", "json"], default="text"
    )
    add_executor_arguments(certify_parser)
    add_campaign_arguments(certify_parser)
    certify_parser.set_defaults(handler=_cmd_certify)

    report_parser = subparsers.add_parser(
        "report", help="run a compact experiment subset and emit a markdown report"
    )
    report_parser.add_argument("--epsilon", type=float, default=0.05)
    report_parser.add_argument("--delay", type=float, default=1.0)
    report_parser.add_argument("--full", action="store_true",
                               help="larger sweeps (slower)")
    report_parser.add_argument("--output", default=None,
                               help="write to a file instead of stdout")
    add_executor_arguments(report_parser)
    report_parser.set_defaults(handler=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        # A flag value the model rejects is a usage error, as in `faults`.
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
