"""Run one ledger workload, check its outputs, and print its metrics.

The benchmark's entry point (``BENCHMARK.json`` ``command``)::

    python3 benchmarks/ledger/run.py --workload line-trace --seed 0 \\
        --seconds 25 --trace 0

It runs from a checkout with no build step: it puts the checkout root
and ``src/`` on ``sys.path``.

A run is split over ``WORKER_PROCESSES`` fresh worker processes, started
one after the other.  Each imports ``repro`` and builds the inputs (its
set-up time), runs one warm-up op of the same workload at quick size,
then a closed loop of timed ops back to back for its share of ``--ops``
or ``--seconds``.  Pooling the ops of several processes matters here:
the same op's speed differs by up to 8% between two processes (hash
seeds, memory layout), more than it drifts within one.  ``--trace 1`` makes each worker time some untraced
ops, then install the layer wrappers of :mod:`benchmarks.ledger.tracing`
and time traced ops; the run then reports per-layer metrics instead of
end-to-end ones and writes its spans under ``.ledger/``.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` (the ``BENCHMARK.json`` metrics of the chosen
mode).  ``--detail FILE`` also writes every sample, quartile and layer
figure there.  The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]

__all__ = [
    "ROOT",
    "SCRATCH",
    "CLOSURE_TOLERANCE",
    "bootstrap",
    "benchmark_config",
    "describe",
    "measure",
    "summarize",
    "main",
]

#: Untracked working files of ledger runs (caches, spans, outputs).
SCRATCH = ROOT / ".ledger"
#: Fresh processes a run is split over; also the set-up sample count.
WORKER_PROCESSES = 4
#: Share of a traced run spent on untraced ops (the overhead baseline).
UNTRACED_SHARE = 1 / 3
#: Largest tolerated gap between summed layer self times and op wall.
CLOSURE_TOLERANCE = 0.05
#: Seconds after which a run's unfinished worker is killed and the run fails.
RUN_DEADLINE = 170


def bootstrap() -> None:
    """Import from the checkout: its root (this package) and ``src``."""
    here = str(Path(__file__).resolve().parent)
    if sys.path and sys.path[0] == here:
        sys.path.pop(0)
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def benchmark_config() -> Dict[str, Any]:
    """The parsed ``BENCHMARK.json`` at the checkout root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def describe(values: List[float], unit: str) -> Dict[str, Any]:
    """Median with quartiles and sample count."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "unit": unit,
            "n": len(values), "q1": q1, "q3": q3}


# -- one worker's share of a run ----------------------------------------------


class _Loop:
    """The closed op loop of one process and everything it records."""

    def __init__(self, prepared):
        self.prepared = prepared
        self.reference = None  # the first op's result
        self.walls: List[float] = []
        self.warm_walls: List[float] = []
        self.units = [0, 0]  # attempted, failed
        self.layers: List[Dict[str, Any]] = []
        self.problems: List[str] = []
        self.ops = 0
        self.ops_failed = 0

    def one(self, tracer=None) -> None:
        """Run, time and check one op."""
        from benchmarks.ledger.workloads import OpResult

        prepared = self.prepared
        op_id = self.ops
        gc.collect()
        if tracer is not None:
            tracer.begin_op(op_id)
        started = time.perf_counter()
        try:
            if tracer is None:
                output = prepared.run(False)
            else:
                output = tracer.op_span("ledger", lambda: prepared.run(True))
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            wall = time.perf_counter() - started
            if tracer is not None:
                tracer.end_op()
            units = self.reference.attempted if self.reference else 1
            result = OpResult(sha="", events=0, attempted=units, failed=units)
            result.problems.append(f"op {op_id} raised:\n{traceback.format_exc()}")
        else:
            wall = time.perf_counter() - started
            layer_data = tracer.end_op() if tracer is not None else None
            result = prepared.evaluate(output)
            if layer_data is not None:
                self.layers.append(_op_layer_figures(
                    wall, layer_data[0], layer_data[1], tracer.batches, result.counters))
        if self.reference is None:
            self.reference = result
        elif result.sha != self.reference.sha or result.events != self.reference.events:
            result.problems.append(f"op {op_id} output differs from the first op")
        self.problems.extend(result.problems)
        self.ops += 1
        self.ops_failed += 1 if result.problems else 0
        self.units[0] += result.attempted
        self.units[1] += result.failed
        self.walls.append(result.phases.get("wall_s", wall))
        if "warm_wall_s" in result.phases:
            self.warm_walls.append(result.phases["warm_wall_s"])

    def timed(self, ops: Optional[int], seconds: Optional[float], tracer=None) -> None:
        """At least one timed op, then more while ``ops`` and ``seconds`` allow.

        Another op starts only while at least half an op (as long as the
        last one) of the time box remains, so the box is kept to within
        half an op either way however long the ops are.
        """
        started = time.perf_counter()
        count = 0
        while True:
            before = time.perf_counter()
            self.one(tracer)
            count += 1
            now = time.perf_counter()
            if ops is None and seconds is None:
                return
            if ops is not None and count >= ops:
                return
            if seconds is not None and now - started + (now - before) / 2 > seconds:
                return


#: Per-layer self-time shares: metric name → layer.
_SHARES = (
    ("core.self_frac", "core"),
    ("sim.engine.self_frac", "sim.engine"),
    ("sim.delays.self_frac", "sim.delays"),
    ("faults.self_frac", "faults"),
    ("topology.self_frac", "topology"),
    ("sim.monitors.fold_frac", "sim.monitors.fold"),
    ("sim.monitors.check_frac", "sim.monitors.check"),
    ("sim.trace.skew_eval_frac", "sim.trace"),
    ("exec.spec.digest_frac", "exec.spec.digest"),
    ("exec.spec.self_frac", "exec.spec"),
    ("exec.summary.self_frac", "exec.summary"),
    ("exec.cache.get_frac", "exec.cache.get"),
    ("exec.cache.put_frac", "exec.cache.put"),
    ("exec.pool.self_frac", "exec.pool"),
    ("cert.self_frac", "cert"),
    ("cert.generate_frac", "cert.generate"),
    ("cert.check_frac", "cert.check"),
    ("cert.construct_frac", "cert.construct"),
)
#: Per-layer call counts: metric name → layer.
_CALLS = (
    ("core.callbacks", "core"),
    ("sim.delays.calls", "sim.delays"),
    ("faults.calls", "faults"),
    ("topology.calls", "topology"),
    ("sim.clock.calls", "sim.clock"),
    ("sim.monitors.check_calls", "sim.monitors.check"),
    ("cert.checks", "cert.check"),
)
#: Engine counters (``RunMetrics``, or the campaign's summed events).
_COUNTERS = (
    ("sim.engine.events", "events"),
    ("sim.engine.queue_depth_hwm", "queue_depth_hwm"),
    ("sim.engine.alarms_superseded", "alarms_superseded"),
    ("sim.trace.breakpoints", "breakpoints"),
)


def _op_layer_figures(wall: float, self_s: Dict[str, float], calls: Dict[str, int],
                      batches: List[Any], counters: Dict[str, int]) -> Dict[str, list]:
    """One traced op's layer figures: name → [value, unit]."""
    figures: Dict[str, list] = {"trace.op_s": [wall, "s"]}
    for name, layer in _SHARES:
        figures[name] = [self_s.get(layer, 0.0) / wall, "ratio"]
    for name, layer in _CALLS:
        figures[name] = [calls.get(layer, 0), "count"]
    for name, key in _COUNTERS:
        figures[name] = [counters.get(key, 0), "count"]
    callbacks = calls.get("core", 0)
    figures["core.ctx_calls_per_callback"] = [
        calls.get("ctx", 0) / callbacks if callbacks else 0.0, "ratio"]
    figures["trace.closure_frac"] = [sum(self_s.values()) / wall, "ratio"]
    for layer, seconds in self_s.items():
        figures[f"{layer}.self_s"] = [seconds, "s"]
    batches = [b for b in batches if b is not None]
    lookups = sum(b.cache_hits + b.cache_misses + b.cache_corrupt for b in batches)
    hits = sum(b.cache_hits for b in batches)
    figures["exec.cache.hit_rate"] = [hits / lookups if lookups else 0.0, "ratio"]
    dispatched = [b for b in batches if b.executed]
    figures["exec.pool.batches"] = [len(dispatched), "count"]
    busy = sum(b.busy_seconds for b in dispatched)
    available = sum(b.wall_seconds * b.workers for b in dispatched)
    figures["exec.pool.utilization"] = [busy / available if available else 0.0, "ratio"]
    figures["exec.pool.idle_s"] = [available - busy, "s"]
    spec_seconds = sorted(s for b in dispatched for s in b.per_spec_seconds.values())
    if spec_seconds:
        figures["exec.pool.spec_s_p50"] = [spec_seconds[len(spec_seconds) // 2], "s"]
        figures["exec.pool.spec_s_p95"] = [
            spec_seconds[int(0.95 * (len(spec_seconds) - 1))], "s"]
    return figures


def measure(prepared, ops: Optional[int] = None, seconds: Optional[float] = None,
            trace: bool = False, final_checks: bool = True) -> Dict[str, Any]:
    """One process's share of a run: warm-up, timed ops, checks, raw samples."""
    from benchmarks.ledger import tracing

    loop = _Loop(prepared)
    try:
        prepared.warm_up()
    except Exception:  # noqa: BLE001 - reported like a failed op
        loop.problems.append(f"warm-up raised:\n{traceback.format_exc()}")
    share: Dict[str, Any] = {}
    if not trace:
        loop.timed(ops, seconds)
        share["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        share["children_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
    else:
        untraced_ops = None if ops is None else max(1, round(ops * UNTRACED_SHARE))
        untraced_s = None if seconds is None else seconds * UNTRACED_SHARE
        loop.timed(untraced_ops, untraced_s)
        share["untraced_walls"] = list(loop.walls)
        loop.walls.clear()
        group = tracing.CAMPAIGN_GROUP if prepared.workers else tracing.ENGINE_GROUP
        tracer = tracing.install(group)
        try:
            loop.timed(None if ops is None else max(1, ops - untraced_ops),
                       None if seconds is None else seconds - untraced_s, tracer)
        finally:
            tracer.uninstall()
        share["spans"] = tracer.spans
        share["layers"] = loop.layers
    if final_checks:
        loop.problems.extend(prepared.final_checks(loop.reference.sha))
    share.update({
        "input_digest": prepared.input_digest,
        "output_sha": loop.reference.sha,
        "events": loop.reference.events,
        "walls": loop.walls,
        "warm_walls": loop.warm_walls,
        "ops": loop.ops,
        "ops_failed": loop.ops_failed,
        "units_attempted": loop.units[0],
        "units_failed": loop.units[1],
        "problems": loop.problems,
    })
    return share


def _scratch_dir() -> Path:
    SCRATCH.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))


def _worker(args) -> Dict[str, Any]:
    """A worker process: set-up (timed), then :func:`measure`."""
    scratch = _scratch_dir()
    try:
        started = time.perf_counter()
        from benchmarks.ledger import workloads

        prepared = workloads.build(args.workload, args.seed, args.quick, scratch)
        setup_s = time.perf_counter() - started
        share = measure(prepared, args.ops, args.seconds, bool(args.trace),
                        final_checks=args.final_checks)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    share["setup_s"] = setup_s
    return share


# -- pooling the workers ------------------------------------------------------


def _run_workers(args) -> List[Dict[str, Any]]:
    """Each worker's share, from fresh processes started one after another."""
    deadline = time.monotonic() + RUN_DEADLINE
    shares = []
    for index in range(WORKER_PROCESSES):
        command = [sys.executable, str(Path(__file__).resolve()), "--worker",
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--trace", str(args.trace)]
        if args.ops is not None:
            ops = args.ops // WORKER_PROCESSES + (index < args.ops % WORKER_PROCESSES)
            command += ["--ops", str(max(1, ops))]
        if args.seconds is not None:
            command += ["--seconds", repr(args.seconds / WORKER_PROCESSES)]
        if args.quick:
            command.append("--quick")
        if index == 0:
            command.append("--final-checks")
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if done.returncode != 0:
            raise RuntimeError(f"worker {index} exited {done.returncode}:\n{done.stderr}")
        shares.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return shares


def summarize(name: str, seed: int, quick: bool, trace: bool,
              shares: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Pool the workers' samples into the run record: metrics and checks."""
    first = shares[0]
    problems = [p for share in shares for p in share["problems"]]
    for index, share in enumerate(shares[1:], 1):
        for key in ("input_digest", "output_sha", "events"):
            if share[key] != first[key]:
                problems.append(f"worker {index} {key} differs from worker 0")
    problems += _golden_mismatches(name, seed, quick, first)
    metrics: Dict[str, Dict[str, Any]] = {}
    walls = [w for share in shares for w in share["walls"]]
    if not trace:
        metrics["wall_s"] = describe(walls, "s")
        metrics["events_per_s"] = {"value": first["events"] / metrics["wall_s"]["value"],
                                   "unit": "events/s"}
        metrics["peak_rss_mb"] = describe([s["peak_rss_mb"] for s in shares], "MiB")
        warm = [w for share in shares for w in share["warm_walls"]]
        if warm:
            metrics["warm_wall_s"] = describe(warm, "s")
            metrics["children_peak_rss_mb"] = describe(
                [s["children_peak_rss_mb"] for s in shares], "MiB")
    else:
        pooled: Dict[str, List[float]] = {}
        units: Dict[str, str] = {}
        for share in shares:
            for op in share["layers"]:
                for figure, (value, unit) in op.items():
                    pooled.setdefault(figure, []).append(value)
                    units[figure] = unit
        metrics.update({figure: describe(values, units[figure])
                        for figure, values in pooled.items()})
        if pooled:
            untraced = statistics.median(w for s in shares for w in s["untraced_walls"])
            metrics["trace.overhead_frac"] = {
                "value": metrics["trace.op_s"]["value"] / untraced - 1, "unit": "ratio"}
            closure = metrics["trace.closure_frac"]["value"]
            if abs(closure - 1) > CLOSURE_TOLERANCE:
                problems.append(f"layer self times sum to {closure:.3f} of op wall")
    if all("setup_s" in s for s in shares):
        metrics["setup_s"] = describe([s["setup_s"] for s in shares], "s")
    attempted = sum(s["units_attempted"] for s in shares)
    failed = sum(s["units_failed"] for s in shares)
    metrics["failed_frac"] = {"value": failed / attempted if attempted else 1.0,
                              "unit": "ratio"}
    record = {
        "workload": name, "seed": seed, "quick": quick, "trace": trace,
        "input_digest": first["input_digest"],
        "output_sha": first["output_sha"],
        "events": first["events"],
        "correct": not problems,
        "problems": problems,
        "attempted": sum(s["ops"] for s in shares),
        "failed": sum(s["ops_failed"] for s in shares),
        "units_attempted": attempted,
        "units_failed": failed,
        "metrics": metrics,
        "samples": {"wall_s": walls},
    }
    if trace:
        SCRATCH.mkdir(exist_ok=True)
        spans_file = SCRATCH / f"spans-{name}-s{seed}.json"
        spans = [dict(span, worker=i) for i, s in enumerate(shares) for span in s["spans"]]
        spans_file.write_text(json.dumps(spans))
        record["spans_file"] = str(spans_file.relative_to(ROOT))
    return record


def _golden_mismatches(name: str, seed: int, quick: bool, share: Dict[str, Any]) -> List[str]:
    """Seed-0 full-size runs must reproduce the pinned digests."""
    if seed != 0 or quick:
        return []
    expected = json.loads((Path(__file__).parent / "golden.json").read_text()).get(name)
    if expected is None:
        return [f"no pinned digests for {name} in golden.json"]
    return [f"{key} differs from golden.json"
            for key in ("input_digest", "output_sha", "events")
            if share[key] != expected[key]]


def _print_report(record: Dict[str, Any], missing: List[str]) -> None:
    print(f"workload {record['workload']} seed {record['seed']}"
          f"{' quick' if record['quick'] else ''}{' traced' if record['trace'] else ''}: "
          f"{record['attempted']} ops, {record['failed']} failed, "
          f"{record['events']} events/op")
    for name, metric in sorted(record["metrics"].items()):
        spread = ""
        if "q1" in metric:
            spread = f"  (n={metric['n']}, q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g})"
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{spread}")
    for problem in record["problems"] + [f"metric {m} not measured" for m in missing]:
        print(f"  PROBLEM: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time box for the timed ops, over all workers")
    parser.add_argument("--ops", type=int, default=None,
                        help="timed op count, over all workers")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, for self-tests")
    parser.add_argument("--detail", type=Path, default=None,
                        help="also write the full run record (JSON) here")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--final-checks", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    bootstrap()
    if args.worker:
        print(json.dumps(_worker(args)))
        return 0

    from benchmarks.ledger import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    record = summarize(args.workload, args.seed, args.quick, bool(args.trace),
                       _run_workers(args))
    selected = benchmark_config()["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in selected if m["name"] not in record["metrics"]]
    _print_report(record, missing)
    if args.detail is not None:
        args.detail.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    correct = record["correct"] and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]]["value"],
                                "unit": m["unit"]}
                    for m in selected if m["name"] in record["metrics"]},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
