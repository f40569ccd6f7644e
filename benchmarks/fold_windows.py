"""Time the exact skew fold alone at one network size, in both modes.

Drives a :class:`~repro.sim.monitors.StreamingSkewTracker` directly, with
no engine, the way the engine feeds it: ``NODES`` clocks on a line, each
on a random-walk hardware rate (``HORIZON / STEP`` rate segments), each
checkpointing once per time unit at staggered instants.  The window size
``16384 // NODES`` picks the tracker's evaluation path (numpy from
``VECTOR_MIN_INSTANTS`` instants, the per-instant methods below), so runs
at e.g. 1024 and 4096 nodes cover both paths.  Each mode's line prints
the path it took, ``path=numpy`` if it built a stacked kernel and
``path=per-instant`` if not.

The same checkpoints are also recorded on unpruned twin records over the
same hardware clocks and wrapped in an
:class:`~repro.sim.trace.ExecutionTrace`, whose ``global_skew`` (trace
mode's fold, in windows of the same size) is timed too, and then run
once more under ``tracemalloc`` for its allocation peak::

    PYTHONPATH=src python benchmarks/fold_windows.py 8192 --horizon 8 --step 0.04

Run it on two trees back to back to compare them; the printed skews must
agree bit for bit, and trace mode's global skew must equal the tracker's.
"""

from __future__ import annotations

import argparse
import time
import tracemalloc
from unittest import mock

from repro.sim import trace as trace_mod
from repro.sim.clock import HardwareClock
from repro.sim.drift import RandomWalkDrift
from repro.sim.monitors import StreamingSkewTracker
from repro.sim.trace import ExecutionTrace, LogicalClockRecord
from repro.topology.generators import line

__all__ = ["measure", "main"]


def _counting_stacks():
    """Patch that counts :class:`~repro.sim.trace._Stack` builds: the
    folds ran through numpy if it was called, else per instant."""
    build = trace_mod._Stack.__init__
    return mock.patch.object(
        trace_mod._Stack, "__init__", autospec=True, side_effect=build
    )


def _path(stacks) -> str:
    return "numpy" if stacks.called else "per-instant"


def measure(nodes: int, horizon: float, step: float) -> str:
    topology = line(nodes)
    drift = RandomWalkDrift(0.05, step, 0.01, seed=1)
    tracker = StreamingSkewTracker(topology.nodes, topology.edges(), horizon, prune=True)
    clocks, records, twins = [], [], []
    for i in range(nodes):
        hardware = HardwareClock(drift.rate_function(i, horizon), 0.0)
        clocks.append(hardware)
        record = LogicalClockRecord(hardware)
        records.append(record)
        twins.append(LogicalClockRecord(hardware))
        tracker.note_start(i, record, hardware)
    feed = sorted(
        (k + (i % 97) / 97.0 + 0.001, i)
        for k in range(1, int(horizon))
        for i in range(nodes)
    )
    with _counting_stacks() as streamed:
        started = time.perf_counter()
        for t, i in feed:
            tracker.advance(t)
            records[i].checkpoint(t, 1.0 + 0.01 * ((i + int(t)) % 5))
            tracker.note_checkpoint(i, t)
        tracker.finalize()
        wall = time.perf_counter() - started
    g, l = tracker.global_extremum(), tracker.local_extremum()

    for t, i in feed:
        twins[i].checkpoint(t, 1.0 + 0.01 * ((i + int(t)) % 5))
    nodes_list = list(topology.nodes)
    trace = ExecutionTrace(
        topology=topology,
        horizon=horizon,
        logical=dict(zip(nodes_list, twins)),
        hardware=dict(zip(nodes_list, clocks)),
        start_times={node: 0.0 for node in nodes_list},
        messages_sent={},
        messages_received={},
        bits_sent={},
    )
    with _counting_stacks() as folded:
        started = time.perf_counter()
        traced = trace.global_skew()
        trace_wall = time.perf_counter() - started
    tracemalloc.start()
    try:
        trace.global_skew()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (
        f"nodes={nodes} window={tracker.window_instants} path={_path(streamed)} "
        f"wall={wall:.2f}s "
        f"global={g.value!r}@{g.time!r} local={l.value!r}@{l.time!r} "
        f"final={tracker.final_spread!r}\n"
        f"trace global_skew path={_path(folded)} wall={trace_wall:.2f}s "
        f"peak={peak / 2**20:.1f}MiB global={traced.value!r}@{traced.time!r} "
        f"equal={traced == g}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("nodes", type=int)
    parser.add_argument("--horizon", type=float, default=8.0)
    parser.add_argument("--step", type=float, default=0.04)
    args = parser.parse_args()
    print(measure(args.nodes, args.horizon, args.step))


if __name__ == "__main__":
    main()
