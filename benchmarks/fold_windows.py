"""Time the streaming skew fold alone at one network size.

Drives a :class:`~repro.sim.monitors.StreamingSkewTracker` directly, with
no engine, the way the engine feeds it: ``NODES`` clocks on a line, each
on a random-walk hardware rate (``HORIZON / STEP`` rate segments), each
checkpointing once per time unit at staggered instants.  The window size
``16384 // NODES`` picks the evaluation path (numpy from 64 instants,
the pure-Python sweeps from 4, the scalar methods below), so runs at
e.g. 1024, 4096, 5000, 8192 and 16384 nodes cover every path::

    PYTHONPATH=src python benchmarks/fold_windows.py 8192 --horizon 8 --step 0.04

Run it on two trees back to back to compare them; the printed skews must
agree bit for bit.
"""

from __future__ import annotations

import argparse
import time

from repro.sim.clock import HardwareClock
from repro.sim.drift import RandomWalkDrift
from repro.sim.monitors import StreamingSkewTracker
from repro.sim.trace import LogicalClockRecord
from repro.topology.generators import line

__all__ = ["measure", "main"]


def measure(nodes: int, horizon: float, step: float) -> str:
    topology = line(nodes)
    drift = RandomWalkDrift(0.05, step, 0.01, seed=1)
    tracker = StreamingSkewTracker(topology.nodes, topology.edges(), horizon, prune=True)
    records = []
    for i in range(nodes):
        hardware = HardwareClock(drift.rate_function(i, horizon), 0.0)
        record = LogicalClockRecord(hardware)
        records.append(record)
        tracker.note_start(i, record, hardware)
    feed = sorted(
        (k + (i % 97) / 97.0 + 0.001, i)
        for k in range(1, int(horizon))
        for i in range(nodes)
    )
    started = time.perf_counter()
    for t, i in feed:
        tracker.advance(t)
        records[i].checkpoint(t, 1.0 + 0.01 * ((i + int(t)) % 5))
        tracker.note_checkpoint(i, t)
    tracker.finalize()
    wall = time.perf_counter() - started
    g, l = tracker.global_extremum(), tracker.local_extremum()
    # Trackers that fold each instant as it is collected have no window.
    window = getattr(tracker, "window_instants", 1)
    return (
        f"nodes={nodes} window={window} wall={wall:.2f}s "
        f"global={g.value!r}@{g.time!r} local={l.value!r}@{l.time!r} "
        f"final={tracker.final_spread!r}"
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
