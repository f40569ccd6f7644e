"""Check and time the fault injector's per-message draws.

Runs the ledger's ``fault-mix`` spec once and records every key the
engine sends through :meth:`FaultInjector.message_fate` and every
Byzantine :meth:`FaultInjector.corrupt_payload` call.  It then replays
those keys twice: through a fresh injector, which encodes each key once
and hashes it from per-kind prefix states, and through a reference that
calls :func:`~repro.faults.hashing.stable_uniform` once per draw, the
definition.  Every fate, every corruption and every ``drop`` / ``dup`` /
``spike`` draw must agree bit for bit; the script exits 1 if one does
not.  It prints microseconds per send for both paths::

    PYTHONPATH=src python -m benchmarks.fault_draws --seed 0
    PYTHONPATH=src python -m benchmarks.fault_draws --quick

Run it from the repository root (it imports the ledger's spec builder).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Tuple

from benchmarks.ledger import workloads
from repro.faults.hashing import prefix_state, stable_uniform, uniform_after
from repro.faults.injector import FaultInjector

__all__ = ["record_keys", "measure", "main"]

_FATE_KINDS = ("drop", "dup", "spike")

#: Each path is timed as the best of this many loops over the keys.
_REPEATS = 5


def record_keys(seed: int, quick: bool) -> Tuple[object, List[tuple], List[tuple]]:
    """The fault schedule, send keys and corruption calls of one run."""
    spec = workloads._fault_mix_spec(seed, quick)
    sends: List[tuple] = []
    corruptions: List[tuple] = []
    fate, corrupt = FaultInjector.message_fate, FaultInjector.corrupt_payload

    def recording_fate(self, *key):
        sends.append(key)
        return fate(self, *key)

    def recording_corrupt(self, *call):
        corruptions.append(call)
        return corrupt(self, *call)

    FaultInjector.message_fate = recording_fate
    FaultInjector.corrupt_payload = recording_corrupt
    try:
        spec.run_summary()
    finally:
        FaultInjector.message_fate = fate
        FaultInjector.corrupt_payload = corrupt
    return spec.faults, sends, corruptions


def _reference_fate(schedule, key: tuple) -> tuple:
    """The fate as three ``stable_uniform`` draws decide it."""
    seed = schedule.seed
    if schedule.drop_probability > 0 and (
        stable_uniform(seed, "drop", *key) < schedule.drop_probability
    ):
        return True, False, 0.0
    duplicate = schedule.duplicate_probability > 0 and (
        stable_uniform(seed, "dup", *key) < schedule.duplicate_probability
    )
    spike = schedule.spike_probability > 0 and (
        stable_uniform(seed, "spike", *key) < schedule.spike_probability
    )
    return False, duplicate, schedule.spike_delay if spike else 0.0


def _reference_corruption(schedule, call: tuple):
    """The corruption as two ``stable_uniform`` draws decide it."""
    *key, payload = call
    if not (
        isinstance(payload, tuple)
        and len(payload) == 2
        and all(isinstance(part, (int, float)) for part in payload)
    ):
        return None
    logical, l_max = float(payload[0]), float(payload[1])
    magnitude = schedule.byzantine_magnitude
    mode = stable_uniform(schedule.seed, "byz-mode", *key)
    draw = stable_uniform(schedule.seed, "byz-mag", *key)
    if mode < 0.5:
        return (logical - magnitude * (0.5 + 0.5 * draw), l_max), "perturb"
    if mode < 0.8:
        return (logical - magnitude * (0.25 + 0.75 * draw), l_max), "equivocate"
    shift = magnitude * (0.5 + 0.5 * draw)
    return (logical - shift, max(0.0, l_max - shift)), "replay"


def _mismatches(schedule, sends: List[tuple], corruptions: List[tuple]) -> int:
    injector = FaultInjector(schedule)
    prefixes = [(kind, prefix_state(schedule.seed, kind)) for kind in _FATE_KINDS]
    bad = 0
    for key in sends:
        fate = injector.message_fate(*key)
        if (fate.drop, fate.duplicate, fate.extra_delay) != _reference_fate(schedule, key):
            bad += 1
        tail = ("".join(f", {part!r}" for part in key) + ")").encode("utf-8")
        for kind, prefix in prefixes:
            if uniform_after(prefix, tail) != stable_uniform(schedule.seed, kind, *key):
                bad += 1
    for call in corruptions:
        if injector.corrupt_payload(*call) != _reference_corruption(schedule, call):
            bad += 1
    return bad


def _best_of(loop) -> float:
    best = float("inf")
    for _ in range(_REPEATS):
        started = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - started)
    return best


def measure(seed: int, quick: bool) -> Tuple[str, int]:
    """The report line and the number of mismatched values."""
    schedule, sends, corruptions = record_keys(seed, quick)
    bad = _mismatches(schedule, sends, corruptions)
    injector = FaultInjector(schedule)

    def encoded_once():
        fate = injector.message_fate
        for key in sends:
            fate(*key)

    def per_draw():
        for key in sends:
            _reference_fate(schedule, key)

    us = 1e6 / max(len(sends), 1)
    line = (
        f"seed={seed} sends={len(sends)} corruptions={len(corruptions)} "
        f"mismatches={bad} | per-draw stable_uniform "
        f"{_best_of(per_draw) * us:.2f} us/send, encoded once "
        f"{_best_of(encoded_once) * us:.2f} us/send"
    )
    return line, bad


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true", help="grid(3,3), horizon 120")
    args = parser.parse_args()
    line, bad = measure(args.seed, args.quick)
    print(line)
    if bad:
        sys.exit(1)


if __name__ == "__main__":
    main()
