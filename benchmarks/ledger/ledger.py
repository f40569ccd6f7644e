"""The ledger commands: run every workload, and compare two ledgers.

``run`` runs the four workloads one after the other, each in its own
fresh ``run.py`` subprocess (one warm-up op, then the workload's fixed
number of timed ops), prints every metric with its unit, and appends the
resulting *set* to a ledger file.  ``--trace`` makes it a traced set:
per-layer metrics instead of end-to-end ones.

``compare PARENT CHANGE`` pairs the untraced sets of two ledger files in
order and gives each workload and end-to-end metric a verdict:

* **regressed** — the change's median is worse than the parent's by
  more than the metric's ``BENCHMARK.json`` bound (``failed_frac``: any
  increase at all);
* **improved** — at least ten pairs, run in alternating order, the
  change better in at least nine of every ten, and the medians further
  apart than the parent's interquartile range;
* **unresolved** — the parent's own spread is wider than the bound, and
  not every change run beats every parent run;
* **unchanged** — otherwise.

A ledger argument may be ``FILE#I`` to take only set ``I`` of a file,
which compares two sets of one ledger entry with each other.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from benchmarks.ledger.run import ROOT, SCRATCH, benchmark_config, bootstrap, describe

__all__ = ["run_set", "compare", "verdict", "main"]

_RUNNER = Path(__file__).with_name("run.py")

#: Ledger-only end-to-end metrics and their regression bounds; the
#: gated metrics and their bounds come from ``BENCHMARK.json``.
_EXTRA_METRICS = (
    {"name": "warm_wall_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "children_peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
    {"name": "failed_frac", "unit": "ratio", "better": "lower", "bound": 0.0,
     "absolute": True},
)
#: Pairs needed before a gain may be claimed, and the share it must win.
_MIN_PAIRS = 10
_WIN_SHARE = 0.9


def _workloads() -> Dict[str, int]:
    from benchmarks.ledger.workloads import WORKLOADS

    return WORKLOADS


def run_set(seed: int, trace: bool, quick: bool) -> Dict[str, Any]:
    """Run every workload once in a fresh subprocess; returns the set."""
    started_at = time.time()
    records: Dict[str, Any] = {}
    SCRATCH.mkdir(exist_ok=True)
    for name, ops in _workloads().items():
        detail = SCRATCH / f"detail-{name}.json"
        command = [sys.executable, str(_RUNNER), "--workload", name,
                   "--seed", str(seed), "--ops", str(1 if quick else ops),
                   "--trace", "1" if trace else "0", "--detail", str(detail)]
        if quick:
            command.append("--quick")
        started = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        elapsed = time.perf_counter() - started
        sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
        sys.stderr.write(done.stderr)
        if not detail.exists():
            records[name] = {"correct": False, "returncode": done.returncode,
                             "problems": ["runner printed no result"], "metrics": {}}
            continue
        record = json.loads(detail.read_text())
        detail.unlink()
        record["returncode"] = done.returncode
        record["run_seconds"] = elapsed
        records[name] = record
    return {
        "seed": seed,
        "trace": trace,
        "quick": quick,
        "started_at": started_at,
        "machine": {"machine": platform.machine(), "processor": platform.processor(),
                    "cpus": os.cpu_count(), "python": platform.python_version()},
        "workloads": records,
    }


def _metric_specs(trace: bool) -> List[Dict[str, Any]]:
    config = benchmark_config()
    if trace:
        return config["per_layer"]
    return list(config["end_to_end"]) + list(_EXTRA_METRICS)


def _print_set(result: Dict[str, Any]) -> None:
    specs = _metric_specs(result["trace"])
    print()
    print(f"{'workload':<18} {'metric':<30} {'value':>14}  unit")
    for name, record in result["workloads"].items():
        for spec in specs:
            metric = record["metrics"].get(spec["name"])
            if metric is not None:
                print(f"{name:<18} {spec['name']:<30} {metric['value']:>14.6g}  {metric['unit']}")
        status = "ok" if record["correct"] else "INCORRECT: " + "; ".join(record["problems"])
        seconds = record.get("run_seconds", 0.0)
        print(f"{name:<18} {'(output check)':<30} {status}  [{seconds:.1f} s run]")


def _load(argument: str) -> List[Dict[str, Any]]:
    path, _, index = argument.partition("#")
    sets = json.loads(Path(path).read_text())["sets"]
    if index:
        sets = [sets[int(index)]]
    return [s for s in sets if not s["trace"]]


def verdict(parent: List[float], change: List[float], spec: Dict[str, Any],
            alternating: bool) -> str:
    """The verdict for one metric's paired values (rules in the module docstring)."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    p = describe(parent, spec["unit"])
    p_q1, p_median, p_q3 = p["q1"], p["value"], p["q3"]
    c_median = statistics.median(change)
    worse_by = (c_median - p_median) * sign
    limit = spec["bound"] if spec.get("absolute") else spec["bound"] * abs(p_median)
    if worse_by > limit:
        return "regressed"
    wins = sum(1 for p, c in zip(parent, change) if (c - p) * sign < 0)
    if (alternating and len(parent) >= _MIN_PAIRS and wins >= _WIN_SHARE * len(parent)
            and -worse_by > p_q3 - p_q1):
        return "improved"
    spread = (p_q3 - p_q1) / abs(p_median) if p_median else 0.0
    if sign > 0:
        every_run_better = max(change) < min(parent)
    else:
        every_run_better = min(change) > max(parent)
    if not spec.get("absolute") and spread > spec["bound"] and not every_run_better:
        return "unresolved"
    return "unchanged"


def _alternating(parent: List[Dict[str, Any]], change: List[Dict[str, Any]]) -> bool:
    """Whether the pairs ran in alternating order (by their start times)."""
    firsts = [p["started_at"] < c["started_at"] for p, c in zip(parent, change)]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def compare(parent_arg: str, change_arg: str) -> int:
    """Print one verdict row per workload and metric; 1 on any regression."""
    parent, change = _load(parent_arg), _load(change_arg)
    pairs = min(len(parent), len(change))
    if pairs == 0:
        print("no untraced sets to compare", file=sys.stderr)
        return 2
    parent, change = parent[:pairs], change[:pairs]
    alternating = _alternating(parent, change)
    print(f"{pairs} pair(s){'' if alternating else ', not alternating'}; "
          f"gains need {_MIN_PAIRS} alternating pairs")
    print(f"{'workload':<18} {'metric':<14} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36}  verdict")
    regressed = False
    for name in _workloads():
        for spec in _metric_specs(trace=False):
            p_values = [s["workloads"][name]["metrics"].get(spec["name"], {}).get("value")
                        for s in parent if name in s["workloads"]]
            c_values = [s["workloads"][name]["metrics"].get(spec["name"], {}).get("value")
                        for s in change if name in s["workloads"]]
            if not p_values or None in p_values or None in c_values or not c_values:
                continue
            outcome = verdict(p_values, c_values, spec, alternating)
            regressed = regressed or outcome == "regressed"
            p, c = describe(p_values, spec["unit"]), describe(c_values, spec["unit"])
            print(f"{name:<18} {spec['name']:<14} "
                  f"{p['value']:>12.5g} [{p['q1']:>9.5g}, {p['q3']:>9.5g}] "
                  f"{c['value']:>12.5g} [{c['q1']:>9.5g}, {c['q3']:>9.5g}]  {outcome}")
    return 1 if regressed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger",
                                     description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run every workload and record a set")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", type=Path, default=SCRATCH / "ledger.json",
                     help="ledger file the set is appended to")
    run.add_argument("--trace", action="store_true", help="per-layer (traced) set")
    run.add_argument("--quick", action="store_true", help="tiny inputs, one op each")
    cmp = commands.add_parser("compare", help="verdicts for CHANGE against PARENT")
    cmp.add_argument("parent")
    cmp.add_argument("change")
    args = parser.parse_args(argv)
    bootstrap()
    if args.command == "compare":
        return compare(args.parent, args.change)
    result = run_set(args.seed, args.trace, args.quick)
    _print_set(result)
    ledger = {"sets": []}
    if args.out.exists():
        ledger = json.loads(args.out.read_text())
    ledger["sets"].append(result)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"\nset {len(ledger['sets']) - 1} appended to {args.out}")
    return 0 if all(r["correct"] and r["returncode"] == 0
                    for r in result["workloads"].values()) else 1
