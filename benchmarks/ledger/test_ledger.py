"""Self-test of the ledger, on tiny inputs: ``python -m pytest benchmarks/ledger``.

Runs every workload in ``--quick`` mode (one op each) through the real
commands and checks the contract the gate relies on: every
``BENCHMARK.json`` metric is emitted with its unit, the traced run
closes, a failing op shows in ``failed_frac``, and the seed changes the
inputs but not the metric set.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.ledger import run as runner

runner.bootstrap()

from benchmarks.ledger import ledger, workloads  # noqa: E402

ROOT = runner.ROOT
CONFIG = runner.benchmark_config()


def _ledger_set(tmp_path_factory, trace: bool):
    out = tmp_path_factory.mktemp("ledger") / "ledger.json"
    command = [sys.executable, "-m", "benchmarks.ledger", "run", "--quick",
               "--seed", "1", "--out", str(out)]
    if trace:
        command.append("--trace")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    (result,) = json.loads(out.read_text())["sets"]
    return result


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _ledger_set(tmp_path_factory, trace=False)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _ledger_set(tmp_path_factory, trace=True)


def test_every_benchmark_metric_is_emitted_with_its_unit(untraced, traced):
    for result, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert set(result["workloads"]) == set(workloads.WORKLOADS)
        for name, record in result["workloads"].items():
            assert record["correct"], (name, record["problems"])
            for spec in CONFIG[section]:
                metric = record["metrics"][spec["name"]]
                assert metric["unit"] == spec["unit"], (name, spec["name"])


def test_result_line_has_exactly_the_gate_keys():
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "line-trace",
         "--seed", "3", "--seconds", "0.1", "--trace", "0", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
    expected = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_run_closes(traced):
    for name, record in traced["workloads"].items():
        metrics = record["metrics"]
        closure = metrics["trace.closure_frac"]["value"]
        assert abs(closure - 1) <= runner.CLOSURE_TOLERANCE, (name, closure)
        assert (ROOT / record["spans_file"]).exists()
    layers = {name: r["metrics"] for name, r in traced["workloads"].items()}
    assert layers["line-trace"]["faults.calls"]["value"] == 0
    assert layers["line-stream"]["faults.calls"]["value"] == 0
    assert layers["fault-mix"]["faults.calls"]["value"] > 0
    assert layers["certify-campaign"]["exec.pool.batches"]["value"] > 0


def test_injected_failing_op_raises_failed_frac(tmp_path):
    prepared = workloads.build("line-trace", 0, True, tmp_path)
    calls = []
    healthy = prepared.run

    def flaky(collect_metrics):
        calls.append(collect_metrics)
        if len(calls) == 3:
            raise RuntimeError("injected failure")
        return healthy(collect_metrics)

    prepared.run = flaky
    record = runner.summarize("line-trace", 0, True, False, [runner.measure(prepared, ops=4)])
    assert record["metrics"]["failed_frac"]["value"] == pytest.approx(1 / 4)
    assert record["failed"] == 1 and record["attempted"] == 4
    assert not record["correct"]
    assert "injected failure" in "".join(record["problems"])


def test_seed_changes_inputs_but_not_metric_names(tmp_path):
    for name in workloads.WORKLOADS:
        records = [
            runner.summarize(name, seed, True, False,
                             [runner.measure(workloads.build(name, seed, True, tmp_path), ops=1)])
            for seed in (0, 1)
        ]
        assert records[0]["input_digest"] != records[1]["input_digest"], name
        assert set(records[0]["metrics"]) == set(records[1]["metrics"]), name
        assert all(r["correct"] for r in records), name


def test_compare_verdicts():
    spec = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    assert ledger.verdict(parent, [v * 1.2 for v in parent], spec, True) == "regressed"
    assert ledger.verdict(parent, [v * 1.05 for v in parent], spec, True) == "unchanged"
    assert ledger.verdict(parent, [v * 0.8 for v in parent], spec, True) == "improved"
    # Not alternating, or fewer than ten pairs: no gain may be claimed.
    assert ledger.verdict(parent, [v * 0.8 for v in parent], spec, False) == "unchanged"
    assert ledger.verdict(parent[:5], [0.8] * 5, spec, True) == "unchanged"
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 1.0, 0.9, 1.1]
    assert ledger.verdict(noisy, [v * 1.05 for v in noisy], spec, True) == "unresolved"
    failed = {"name": "failed_frac", "unit": "ratio", "better": "lower",
              "bound": 0.0, "absolute": True}
    assert ledger.verdict([0.0], [0.01], failed, False) == "regressed"
    assert ledger.verdict([0.01], [0.01], failed, False) == "unchanged"


def test_compare_exits_nonzero_on_regression(tmp_path, capsys):
    def ledger_file(path: Path, wall: float, started_at: float) -> str:
        records = {
            name: {"metrics": {"wall_s": {"value": wall, "unit": "s"},
                               "failed_frac": {"value": 0.0, "unit": "ratio"}}}
            for name in workloads.WORKLOADS
        }
        sets = [{"trace": False, "started_at": started_at, "workloads": records}]
        path.write_text(json.dumps({"sets": sets}))
        return str(path)

    parent = ledger_file(tmp_path / "parent.json", 1.0, 0.0)
    assert ledger.compare(parent, ledger_file(tmp_path / "same.json", 1.01, 1.0)) == 0
    assert ledger.compare(parent, ledger_file(tmp_path / "slow.json", 1.5, 1.0)) == 1
    assert "regressed" in capsys.readouterr().out
