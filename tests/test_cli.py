"""Tests for the command-line interface."""

import pytest

from repro.algorithms import names
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bounds_defaults(self):
        args = build_parser().parse_args(["bounds"])
        assert args.epsilon == 0.05
        assert args.diameters == [4, 8, 16, 32, 64, 128]

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--algorithm", "nonsense"])


class TestBoundsCommand:
    def test_prints_table(self, capsys):
        exit_code = main(["bounds", "--epsilon", "0.02", "--diameters", "4", "16"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "global upper G" in out
        assert "sigma=" in out


class TestSimulateCommand:
    def test_aopt_respects_bounds(self, capsys):
        exit_code = main(
            [
                "simulate", "--topology", "line", "--nodes", "6",
                "--horizon", "80", "--adversary", "two-group-drift",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "global skew" in out
        assert "messages:" in out

    def test_unknown_adversary_exits(self):
        with pytest.raises(SystemExit):
            main(
                ["simulate", "--topology", "line", "--nodes", "5",
                 "--adversary", "nope"]
            )

    @pytest.mark.parametrize("epsilon", ["0", "1", "-0.1"])
    def test_degenerate_epsilon_exits_2(self, epsilon, capsys):
        # 1 − ε̂ and μ are divisors in SyncParams.recommended: a degenerate
        # ε is a usage error, reported once by main, never a traceback.
        assert main(["simulate", "--epsilon", epsilon]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro simulate: ")
        assert "epsilon must be in (0, 1)" in err
        assert "Traceback" not in err

    def test_baseline_runs_without_bound_check(self, capsys):
        exit_code = main(
            [
                "simulate", "--topology", "ring", "--nodes", "6",
                "--algorithm", "max-forward", "--horizon", "60",
            ]
        )
        assert exit_code == 0

    @pytest.mark.parametrize("algorithm", names("cli"))
    def test_every_algorithm_choice_runs(self, algorithm, capsys):
        exit_code = main(
            [
                "simulate", "--topology", "line", "--nodes", "5",
                "--algorithm", algorithm, "--horizon", "60",
            ]
        )
        assert exit_code == 0

    @pytest.mark.parametrize(
        "topology", ["star", "complete", "grid", "torus", "tree", "hypercube",
                     "random"]
    )
    def test_all_topologies_buildable(self, topology, capsys):
        exit_code = main(
            [
                "simulate", "--topology", topology, "--nodes", "9",
                "--horizon", "60",
            ]
        )
        assert exit_code == 0


class TestSuiteCommand:
    def test_suite_table(self, capsys):
        exit_code = main(
            ["suite", "--topology", "line", "--nodes", "5", "--horizon", "60"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "worst global" in out
        assert "two-group-drift" in out


class TestMainModule:
    def test_python_dash_m_invocation(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "bounds", "--diameters", "4"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "global upper G" in result.stdout

    def test_help_lists_commands(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        for command in ("bounds", "simulate", "suite", "lower-bound", "report"):
            assert command in result.stdout


class TestLowerBoundCommands:
    def test_global(self, capsys):
        exit_code = main(
            ["lower-bound", "global", "--topology", "line", "--nodes", "5"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "Theorem 7.2" in out

    def test_global_with_inaccurate_knowledge(self, capsys):
        exit_code = main(
            [
                "lower-bound", "global", "--topology", "line", "--nodes", "5",
                "--c1", "0.6", "--delay-hat", str(1.0 / 0.6),
            ]
        )
        assert exit_code == 0

    def test_local(self, capsys):
        exit_code = main(
            [
                "lower-bound", "local", "--nodes", "5", "--base", "4",
                "--epsilon", "0.1",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "Theorem 7.7" in out
        assert "forced neighbor skew" in out


class TestCampaignFlagValidation:
    """Bad retry and lease flags are usage errors (exit 2) everywhere."""

    @pytest.mark.parametrize(
        "command",
        [
            ["sweep", "--topology", "line", "--diameters", "2", "--no-cache"],
            ["certify", "--budget", "1", "--no-cache"],
            ["profile", "--topology", "line", "--nodes", "3",
             "--horizon", "10"],
        ],
        ids=["sweep", "certify", "profile"],
    )
    @pytest.mark.parametrize(
        "flags",
        [
            ["--max-retries", "-1"],
            ["--spec-timeout", "0"],
            ["--spec-timeout", "-1"],
            ["--spec-timeout", "0", "--max-retries", "1"],
        ],
        ids=["negative-retries", "zero-timeout", "negative-timeout",
             "zero-timeout-with-retries"],
    )
    def test_bad_retry_flags_exit_2(self, command, flags, capsys):
        assert main(command + flags) == 2
        assert f"repro {command[0]}:" in capsys.readouterr().err

    def test_zero_lease_ttl_rejected(self, tmp_path, capsys):
        code = main([
            "sweep", "--topology", "line", "--diameters", "2", "--no-cache",
            "--backend", "work-queue", "--queue-dir", str(tmp_path / "q"),
            "--lease-ttl", "0",
        ])
        assert code == 2
        assert "lease_ttl must be positive" in capsys.readouterr().err


class TestFaultsFlagValidation:
    """Bad ``faults`` flags are usage errors (exit 2), never the exit 1
    that means "NOT resynchronized"."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--scenario", "flaky", "--drop", "1.0"], "--drop must be in [0, 1)"),
            (["--drop", "1.0"], "--drop must be in [0, 1)"),
            (["--scenario", "crashes", "--crash-rate", "-1"],
             "--crash-rate must be positive"),
            (["--fault-start", "-3"], "--fault-start must be non-negative"),
            (["--fault-duration", "-5"], "--fault-duration must be non-negative"),
            (["--horizon", "-1"], "--horizon must be positive"),
            (["--horizon", "0"], "--horizon must be positive"),
            (["--scenario", "flaky", "--duplicate", "1.5"],
             "duplicate_probability must be in [0, 1)"),
            (["--scenario", "crashes", "--mean-downtime", "0"],
             "mean_downtime must be positive"),
        ],
        ids=["drop-flaky", "drop-partition", "crash-rate", "fault-start",
             "fault-duration", "negative-horizon", "zero-horizon",
             "duplicate", "mean-downtime"],
    )
    def test_bad_fault_flags_exit_2(self, flags, message, capsys):
        assert main(["faults", "--nodes", "6"] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro faults: ")
        assert message in err
        assert "Traceback" not in err


class TestFaultsCommand:
    ARGV = ["faults", "--nodes", "6", "--scenario", "crashes", "--horizon", "60"]

    def test_runs_the_engine_once(self, monkeypatch, tmp_path, capsys):
        from repro.sim.engine import SimulationEngine

        # A cold, private result cache: a run routed through the cache
        # could neither hide behind a warm entry nor touch the user's.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runs = []
        run_loop = SimulationEngine._run_loop

        def counting(engine):
            runs.append(engine)
            return run_loop(engine)

        monkeypatch.setattr(SimulationEngine, "_run_loop", counting)
        assert main(self.ARGV) in (0, 1)
        assert len(runs) == 1

    def test_metrics_json_prints_engine_counters(self, capsys):
        import json

        main(self.ARGV + ["--metrics", "json"])
        out = capsys.readouterr().out
        counters = json.loads(out[out.index("\n{") + 1:])
        assert counters["events_processed"] > 0
        assert counters["sends"] > 0
        # Counters only: wall-clock phases would make reruns differ.
        assert counters["phase_seconds"] == {}

    def test_metrics_table_prints_engine_counters(self, capsys):
        main(self.ARGV + ["--metrics", "table"])
        out = capsys.readouterr().out
        assert "engine counters" in out
        assert "events_processed" in out

    @pytest.mark.parametrize("flag", [["--workers", "2"], ["--no-cache"]])
    def test_executor_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGV + flag)
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--horizon", "-1"],
        ["suite", "--horizon", "0"],
        ["sweep", "--horizon", "0"],
        ["profile", "--horizon", "0"],
        ["simulate", "--nodes", "0"],
        ["sweep", "--diameters", "0"],
        ["sweep", "--diameters", "0", "--topology", "grid"],
        ["lower-bound", "global", "--nodes", "1"],
        ["lower-bound", "local", "--nodes", "1"],
    ],
)
def test_out_of_range_flags_are_usage_errors(argv, capsys):
    # Rejected before anything runs: exit 2 with a one-line message.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"repro {argv[0]}: ")
