"""Tests for the whole-program reprolint pass (see ``docs/LINT.md``).

Covers the project index and taint engine through committed fixture
mini-packages (alias-resolved chains, taint through package re-exports,
source- vs sink-side suppression), the new rule families R006–R009, the
incremental content-hash cache (cold == warm byte-identically; editing
one file re-analyzes only that file while interprocedural findings
still update), and baseline staleness pruning.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import (
    PROJECT_RULES,
    RULES,
    all_rule_ids,
    lint_paths,
    load_baseline,
    prune_baseline,
    write_baseline,
)

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"


def lint_pkg(name, rules=None, **kwargs):
    """Lint one fixture mini-package rooted at the fixtures directory,
    so fixture module names resolve as written (``r006_pkg.clock``)."""
    return lint_paths([FIXTURES / name], rules=rules, root=FIXTURES, **kwargs)


# ---------------------------------------------------------------------------
# R006 — interprocedural nondeterminism reachability
# ---------------------------------------------------------------------------


class TestR006:
    def test_chain_spans_two_modules_through_rexport_and_alias(self):
        report = lint_pkg("r006_pkg", rules=["R006"])
        assert [f.rule for f in report.findings] == ["R006"]
        finding = report.findings[0]
        # The frontier function owns the finding...
        assert finding.path == "r006_pkg/sim/digesting.py"
        assert "_encode" in finding.message
        # ...with the full source→sink chain in message and chain field.
        assert "time.time" in finding.message
        assert len(finding.chain) == 2
        assert "r006_pkg/sim/digesting.py" in finding.chain[0]
        assert "r006_pkg/clock.py" in finding.chain[1]
        assert "reads time.time()" in finding.chain[1]

    def test_frontier_reporting_no_duplicate_at_caller(self):
        # spec_digest also reaches the source, but through the in-scope
        # _encode: fixing _encode fixes it, so it must not be reported.
        report = lint_pkg("r006_pkg", rules=["R006"])
        assert not any("spec_digest" in f.message for f in report.findings)

    def test_graph_off_misses_the_chain(self):
        report = lint_pkg("r006_pkg", rules=["R006"], graph=False)
        assert report.ok

    def test_source_side_suppression_silences_all_consumers(self):
        report = lint_pkg("r006_suppress_source", rules=["R006"])
        assert report.ok, [f.format_text() for f in report.findings]

    def test_sink_side_suppression_is_per_consumer(self):
        report = lint_pkg("r006_suppress_sink", rules=["R006"])
        assert report.suppressed == 1
        assert len(report.findings) == 1
        assert "other_digest" in report.findings[0].message

    def test_seeded_numpy_stream_is_not_a_source(self):
        # `default_rng(seed)` replays, so the sim caller of jitter() is
        # silent; the caller of wobble()'s global draw still reports.
        report = lint_pkg("numpy_rng", rules=["R006"])
        assert [f.rule for f in report.findings] == ["R006"]
        finding = report.findings[0]
        assert finding.path == "numpy_rng/sim/user.py"
        assert finding.message.startswith("numpy_rng.sim.user.drifted()")
        assert "unseeded-rng source numpy.random.normal()" in finding.message

    def test_process_identity_reported_directly_in_scope(self, tmp_path):
        proj = tmp_path / "proj"
        (proj / "exec").mkdir(parents=True)
        (proj / "exec" / "runner.py").write_text(
            "import os\n"
            "__all__ = ['run_key']\n"
            "def run_key() -> str:\n"
            "    return f'run-{os.getpid()}'\n"
        )
        report = lint_paths([proj], rules=["R006"], root=proj)
        assert [f.rule for f in report.findings] == ["R006"]
        assert "process-identity" in report.findings[0].message


# ---------------------------------------------------------------------------
# R007 — float exactness
# ---------------------------------------------------------------------------


class TestR007:
    def test_order_sensitive_folds_flagged_pinned_fold_silent(self):
        report = lint_pkg("r007", rules=["R007"])
        assert {f.rule for f in report.findings} == {"R007"}
        assert len(report.findings) == 3
        messages = " ".join(f.message for f in report.findings)
        assert "set" in messages
        assert ".values()" in messages
        assert "np.sum" in messages
        assert "docs/ENGINE.md" in messages

    def test_out_of_scope_module_is_ignored(self, tmp_path):
        path = tmp_path / "anywhere.py"
        path.write_text(
            "__all__ = ['fold']\n"
            "def fold(d):\n"
            "    return sum(d.values())\n"
        )
        assert lint_paths([path], rules=["R007"], root=tmp_path).ok


# ---------------------------------------------------------------------------
# R008 — atomic IO
# ---------------------------------------------------------------------------


class TestR008:
    def test_prefix_bodies_fail_the_gate(self):
        report = lint_pkg("r008", rules=["R008"])
        assert {f.rule for f in report.findings} == {"R008"}
        messages = [f.message for f in report.findings]
        assert sum("bare os.rename" in m for m in messages) == 1
        assert sum("without an intervening os.fsync" in m for m in messages) == 1
        assert sum("O_EXCL" in m for m in messages) == 1

    def test_fixed_backend_is_clean(self):
        report = lint_paths(
            [REPO_ROOT / "src" / "repro" / "exec" / "backend.py"],
            rules=["R008"],
            root=REPO_ROOT,
        )
        assert report.ok, [f.format_text() for f in report.findings]


# ---------------------------------------------------------------------------
# R009 — certificate predicate purity
# ---------------------------------------------------------------------------


class TestR009:
    def test_impure_predicate_and_check_method_flagged(self):
        report = lint_pkg("r009_pkg", rules=["R009"])
        assert {f.rule for f in report.findings} == {"R009"}
        messages = " ".join(f.message for f in report.findings)
        assert "performs IO via open()" in messages
        assert "mutates module global '_CALLS'" in messages
        assert "constructs an RNG" in messages
        assert "performs IO via print()" in messages
        # pure_excess is registered too and must stay silent (the "."
        # anchor avoids matching the "impure_excess" substring).
        assert len(report.findings) == 4
        assert ".pure_excess()" not in messages
        # The registration site is named so the finding is actionable.
        assert "registered via SkewCertificate()" in messages
        assert "check method of certificate class DemoCertificate" in messages

    def test_real_certificate_registry_is_pure(self):
        report = lint_paths(
            [REPO_ROOT / "src"], rules=["R009"], root=REPO_ROOT
        )
        assert report.ok, [f.format_text() for f in report.findings]


# ---------------------------------------------------------------------------
# incremental cache
# ---------------------------------------------------------------------------


def _write_taint_project(root: Path, helper_body: str) -> None:
    (root / "sim").mkdir(parents=True, exist_ok=True)
    (root / "helper.py").write_text(
        "import time\n"
        "__all__ = ['stamp']\n"
        "def stamp() -> float:\n"
        f"    return {helper_body}\n"
    )
    (root / "sim" / "user.py").write_text(
        "from helper import stamp\n"
        "__all__ = ['summarize']\n"
        "def summarize() -> float:\n"
        "    return stamp()\n"
    )


class TestIncrementalCache:
    def test_cold_and_warm_runs_are_byte_identical(self, tmp_path):
        cache = tmp_path / "cache.json"
        cold = lint_pkg("r006_pkg", cache_path=cache)
        warm = lint_pkg("r006_pkg", cache_path=cache)
        assert cold.files_reanalyzed == 3 and cold.files_cached == 0
        assert warm.files_cached == 3 and warm.files_reanalyzed == 0
        dump = lambda r: json.dumps(r.as_dict(), indent=2, sort_keys=True)
        assert dump(cold) == dump(warm)

    def test_edit_reanalyzes_one_file_but_updates_chain_findings(
        self, tmp_path
    ):
        proj = tmp_path / "proj"
        cache = tmp_path / "cache.json"
        _write_taint_project(proj, "time.time()")
        first = lint_paths(
            [proj], rules=["R006"], root=proj, cache_path=cache
        )
        assert [f.rule for f in first.findings] == ["R006"]
        # Fix the helper: only it re-parses, yet the *dependent's*
        # interprocedural finding clears, because the graph pass always
        # re-runs over the current summaries.
        _write_taint_project(proj, "0.0")
        second = lint_paths(
            [proj], rules=["R006"], root=proj, cache_path=cache
        )
        assert second.files_reanalyzed == 1
        assert second.files_cached == 1
        assert second.ok, [f.format_text() for f in second.findings]
        # And breaking it again re-surfaces the finding identically.
        _write_taint_project(proj, "time.time()")
        third = lint_paths(
            [proj], rules=["R006"], root=proj, cache_path=cache
        )
        assert [f.as_dict() for f in third.findings] == [
            f.as_dict() for f in first.findings
        ]

    def test_corrupt_or_mismatched_cache_is_ignored(self, tmp_path):
        cache = tmp_path / "cache.json"
        cache.write_text("{not json")
        report = lint_pkg("r006_pkg", cache_path=cache)
        assert report.files_reanalyzed == 3
        # A --rules change invalidates wholesale (different active set).
        lint_pkg("r006_pkg", cache_path=cache)
        narrowed = lint_pkg("r006_pkg", rules=["R006"], cache_path=cache)
        assert narrowed.files_reanalyzed == 3

    def test_whole_repo_cold_equals_warm(self, tmp_path):
        cache = tmp_path / "cache.json"
        baseline = load_baseline(REPO_ROOT / ".reprolint-baseline.json")
        kwargs = dict(baseline=baseline, root=REPO_ROOT, cache_path=cache)
        cold = lint_paths([REPO_ROOT / "src"], **kwargs)
        warm = lint_paths([REPO_ROOT / "src"], **kwargs)
        assert cold.files_cached == 0 and warm.files_reanalyzed == 0
        assert json.dumps(cold.as_dict(), sort_keys=True) == json.dumps(
            warm.as_dict(), sort_keys=True
        )
        assert cold.ok


# ---------------------------------------------------------------------------
# baseline hygiene: stale entries are detected and prunable
# ---------------------------------------------------------------------------


class TestBaselinePruning:
    def _stale_baseline(self, tmp_path) -> Path:
        from repro.lint import Finding

        path = tmp_path / "baseline.json"
        write_baseline(
            path,
            [
                Finding("exists.py", 1, 0, "R001", "m"),
                Finding("gone/forever.py", 1, 0, "R005", "m"),
            ],
            reason="test",
        )
        (tmp_path / "exists.py").write_text("__all__ = []\n")
        return path

    def test_stale_entries_detected(self, tmp_path):
        path = self._stale_baseline(tmp_path)
        baseline = load_baseline(path)
        stale = baseline.stale_entries(tmp_path)
        assert [(e.path, e.rule) for e in stale] == [("gone/forever.py", "R005")]

    def test_prune_rewrites_only_stale(self, tmp_path):
        path = self._stale_baseline(tmp_path)
        pruned, removed = prune_baseline(path, tmp_path)
        assert [e.path for e in removed] == ["gone/forever.py"]
        assert [e.path for e in pruned.entries] == ["exists.py"]
        # Idempotent: a second prune removes nothing.
        again, removed_again = prune_baseline(path, tmp_path)
        assert removed_again == ()
        assert [e.path for e in again.entries] == ["exists.py"]

    def test_cli_prune_and_stale_warning(self, tmp_path, capsys, monkeypatch):
        path = self._stale_baseline(tmp_path)
        monkeypatch.chdir(tmp_path)
        code = cli_main(
            ["lint", "--baseline", str(path), str(tmp_path / "exists.py")]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "gone/forever.py" in captured.err
        assert "--prune-baseline" in captured.err
        code = cli_main(["lint", "--prune-baseline", "--baseline", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "pruned stale baseline entry: gone/forever.py" in captured.out
        # After pruning, the warning is gone.
        code = cli_main(
            ["lint", "--baseline", str(path), str(tmp_path / "exists.py")]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "gone/forever.py" not in captured.err

    def test_committed_baseline_has_no_stale_entries(self):
        baseline = load_baseline(REPO_ROOT / ".reprolint-baseline.json")
        assert baseline.stale_entries(REPO_ROOT) == ()


# ---------------------------------------------------------------------------
# CLI surface for the new flags
# ---------------------------------------------------------------------------


class TestCliGraphFlags:
    # The CLI resolves findings relative to the working directory, so
    # fixture module names (`r006_pkg.clock`) only resolve from the
    # fixtures directory — chdir there, as a user would in their repo.

    def test_call_chain_renders_steps(self, capsys, monkeypatch):
        monkeypatch.chdir(FIXTURES)
        code = cli_main(
            ["lint", "--rules", "R006", "--call-chain", "--no-baseline",
             "r006_pkg"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "at " in out and "-> " in out
        assert "reads time.time()" in out

    def test_json_findings_carry_chain(self, capsys, monkeypatch):
        monkeypatch.chdir(FIXTURES)
        code = cli_main(
            ["lint", "--rules", "R006", "--format", "json", "--no-baseline",
             "r006_pkg"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        (finding,) = payload["findings"]
        assert len(finding["chain"]) == 2

    def test_no_graph_flag(self, capsys):
        code = cli_main(
            ["lint", "--rules", "R006", "--no-graph", "--no-baseline",
             str(FIXTURES / "r006_pkg")]
        )
        assert code == 0
        capsys.readouterr()

    def test_cache_flag_reports_warm_counts(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        for expected in ("0 file(s) warm", "3 file(s) warm"):
            code = cli_main(
                ["lint", "--rules", "R007", "--cache", str(cache),
                 "--no-baseline", str(FIXTURES / "r006_pkg")]
            )
            assert code == 0
            assert expected in capsys.readouterr().out

    def test_registries_are_split_and_complete(self):
        assert sorted(RULES) == [
            "R001", "R002", "R003", "R004", "R005", "R007", "R008"
        ]
        assert sorted(PROJECT_RULES) == ["R006", "R009"]
        assert all_rule_ids() == [
            "R001", "R002", "R003", "R004", "R005",
            "R006", "R007", "R008", "R009",
        ]
        for rule in list(RULES.values()) + list(PROJECT_RULES.values()):
            assert rule.summary
