"""Self-tests for reprolint (see ``docs/LINT.md``).

Fixture-driven: each rule has one minimal offending file under
``tests/fixtures/lint/`` that must trigger it, a compliant module must
stay silent, and the committed source tree itself must lint clean under
the committed baseline — the same gate ``make lint`` enforces in CI.

The suite also pins the satellite fixes of PR 4 in both directions:
the sorted ``patterns_match`` in ``repro.adversary.shifting`` passes
R003, while a fixture copy of its pre-fix body fails it — reverting the
fix would make the lint gate fail.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.errors import LintError
from repro.lint import (
    Baseline,
    BaselineEntry,
    RULES,
    iter_python_files,
    lint_paths,
    load_baseline,
    write_baseline,
)

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"


def lint_fixture(name, rules=None):
    return lint_paths([FIXTURES / name], rules=rules, root=REPO_ROOT)


# ---------------------------------------------------------------------------
# one offending fixture per rule
# ---------------------------------------------------------------------------


class TestRuleFixtures:
    def test_r001_global_and_unseeded_random(self):
        report = lint_fixture("r001_global_random.py")
        assert {f.rule for f in report.findings} == {"R001"}
        messages = [f.message for f in report.findings]
        assert sum("process-global" in m for m in messages) == 2
        assert sum("unseeded" in m.lower() for m in messages) == 1

    def test_r001_numpy_global_and_unseeded_streams(self):
        # numpy.random draws and argument-less constructors, through
        # `np.random`, an aliased `numpy.random`, and a from-import;
        # the seeded constructions in seeded_streams() stay silent.
        report = lint_fixture("numpy_rng/sim/model.py")
        draw = "call to the process-global RNG numpy.random.{}(); " + (
            "inject a per-component numpy.random.default_rng(seed) instead"
        )
        assert [(f.line, f.col, f.rule, f.message) for f in report.findings] == [
            (16, 19, "R001", draw.format("rand")),
            (16, 38, "R001", draw.format("normal")),
            (21, 8, "R001", "unseeded default_rng()" + _ENTROPY),
            (22, 8, "R001", "unseeded numpy.random.RandomState()" + _ENTROPY),
            (23, 8, "R001", "unseeded numpy.random.SeedSequence()" + _ENTROPY),
            (24, 8, "R001", "unseeded numpy.random.PCG64()" + _ENTROPY),
        ]

    def test_r002_wall_clock_and_env_reads(self):
        report = lint_fixture("r002")
        assert {f.rule for f in report.findings} == {"R002"}
        messages = " ".join(f.message for f in report.findings)
        assert "time.time()" in messages
        assert "datetime.now()" in messages
        assert "os.environ" in messages

    def test_r002_requires_replay_critical_path(self):
        # The same offences outside a sim/exec/faults directory are out
        # of scope: R002 is a hot-path rule, not a global ban.
        source = (FIXTURES / "r002" / "sim" / "wall_clock.py").read_text()
        report = self._lint_source(source, "wall_clock_elsewhere.py")
        assert not [f for f in report.findings if f.rule == "R002"]

    def test_r003_unordered_set_in_digest_code(self):
        report = lint_fixture("r003_unordered_digest.py")
        assert {f.rule for f in report.findings} == {"R003"}
        assert len(report.findings) == 2  # one iterated, one formatted

    def test_r004_both_coverage_hazards(self):
        report = lint_fixture("r004_digest_coverage.py")
        assert {f.rule for f in report.findings} == {"R004"}
        messages = " ".join(f.message for f in report.findings)
        assert "'seed'" in messages  # dataclass field the digest misses
        assert "self._cache" in messages  # lazy attr on digest-critical class

    def test_r005_export_inconsistencies(self):
        report = lint_fixture("r005_exports.py")
        assert {f.rule for f in report.findings} == {"R005"}
        messages = " ".join(f.message for f in report.findings)
        assert "'missing_name'" in messages
        assert "duplicate" in messages
        assert "'straggler'" in messages

    def test_r005_missing_all(self, tmp_path):
        path = tmp_path / "no_exports.py"
        path.write_text("def anything():\n    return 1\n")
        report = lint_paths([path], rules=["R005"], root=tmp_path)
        assert [f.rule for f in report.findings] == ["R005"]
        assert "no __all__" in report.findings[0].message

    @staticmethod
    def _lint_source(source, name, rules=None, tmp=None):
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / name
            path.write_text(source)
            return lint_paths([path], rules=rules, root=d)


# Every R001/R002 finding of sources/sim/forms.py as (line, col, rule,
# message): each import form, inside a function, at module level, in a
# class body, in a nested class's method and in a def under `if`.
_GLOBAL_RNG = "; inject a per-component random.Random(seed) instead"
_ENTROPY = " initialises from OS entropy; pass an explicit seed so replays are deterministic"
_TIME = " in a replay-critical layer; use the simulated clock"
_TELEMETRY = _TIME + " (or time.perf_counter for stripped telemetry durations)"
_DATETIME = " in a replay-critical layer; timestamps must come from the simulated clock"
_ENV = (
    " in a replay-critical layer; thread configuration through the spec or"
    " a constructor argument"
)
FORMS_FINDINGS = [
    (30, 4, "R001", "call to the process-global RNG random.shuffle()" + _GLOBAL_RNG),
    (32, 8, "R001", "call to the process-global RNG random.random()" + _GLOBAL_RNG),
    (33, 8, "R001", "call to the process-global RNG random.uniform()" + _GLOBAL_RNG),
    (34, 8, "R001", "unseeded random.Random()" + _ENTROPY),
    (35, 8, "R001", "unseeded Random()" + _ENTROPY),
    (37, 8, "R001", "random.SystemRandom() draws OS entropy and can never replay deterministically"),
    (46, 8, "R002", "wall-clock read time.time()" + _TELEMETRY),
    (47, 8, "R002", "wall-clock read time.time_ns()" + _TELEMETRY),
    (48, 8, "R002", "wall-clock read time.time_ns()" + _TIME),
    (49, 8, "R002", "environment read os.environ" + _ENV),
    (50, 8, "R002", "environment read os.environ" + _ENV),
    (51, 8, "R002", "environment read os.getenv()" + _ENV),
    (52, 8, "R002", "environment read getenv()" + _ENV),
    (53, 8, "R002", "wall-clock read dt.datetime.utcnow()" + _DATETIME),
    (54, 8, "R002", "wall-clock read dt.date.today()" + _DATETIME),
    (55, 8, "R002", "wall-clock read DT.now()" + _DATETIME),
    (56, 8, "R002", "wall-clock read date.today()" + _DATETIME),
    (61, 12, "R002", "wall-clock read time.time()" + _TELEMETRY),
    (65, 20, "R002", "environment read os.environ" + _ENV),
    (71, 19, "R001", "call to the process-global RNG random.uniform()" + _GLOBAL_RNG),
    (71, 42, "R002", "wall-clock read DT.utcnow()" + _DATETIME),
    (77, 15, "R002", "wall-clock read time.time_ns()" + _TELEMETRY),
]


class TestSourceForms:
    def test_every_import_form_in_every_location(self):
        report = lint_fixture("sources/sim/forms.py")
        assert [
            (f.line, f.col, f.rule, f.message) for f in report.findings
        ] == FORMS_FINDINGS
        assert report.counts_by_rule() == {"R001": 7, "R002": 15}


# ---------------------------------------------------------------------------
# compliant code stays silent
# ---------------------------------------------------------------------------


class TestCleanCode:
    def test_clean_fixture_has_no_findings(self):
        report = lint_fixture("clean_module.py")
        assert report.ok, [f.format_text() for f in report.findings]

    def test_inline_suppression_is_line_scoped(self):
        report = lint_fixture("suppressed.py")
        assert report.suppressed == 1
        assert len(report.findings) == 1  # the unsuppressed copy still fires
        assert report.findings[0].rule == "R001"

    def test_seeded_random_accepted(self, tmp_path):
        path = tmp_path / "seeded.py"
        path.write_text(
            "import random\n"
            "__all__ = ['stream']\n"
            "def stream(seed):\n"
            "    return random.Random(f'component:{seed}')\n"
        )
        assert lint_paths([path], root=tmp_path).ok


# ---------------------------------------------------------------------------
# the committed tree is the ultimate fixture
# ---------------------------------------------------------------------------


class TestRepositoryTree:
    def test_src_and_benchmarks_lint_clean(self):
        baseline = load_baseline(REPO_ROOT / ".reprolint-baseline.json")
        report = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "benchmarks"],
            baseline=baseline,
            root=REPO_ROOT,
        )
        assert report.ok, "\n".join(f.format_text() for f in report.findings)
        assert report.baselined >= 1  # __main__.py R005 waiver is in use

    def test_shifting_fix_passes_r003(self):
        report = lint_paths(
            [REPO_ROOT / "src" / "repro" / "adversary" / "shifting.py"],
            rules=["R003"],
            root=REPO_ROOT,
        )
        assert report.ok, [f.format_text() for f in report.findings]

    def test_unsorted_shifting_copy_fails_r003(self):
        # The pre-fix body of patterns_match (fixture copy): reverting
        # the sorted() satellite fix would fail the lint gate.
        report = lint_fixture("r003_shifting_unsorted.py", rules=["R003"])
        assert len(report.findings) == 3
        assert {f.rule for f in report.findings} == {"R003"}

    def test_spec_label_exemption_is_load_bearing(self, tmp_path):
        # Strip the digest-exempt marker from the real ExecutionSpec:
        # R004 must then flag the label field's exclusion from digest().
        source = (REPO_ROOT / "src" / "repro" / "exec" / "spec.py").read_text()
        marker = "# reprolint: digest-exempt"
        assert marker in source
        lines = [
            line.split("  # reprolint:")[0] if marker in line else line
            for line in source.splitlines()
        ]
        stripped = tmp_path / "spec_copy.py"
        stripped.write_text("\n".join(lines) + "\n")
        report = lint_paths([stripped], rules=["R004"], root=tmp_path)
        assert [f.rule for f in report.findings] == ["R004"]
        assert "'label'" in report.findings[0].message


# ---------------------------------------------------------------------------
# engine behaviour: traversal, baseline, errors, determinism
# ---------------------------------------------------------------------------


class TestEngine:
    def test_walk_is_sorted_and_skips_caches(self, tmp_path):
        (tmp_path / "b.py").write_text("__all__ = []\n")
        (tmp_path / "a.py").write_text("__all__ = []\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "c.py").write_text("broken(")
        files = list(iter_python_files([tmp_path]))
        assert [f.name for f in files] == ["a.py", "b.py"]

    def test_unknown_path_and_rule_raise(self, tmp_path):
        with pytest.raises(LintError):
            list(iter_python_files([tmp_path / "missing"]))
        with pytest.raises(LintError):
            lint_paths([FIXTURES / "clean_module.py"], rules=["R999"])

    def test_syntax_error_becomes_e001_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        report = lint_paths([bad], root=tmp_path)
        assert [f.rule for f in report.findings] == ["E001"]

    def test_findings_are_sorted_and_stable(self):
        first = lint_paths([FIXTURES], root=REPO_ROOT)
        second = lint_paths([FIXTURES], root=REPO_ROOT)
        assert [f.as_dict() for f in first.findings] == [
            f.as_dict() for f in second.findings
        ]
        assert first.findings == sorted(
            first.findings, key=lambda f: f.sort_key()
        )

    def test_baseline_roundtrip(self, tmp_path):
        report = lint_fixture("r001_global_random.py")
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, report.findings, reason="test waiver")
        loaded = load_baseline(baseline_path)
        again = lint_paths(
            [FIXTURES / "r001_global_random.py"],
            baseline=loaded,
            root=REPO_ROOT,
        )
        assert again.ok
        assert again.baselined == len(report.findings)

    def test_baseline_matches_path_and_rule_only(self):
        baseline = Baseline(
            entries=(BaselineEntry(path="x.py", rule="R001"),)
        )
        from repro.lint import Finding

        assert baseline.matches(Finding("x.py", 1, 0, "R001", "m"))
        assert not baseline.matches(Finding("x.py", 1, 0, "R002", "m"))
        assert not baseline.matches(Finding("y.py", 1, 0, "R001", "m"))

    def test_rule_registry_is_complete(self):
        # Single-file rules only; R006/R009 live in PROJECT_RULES (see
        # test_lint_graph.py for the whole-program registry).
        assert sorted(RULES) == [
            "R001", "R002", "R003", "R004", "R005", "R007", "R008"
        ]
        for rule in RULES.values():
            assert rule.summary


# ---------------------------------------------------------------------------
# CLI surface: exit codes and output formats
# ---------------------------------------------------------------------------


class TestCli:
    def test_exit_zero_on_clean(self, capsys):
        code = cli_main(["lint", str(FIXTURES / "clean_module.py")])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_findings(self, capsys):
        code = cli_main(
            ["lint", "--no-baseline", str(FIXTURES / "r005_exports.py")]
        )
        assert code == 1
        assert "R005" in capsys.readouterr().out

    def test_exit_two_on_bad_path(self, capsys):
        code = cli_main(["lint", str(FIXTURES / "does_not_exist")])
        assert code == 2
        assert "repro lint:" in capsys.readouterr().err

    def test_json_output_parses(self, capsys):
        code = cli_main(
            ["lint", "--format", "json", "--no-baseline",
             str(FIXTURES / "r001_global_random.py")]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["counts_by_rule"] == {"R001": 3}
        assert all(f["rule"] == "R001" for f in payload["findings"])

    def test_rules_filter(self, capsys):
        code = cli_main(
            ["lint", "--rules", "R002", "--no-baseline",
             str(FIXTURES / "r001_global_random.py")]
        )
        assert code == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R001", "R002", "R003", "R004", "R005",
                        "R006", "R007", "R008", "R009"):
            assert rule_id in out

    def test_write_baseline_accepts_findings(self, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        code = cli_main(
            ["lint", "--write-baseline", "--baseline", str(baseline_path),
             str(FIXTURES / "r001_global_random.py")]
        )
        assert code == 0
        assert baseline_path.exists()
        capsys.readouterr()
        code = cli_main(
            ["lint", "--baseline", str(baseline_path),
             str(FIXTURES / "r001_global_random.py")]
        )
        assert code == 0
        assert "baselined" in capsys.readouterr().out
