"""The reprolint engine: file traversal, rule dispatch, reporting.

:func:`lint_paths` walks the given files/directories in sorted order,
parses each module once (or reuses its content-hash cache entry, see
:mod:`repro.lint.cache`), runs every applicable single-file rule, then
assembles the per-module summaries into a project-wide call graph and
runs the whole-program rules (R006/R009,
:mod:`repro.lint.project_rules`) over it.  Inline ``# reprolint:
disable=RXXX`` suppressions and the committed baseline apply to both
passes, and findings are sorted by ``(path, line, col, rule)`` — lint
output is deterministic by construction, like everything else in this
repository.  Because the whole-program pass re-runs from summaries on
every invocation, a cold run and a cache-warm run emit byte-identical
reports.

Unparseable files are reported as rule ``E001`` findings rather than
aborting the run, so one syntax error does not hide every other finding
(the broken file simply drops out of the call graph until it parses).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.errors import LintError
from repro.lint.baseline import Baseline
from repro.lint.cache import LintCache, file_sha256
from repro.lint.findings import Finding, ModuleInfo
from repro.lint.graph import ModuleSummary, ProjectIndex, summarize_module
from repro.lint.project_rules import PROJECT_RULES, ProjectRule
from repro.lint.rules import RULES, Rule
from repro.lint.taint import TaintAnalysis

__all__ = [
    "LintReport",
    "iter_python_files",
    "lint_paths",
    "all_rule_ids",
    "PARSE_ERROR_RULE",
]

#: Pseudo-rule id for files that fail to parse; not suppressible inline.
PARSE_ERROR_RULE = "E001"

_SKIP_DIRS = frozenset(
    {
        "__pycache__",
        "build",
        "dist",
        ".git",
        ".hypothesis",
        ".pytest_cache",
        ".benchmarks",
    }
)


def _skip_dir(name: str) -> bool:
    return name in _SKIP_DIRS or name.startswith(".") or name.endswith(".egg-info")


def iter_python_files(paths: Sequence[Union[str, Path]]) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths`` in a deterministic order.

    Directories are walked recursively with sorted listings; cache,
    build, hidden, and ``*.egg-info`` directories are skipped.  A path
    that exists but is neither a ``.py`` file nor a directory, or does
    not exist at all, raises :class:`~repro.errors.LintError`.
    """
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix != ".py":
                raise LintError(f"not a Python file: {path}")
            yield path
        elif path.is_dir():
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    name for name in dirnames if not _skip_dir(name)
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield Path(dirpath) / filename
        else:
            raise LintError(f"no such file or directory: {path}")


def all_rule_ids() -> List[str]:
    """Every registered rule id, single-file and whole-program, sorted."""
    return sorted(set(RULES) | set(PROJECT_RULES))


@dataclass
class LintReport:
    """The outcome of one lint run.

    ``files_cached``/``files_reanalyzed`` describe how the incremental
    cache behaved; they are deliberately **excluded** from
    :meth:`as_dict` so cold and warm runs serialize byte-identically.
    """

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    baselined: int = 0
    files_cached: int = 0
    files_reanalyzed: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> dict:
        counts: dict = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
            "counts_by_rule": self.counts_by_rule(),
            "findings": [finding.as_dict() for finding in self.findings],
        }

    def summary_line(self) -> str:
        status = "clean" if self.ok else f"{len(self.findings)} finding(s)"
        return (
            f"{status}: {self.files_checked} file(s) checked, "
            f"{self.suppressed} suppressed inline, "
            f"{self.baselined} baselined"
        )


def _relpath(path: Path, root: Path) -> str:
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        rel = path
    return rel.as_posix()


def _split_rules(rules: Optional[Iterable[str]]):
    """Validate a ``--rules`` filter against both registries."""
    if rules is None:
        file_rules: List[Rule] = [RULES[rule_id] for rule_id in sorted(RULES)]
        project_rules: List[ProjectRule] = [
            PROJECT_RULES[rule_id] for rule_id in sorted(PROJECT_RULES)
        ]
        return file_rules, project_rules
    wanted = set(rules)
    unknown = sorted(wanted - set(RULES) - set(PROJECT_RULES))
    if unknown:
        raise LintError(f"unknown rule id(s): {', '.join(unknown)}")
    file_rules = [RULES[rule_id] for rule_id in sorted(wanted & set(RULES))]
    project_rules = [
        PROJECT_RULES[rule_id] for rule_id in sorted(wanted & set(PROJECT_RULES))
    ]
    return file_rules, project_rules


def _lint_one_file(
    path: Path, relpath: str, source: str, active: Sequence[Rule]
):
    """Run the single-file pass; returns (findings, suppressed, summary)."""
    try:
        module = ModuleInfo.parse(path, relpath, source)
    except SyntaxError as exc:
        finding = Finding(
            path=relpath,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule=PARSE_ERROR_RULE,
            message=f"syntax error: {exc.msg}",
        )
        return [finding], 0, None
    summary = summarize_module(module)
    findings: List[Finding] = []
    suppressed = 0
    for rule in active:
        if not rule.applies(module):
            continue
        for finding in rule.check(module, summary):
            if rule.id in module.suppressions.get(finding.line, set()):
                suppressed += 1
            else:
                findings.append(finding)
    return findings, suppressed, summary


def lint_paths(
    paths: Sequence[Union[str, Path]],
    rules: Optional[Iterable[str]] = None,
    baseline: Optional[Baseline] = None,
    root: Optional[Union[str, Path]] = None,
    graph: bool = True,
    cache_path: Optional[Union[str, Path]] = None,
) -> LintReport:
    """Lint ``paths`` and return a :class:`LintReport`.

    Parameters
    ----------
    paths:
        Files and/or directories to lint.
    rules:
        Optional iterable of rule ids to run (default: all registered
        rules, single-file and whole-program).  Unknown ids raise
        :class:`~repro.errors.LintError`.
    baseline:
        Optional committed :class:`~repro.lint.baseline.Baseline`;
        matched findings are counted, not reported.
    root:
        Directory findings paths are reported relative to (default:
        the current working directory).
    graph:
        Run the whole-program pass (module summaries → call graph →
        R006/R009).  Disable for single-file-only linting.
    cache_path:
        Optional path to the incremental cache file.  Unchanged files
        (by sha256) reuse their cached findings and module summary;
        the whole-program pass always re-runs, so results are
        byte-identical with and without a warm cache.
    """
    file_rules, project_rules = _split_rules(rules)

    root_path = Path(root) if root is not None else Path.cwd()
    cache: Optional[LintCache] = None
    if cache_path is not None:
        cache = LintCache.load(cache_path, [rule.id for rule in file_rules])

    report = LintReport()
    summaries: List[ModuleSummary] = []
    summary_by_path: Dict[str, ModuleSummary] = {}
    relpaths: List[str] = []
    for path in iter_python_files(paths):
        report.files_checked += 1
        relpath = _relpath(path, root_path)
        relpaths.append(relpath)
        try:
            source = path.read_text()
        except OSError as exc:
            raise LintError(f"cannot read {path}: {exc}") from exc
        sha = file_sha256(source)
        entry = cache.get(relpath, sha) if cache is not None else None
        if entry is not None:
            report.files_cached += 1
            findings = entry.findings
            suppressed = entry.suppressed
            summary = entry.summary
        else:
            report.files_reanalyzed += 1
            findings, suppressed, summary = _lint_one_file(
                path, relpath, source, file_rules
            )
            if cache is not None:
                cache.put(relpath, sha, findings, suppressed, summary)
        report.suppressed += suppressed
        for finding in findings:
            if baseline is not None and baseline.matches(finding):
                report.baselined += 1
            else:
                report.findings.append(finding)
        if summary is not None:
            summaries.append(summary)
            summary_by_path[relpath] = summary

    if graph and project_rules:
        index = ProjectIndex(summaries)
        taint = TaintAnalysis(index)
        for project_rule in project_rules:
            for finding in project_rule.check(index, taint):
                summary = summary_by_path.get(finding.path)
                disabled = (
                    summary.suppressions.get(finding.line, [])
                    if summary is not None
                    else []
                )
                if project_rule.id in disabled:
                    report.suppressed += 1
                elif baseline is not None and baseline.matches(finding):
                    report.baselined += 1
                else:
                    report.findings.append(finding)

    if cache is not None and cache_path is not None:
        cache.retain(relpaths)
        cache.save(cache_path)

    report.findings.sort(key=Finding.sort_key)
    return report
