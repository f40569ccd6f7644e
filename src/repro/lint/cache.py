"""Content-hash incremental cache for the reprolint engine.

Per-file lint work (parsing, single-file rules, module summarization) is
pure in the file's bytes, so it is cached under the file's sha256 and
reused verbatim while the file is unchanged.  The whole-program pass
(R006/R009) is *never* cached: it re-runs over the current set of module
summaries every invocation, so editing one module re-analyzes its
dependents' interprocedural findings without re-parsing their files —
and a cold run and a warm run produce byte-identical reports by
construction.

Cache entries hold, per relpath:

* ``sha`` — sha256 of the source bytes;
* ``findings`` — single-file findings *after* inline suppression but
  *before* baseline matching (the baseline can change independently of
  the file, so it must be re-applied on every run);
* ``suppressed`` — how many findings inline comments suppressed;
* ``summary`` — the :class:`~repro.lint.graph.ModuleSummary`, or null
  for files that failed to parse.

The whole cache is keyed by :data:`LINT_CACHE_VERSION` and the active
single-file rule ids; a mismatch (new reprolint version, different
``--rules`` filter) or any corruption silently discards it — the cache
is an accelerator, never a source of truth.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.lint.findings import Finding
from repro.lint.graph import ModuleSummary

__all__ = ["LINT_CACHE_VERSION", "CacheEntry", "LintCache", "file_sha256"]

#: Bump when rule semantics or the summary/finding schema change.
LINT_CACHE_VERSION = 2

_MAGIC = "reprolint"


def file_sha256(source: str) -> str:
    """sha256 hex digest of a module's source text (utf-8 bytes)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


@dataclass
class CacheEntry:
    """One file's cached lint artifacts."""

    sha: str
    findings: List[Finding]
    suppressed: int
    summary: Optional[ModuleSummary]

    def as_dict(self) -> dict:
        return {
            "sha": self.sha,
            "findings": [finding.as_dict() for finding in self.findings],
            "suppressed": self.suppressed,
            "summary": self.summary.as_dict() if self.summary else None,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "CacheEntry":
        summary = raw.get("summary")
        return cls(
            sha=str(raw["sha"]),
            findings=[Finding.from_dict(f) for f in raw["findings"]],
            suppressed=int(raw["suppressed"]),
            summary=ModuleSummary.from_dict(summary) if summary else None,
        )


class LintCache:
    """The on-disk incremental cache, loaded once per lint run."""

    def __init__(self, rule_ids: Sequence[str]):
        self.rule_ids = sorted(rule_ids)
        self.entries: Dict[str, CacheEntry] = {}

    @classmethod
    def load(
        cls, path: Union[str, Path], rule_ids: Sequence[str]
    ) -> "LintCache":
        """Load the cache at ``path``; any mismatch yields an empty cache."""
        cache = cls(rule_ids)
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return cache
        if not isinstance(data, dict):
            return cache
        if data.get("lint_cache") != _MAGIC:
            return cache
        if data.get("version") != LINT_CACHE_VERSION:
            return cache
        if data.get("rules") != cache.rule_ids:
            return cache
        files = data.get("files")
        if not isinstance(files, dict):
            return cache
        try:
            for relpath, raw in files.items():
                cache.entries[str(relpath)] = CacheEntry.from_dict(raw)
        except (KeyError, TypeError, ValueError):
            cache.entries.clear()
        return cache

    def get(self, relpath: str, sha: str) -> Optional[CacheEntry]:
        entry = self.entries.get(relpath)
        if entry is not None and entry.sha == sha:
            return entry
        return None

    def put(
        self,
        relpath: str,
        sha: str,
        findings: List[Finding],
        suppressed: int,
        summary: Optional[ModuleSummary],
    ) -> CacheEntry:
        entry = CacheEntry(
            sha=sha,
            findings=list(findings),
            suppressed=suppressed,
            summary=summary,
        )
        self.entries[relpath] = entry
        return entry

    def retain(self, relpaths: Sequence[str]) -> None:
        """Drop entries for files no longer part of the lint run."""
        keep = set(relpaths)
        for relpath in sorted(set(self.entries) - keep):
            del self.entries[relpath]

    def save(self, path: Union[str, Path]) -> None:
        payload = {
            "lint_cache": _MAGIC,
            "version": LINT_CACHE_VERSION,
            "rules": self.rule_ids,
            "files": {
                relpath: self.entries[relpath].as_dict()
                for relpath in sorted(self.entries)
            },
        }
        Path(path).write_text(
            json.dumps(payload, indent=None, separators=(",", ":"), sort_keys=True)
        )
