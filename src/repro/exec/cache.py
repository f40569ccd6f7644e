"""On-disk result cache keyed by execution-spec digest.

Sweeps over large grids re-run many identical executions (the same
``D ∈ {4..128}`` suite under different report sections, repeated CLI
invocations, CI re-runs).  Because an :class:`~repro.exec.spec.ExecutionSpec`
digest pins *every* execution-relevant parameter, a digest hit is safe to
reuse verbatim — the cached summary is byte-identical to what a fresh run
would produce.

Layout and invalidation
-----------------------
Entries live under ``<root>/v<CACHE_VERSION>/<digest[:2]>/<digest>.pkl``.
The root defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-sweeps``.
Invalidation is versioned twice over:

* ``CACHE_VERSION`` (this module) — bumped when the on-disk entry format
  or the :class:`~repro.exec.summary.ExecutionSummary` shape changes;
  old entries are simply orphaned in their ``v<N>`` directory.
* ``SPEC_DIGEST_VERSION`` (:mod:`repro.exec.spec`) — bumped when the
  canonical encoding changes, so stale digests can never alias.

Every entry also embeds its version and digest; a mismatched, truncated,
or unreadable entry is treated as a miss, never an error.

Hygiene and accounting
----------------------
:meth:`ResultCache.put` writes atomically (tmp file + rename), but a
worker killed mid-``put`` — pool breakage, timeout, SIGKILL — leaves the
``*.tmp`` file behind.  :meth:`ResultCache.clear` removes those orphans
along with the entries, and :meth:`ResultCache.orphan_tmp_files` lists
them for ``repro sweep --cache-stats``.  Each instance also counts its
``hits`` / ``misses`` / ``corrupt`` lookups (a *miss* is an absent entry;
*corrupt* is an entry that exists but fails to load or validate), which
the sweep layer folds into :class:`~repro.obs.metrics.SweepMetrics`.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.exec.summary import ExecutionSummary

__all__ = [
    "ResultCache",
    "CACHE_VERSION",
    "CorruptEntry",
    "default_cache_root",
    "load_pickle",
]

#: On-disk entry format version; see module docstring.
#: v2: ExecutionSummary gained fault-accounting fields.
#: v3: ExecutionSummary gained the ``run_metrics`` field.
#: v4: ExecutionSpec gained the ``record_trace`` field (all digests
#: shifted with SPEC_DIGEST_VERSION 3, orphaning every v3 entry).
#: v5: ExecutionSpec gained the ``topology_schedule`` field (all digests
#: shifted with SPEC_DIGEST_VERSION 4, orphaning every v4 entry).
#: v6: FaultSchedule gained Byzantine events (all digests shifted with
#: SPEC_DIGEST_VERSION 5, orphaning every v5 entry).
CACHE_VERSION = 6


class CorruptEntry(Exception):
    """A pickle file exists but cannot be loaded."""


def load_pickle(path: Union[str, Path]) -> Any:
    """The object pickled at ``path``.

    Raises :class:`FileNotFoundError` when there is no file, and
    :class:`CorruptEntry` when there is one that fails to load for any
    reason: truncated bytes, a malformed opcode or literal, or a class
    or module that no longer exists.  The cache and the work queue read
    every entry through here, so an unreadable entry is a miss to them,
    never an error.
    """
    try:
        with open(path, "rb") as handle:
            return pickle.load(handle)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise CorruptEntry(f"unreadable pickle {path}: {exc!r}") from exc


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-sweeps``."""
    # Cache *placement* is environment-dependent by design — entries are
    # keyed by spec digest, so where they live cannot affect results.
    env = os.environ.get("REPRO_CACHE_DIR")  # reprolint: disable=R002
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-sweeps"


class ResultCache:
    """Digest-keyed persistent store of :class:`ExecutionSummary` objects."""

    def __init__(self, root: Optional[Union[str, Path]] = None):
        base = Path(root) if root is not None else default_cache_root()
        self.root = base / f"v{CACHE_VERSION}"
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    def path_for(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.pkl"

    def get(self, digest: str) -> Optional[ExecutionSummary]:
        """The stored summary for ``digest``, or None on any miss/corruption.

        A truncated, unloadable (:func:`load_pickle`), or mis-keyed entry
        is *quarantined* — renamed to ``<entry>.corrupt`` — so the
        poisoned bytes never get re-read on the next lookup and remain
        on disk for post-mortem.
        The lookup itself still reports a clean miss.
        """
        path = self.path_for(digest)
        try:
            entry = load_pickle(path)
        except FileNotFoundError:
            self.misses += 1
            return None
        except CorruptEntry:
            self.corrupt += 1
            self._quarantine(path)
            return None
        summary = entry.get("summary") if isinstance(entry, dict) else None
        if (
            not isinstance(entry, dict)
            or entry.get("version") != CACHE_VERSION
            or entry.get("digest") != digest
            or not isinstance(summary, ExecutionSummary)
        ):
            self.corrupt += 1
            self._quarantine(path)
            return None
        self.hits += 1
        return summary

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Rename a corrupt entry to ``*.corrupt`` (best effort)."""
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            pass

    def put(self, digest: str, summary: ExecutionSummary) -> None:
        """Store ``summary`` atomically (tmp file + fsync + rename).

        The fsync-before-rename matters for crash survival: without it a
        power loss (or an unflushed page cache on a killed host) can
        leave the *renamed* file truncated — exactly the corruption
        :meth:`get` then has to quarantine.  Durable-then-visible means
        a visible entry is always complete.
        """
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"version": CACHE_VERSION, "digest": digest, "summary": summary}
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(entry, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def orphan_tmp_files(self) -> List[Path]:
        """``*.tmp`` leftovers from interrupted :meth:`put` calls."""
        if not self.root.exists():
            return []
        return sorted(self.root.glob("*/*.tmp"))

    def clear(self) -> int:
        """Delete every entry of the current version; returns the entry count.

        Also removes orphaned ``*.tmp`` files left behind by workers
        killed mid-write — previously these accumulated forever because
        only ``*.pkl`` files were matched.  Orphans do not count toward
        the returned total (they were never entries).
        """
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.glob("*/*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for path in self.root.glob("*/*.tmp"):
            try:
                path.unlink()
            except OSError:
                pass
        return removed

    def stats(self) -> Dict[str, int]:
        """Lookup counters plus on-disk state, for ``--cache-stats``."""
        return {
            "entries": len(self),
            "orphan_tmp": len(self.orphan_tmp_files()),
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
        }

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))
