"""Resumable campaign manifests: canonical JSON, atomic writes.

A campaign — a ``repro sweep`` over a diameter grid, a ``repro certify``
fuzzing run, a Monte-Carlo batch — is a *set of spec digests plus their
progress*.  :class:`CampaignManifest` records exactly that, nothing
more: per-digest state (``pending``/``leased``/``done``/``quarantined``),
attempt counts, the cache and digest versions the campaign was started
under, and a free-form ``meta`` mapping the CLI uses to sanity-check
resumes.  No wall-clock timestamps are recorded: the manifest is a pure
function of campaign progress, so two campaigns that did the same work
write byte-identical manifests (and the file lives happily inside the
R002-linted ``exec`` layer).

The file is canonical JSON (sorted keys, fixed indentation) written
atomically — serialize to a temp file, ``fsync``, ``os.replace`` — so a
manifest on disk is always complete and parseable, even if the campaign
driver is SIGKILLed mid-write.  ``repro sweep --resume`` and ``repro
certify --resume`` load it, skip ``done`` digests (served from the
result cache or the work-queue results directory), refuse to re-run
``quarantined`` ones, and re-enqueue the rest.

State semantics
---------------
``pending``
    Not yet picked up (or picked up with no surviving evidence).
``leased``
    No longer written; manifests from earlier versions still load with
    it.  On resume it is indistinguishable from ``pending``: the work is
    re-enqueued and the content-addressed result store makes the
    re-run idempotent.
``done``
    A summary exists; resume serves it from the cache/results store.
``quarantined``
    Failed for good: the retry budget was spent (or the spec could not
    be dispatched at all, e.g. it does not pickle).  Resume reports it
    as failed *without* re-running; delete the entry (or the manifest)
    to force a retry.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.exec.cache import CACHE_VERSION
from repro.exec.spec import SPEC_DIGEST_VERSION

__all__ = [
    "CampaignManifest",
    "ManifestEntry",
    "MANIFEST_VERSION",
    "SPEC_STATES",
]

#: On-disk manifest format version.
MANIFEST_VERSION = 1

#: The per-spec campaign states, in lifecycle order.
SPEC_STATES = ("pending", "leased", "done", "quarantined")

#: States that resume re-enqueues.
_UNFINISHED = frozenset({"pending", "leased"})


@dataclass
class ManifestEntry:
    """One spec's campaign progress."""

    digest: str
    label: str = ""
    state: str = "pending"
    attempts: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "digest": self.digest,
            "label": self.label,
            "state": self.state,
            "attempts": self.attempts,
        }


class CampaignManifest:
    """Ordered digest → :class:`ManifestEntry` map with atomic persistence.

    Entries keep campaign (input) order — the order summaries are
    reported in — while lookups are by digest.  ``path`` remembers where
    :meth:`save` writes, so progress hooks can persist without threading
    the location everywhere.
    """

    def __init__(
        self,
        entries: Optional[Iterable[ManifestEntry]] = None,
        meta: Optional[Mapping[str, object]] = None,
        path: Optional[Union[str, "os.PathLike[str]"]] = None,
        cache_version: int = CACHE_VERSION,
        spec_digest_version: int = SPEC_DIGEST_VERSION,
    ):
        self._entries: Dict[str, ManifestEntry] = {}
        for entry in entries or ():
            self._entries[entry.digest] = entry
        self.meta: Dict[str, object] = dict(meta or {})
        self.path = os.fspath(path) if path is not None else None
        self.cache_version = cache_version
        self.spec_digest_version = spec_digest_version

    # -- construction ----------------------------------------------------------

    @classmethod
    def for_specs(
        cls,
        specs: Sequence,
        meta: Optional[Mapping[str, object]] = None,
        path: Optional[Union[str, "os.PathLike[str]"]] = None,
    ) -> "CampaignManifest":
        """A fresh all-``pending`` manifest over ``specs`` (in order)."""
        return cls(
            entries=[
                ManifestEntry(digest=spec.digest(), label=spec.label)
                for spec in specs
            ],
            meta=meta,
            path=path,
        )

    @classmethod
    def load(
        cls, path: Union[str, "os.PathLike[str]"]
    ) -> "CampaignManifest":
        """Load and validate a manifest written by :meth:`save`.

        Raises :class:`~repro.errors.ConfigurationError` on a malformed
        file or a cache/digest version mismatch — a manifest from an
        older library version names digests that can no longer alias
        current results, so resuming it would silently re-run everything
        while *appearing* to resume.  Refusing loudly is safer.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"cannot load campaign manifest {os.fspath(path)!r}: {exc}"
            ) from exc
        if (
            not isinstance(payload, dict)
            or payload.get("manifest") != "repro-campaign"
        ):
            raise ConfigurationError(
                f"{os.fspath(path)!r} is not a repro campaign manifest"
            )
        if payload.get("version") != MANIFEST_VERSION:
            raise ConfigurationError(
                f"manifest version {payload.get('version')!r} unsupported "
                f"(this build writes v{MANIFEST_VERSION})"
            )
        if payload.get("cache_version") != CACHE_VERSION or payload.get(
            "spec_digest_version"
        ) != SPEC_DIGEST_VERSION:
            raise ConfigurationError(
                "manifest was written under cache/digest versions "
                f"{payload.get('cache_version')}/{payload.get('spec_digest_version')} "
                f"but this build uses {CACHE_VERSION}/{SPEC_DIGEST_VERSION}; "
                "completed work cannot be trusted — start a fresh campaign"
            )
        entries = []
        for record in payload.get("specs", ()):
            state = record.get("state", "pending")
            if state not in SPEC_STATES:
                raise ConfigurationError(
                    f"manifest entry {record.get('digest')!r} has unknown "
                    f"state {state!r}"
                )
            entries.append(
                ManifestEntry(
                    digest=record["digest"],
                    label=record.get("label", ""),
                    state=state,
                    attempts=int(record.get("attempts", 0)),
                )
            )
        return cls(
            entries=entries, meta=payload.get("meta", {}), path=path
        )

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    def digests(self) -> List[str]:
        """All digests in campaign order."""
        return list(self._entries)

    def entry(self, digest: str) -> Optional[ManifestEntry]:
        return self._entries.get(digest)

    def state(self, digest: str) -> Optional[str]:
        entry = self._entries.get(digest)
        return entry.state if entry is not None else None

    def attempts(self, digest: str) -> int:
        entry = self._entries.get(digest)
        return entry.attempts if entry is not None else 0

    def unfinished(self) -> List[str]:
        """Digests resume must re-enqueue (``pending`` + ``leased``)."""
        return [
            digest
            for digest, entry in self._entries.items()
            if entry.state in _UNFINISHED
        ]

    def counts(self) -> Dict[str, int]:
        """State → entry count (every state present, possibly 0)."""
        totals = {state: 0 for state in SPEC_STATES}
        for entry in self._entries.values():
            totals[entry.state] += 1
        return totals

    @property
    def complete(self) -> bool:
        """True when no entry is still pending or leased."""
        return not any(
            entry.state in _UNFINISHED for entry in self._entries.values()
        )

    # -- updates ---------------------------------------------------------------

    def ensure(self, digest: str, label: str = "") -> ManifestEntry:
        """The entry for ``digest``, creating a pending one if absent."""
        entry = self._entries.get(digest)
        if entry is None:
            entry = ManifestEntry(digest=digest, label=label)
            self._entries[digest] = entry
        return entry

    def mark(
        self,
        digest: str,
        state: str,
        attempts: Optional[int] = None,
        label: str = "",
    ) -> None:
        """Set ``digest``'s state (and attempt count, monotonically)."""
        if state not in SPEC_STATES:
            raise ConfigurationError(f"unknown manifest state {state!r}")
        entry = self.ensure(digest, label)
        entry.state = state
        if label and not entry.label:
            entry.label = label
        if attempts is not None:
            entry.attempts = max(entry.attempts, int(attempts))

    # -- persistence -----------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """The canonical JSON-ready payload (campaign order preserved)."""
        return {
            "manifest": "repro-campaign",
            "version": MANIFEST_VERSION,
            "cache_version": self.cache_version,
            "spec_digest_version": self.spec_digest_version,
            "meta": dict(self.meta),
            "counts": self.counts(),
            "specs": [entry.as_dict() for entry in self._entries.values()],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def save(
        self, path: Optional[Union[str, "os.PathLike[str]"]] = None
    ) -> str:
        """Write atomically (temp file + fsync + rename); returns the path.

        A reader — a resume, a human, a monitoring script — therefore
        never observes a torn manifest, no matter when the campaign
        driver dies.
        """
        target = os.fspath(path) if path is not None else self.path
        if target is None:
            raise ConfigurationError(
                "manifest has no path; pass one to save() or the constructor"
            )
        self.path = target
        directory = os.path.dirname(os.path.abspath(target))
        os.makedirs(directory, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=directory, suffix=".manifest.tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(self.to_json())
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return target
