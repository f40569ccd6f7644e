"""The ledger's layer tracer still finds every method it patches.

:mod:`benchmarks.ledger.tracing` wraps methods of ``src/`` classes by
name, reading each from the owning class's own ``__dict__``.  A method
that is renamed, deleted or moved to a base class makes ``install``
raise ``KeyError``, which otherwise shows only in a traced ledger run.
"""

from __future__ import annotations

import pytest

from benchmarks.ledger import tracing


@pytest.mark.parametrize("group", [tracing.ENGINE_GROUP, tracing.CAMPAIGN_GROUP])
def test_install_patches_and_uninstall_restores(group, monkeypatch):
    built = []

    class RecordingTracer(tracing.Tracer):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(tracing, "Tracer", RecordingTracer)
    patches = []
    try:
        tracing.install(group)
        patches = list(built[0]._patches)
    finally:
        # Undo whatever was patched, even when install stopped half-way.
        for tracer in built:
            tracer.uninstall()
    assert patches
    # An attribute wrapped twice records the first wrapper as its second
    # original; what must come back is the original of its first patch.
    originals = {}
    for owner, attr, original in patches:
        originals.setdefault((owner, attr), original)
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, f"{owner.__qualname__}.{attr}"
