"""Order-independent per-message randomness.

Probabilistic fault decisions (drop / duplicate / delay spike) must be a
pure function of *which message* is affected, never of how many random
draws happened before — otherwise adding an unrelated fault, reordering a
sweep, or replaying a cached spec would change which messages are lost
and break byte-identical replay (the :class:`~repro.exec.pool.SweepExecutor`
determinism contract).

:func:`stable_uniform` therefore derives a uniform variate in ``[0, 1)``
from a SHA-256 of the decision key ``(seed, *parts)``.  It is stable
across processes and platforms (unlike ``hash()``, which is salted by
``PYTHONHASHSEED``) and independent of global call order (unlike a shared
``random.Random`` stream).  Keys are built from ``repr``, which is a
round-trip representation for the hashables used as node ids and for
IEEE-754 floats.

A caller that draws several kinds for the same key parts (the fault
injector draws ``drop``, ``dup`` and ``spike`` for one message) can
encode the parts once: :func:`prefix_state` absorbs the key's opening
``(seed, kind`` and :func:`uniform_after` finishes a copy with the
encoded rest.  Both hash exactly the bytes :func:`stable_uniform` hashes,
which stays the definition.
"""

from __future__ import annotations

import hashlib

__all__ = ["prefix_state", "stable_uniform", "uniform_after"]

#: 2**64, the scale of the 8-byte hash prefix.
_SCALE = float(1 << 64)


def stable_uniform(seed: int, *parts: object) -> float:
    """A deterministic uniform variate in ``[0, 1)`` keyed by the arguments.

    >>> stable_uniform(0, "a", "b", 1.5, 3) == stable_uniform(0, "a", "b", 1.5, 3)
    True
    >>> stable_uniform(0, "x") != stable_uniform(1, "x")
    True
    """
    token = repr((seed,) + parts).encode("utf-8")
    prefix = hashlib.sha256(token).digest()[:8]
    return int.from_bytes(prefix, "big") / _SCALE


def prefix_state(seed: int, kind: object):
    """A SHA-256 state that has absorbed the opening ``(seed, kind`` of a key.

    A tuple's ``repr`` is ``"(" + ", ".join(map(repr, items)) + ")"``, so
    the rest of ``repr((seed, kind, *parts))`` is each part as
    ``f", {part!r}"`` and a closing ``")"``.  :func:`uniform_after` with
    that tail gives ``stable_uniform(seed, kind, *parts)``, bit for bit:

    >>> tail = ", 'a', 'b', 1.5, 3)".encode("utf-8")
    >>> uniform_after(prefix_state(0, "drop"), tail) == stable_uniform(
    ...     0, "drop", "a", "b", 1.5, 3
    ... )
    True
    """
    return hashlib.sha256(f"({seed!r}, {kind!r}".encode("utf-8"))


def uniform_after(prefix, tail: bytes) -> float:
    """The uniform variate of ``prefix`` (left untouched) followed by ``tail``."""
    state = prefix.copy()
    state.update(tail)
    return int.from_bytes(state.digest()[:8], "big") / _SCALE
