"""Outage windows shared by the fault and dynamic-topology layers.

Both the fault layer (:mod:`repro.faults.injector`) and the
dynamic-topology layer (:mod:`repro.topology.dynamic`) describe outages
as alternating down/up event lists and query them as sorted
``[start, end)`` windows: a crash is a leave, a downed link is an absent
edge.  :class:`Windows` compiles and answers both, and lives here, below
both layers, so neither package needs to import the other.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.errors import ScheduleError

__all__ = ["Windows", "check_time", "total_overlap", "INFINITY"]

INFINITY = float("inf")


def check_time(name: str, value: float) -> float:
    """``value`` as a float; a negative schedule time is a :class:`ScheduleError`."""
    value = float(value)
    if value < 0:
        raise ScheduleError(f"{name} must be non-negative, got {value}")
    return value


def total_overlap(
    windows: Iterable[Tuple[float, float]], a: float, b: float
) -> float:
    """Summed length of each window's overlap with ``[a, b]``, in order.

    A window that never closes counts until ``b``.
    """
    total = 0.0
    for start, end in windows:
        overlap = min(end, b) - max(start, a)
        if overlap > 0.0:
            total += overlap
    return total


def _compile(
    events: List[Tuple[float, str]], down_kind: str, up_kind: str, subject: str
) -> List[Tuple[float, float]]:
    """Alternating down/up events → sorted ``[start, end)`` windows.

    Events are time-sorted first (stably), so an up event can only fail by
    having no down event before it.
    """
    windows: List[Tuple[float, float]] = []
    down_since: Optional[float] = None
    for time, kind in sorted(events, key=lambda pair: pair[0]):
        if kind == down_kind:
            if down_since is not None:
                raise ScheduleError(
                    f"{subject}: {down_kind!r} at t={time} while already down "
                    f"since t={down_since}"
                )
            down_since = time
        elif kind == up_kind:
            if down_since is None:
                raise ScheduleError(
                    f"{subject}: {up_kind!r} at t={time} without a prior "
                    f"{down_kind!r}"
                )
            windows.append((down_since, time))
            down_since = None
        else:  # pragma: no cover - defensive
            raise ScheduleError(f"{subject}: unknown fault kind {kind!r}")
    if down_since is not None:
        windows.append((down_since, INFINITY))
    return windows


class Windows:
    """Per-key ``[start, end)`` outage windows compiled from events.

    Parameters
    ----------
    events:
        ``(time, key, kind)`` tuples, ``kind`` one of ``down_kind`` and
        ``up_kind``; a down event with no later up event lasts forever.
    subject:
        What a key is (``"node"``, ``"link"``, ...), for error messages.
    pairs:
        Keys are undirected node pairs: ``(u, v)`` and ``(v, u)`` name
        one key, reported in the orientation seen first, and both
        orientations answer queries.
    """

    def __init__(
        self,
        events: Iterable[Tuple[float, Hashable, str]],
        down_kind: str,
        up_kind: str,
        subject: str,
        pairs: bool = False,
    ):
        self.down_kind = down_kind
        self.up_kind = up_kind
        self.subject = subject
        self.pairs = pairs
        grouped: Dict[Hashable, List[Tuple[float, str]]] = {}
        aliases: Dict[Hashable, Hashable] = {}
        for time, key, kind in events:
            if pairs:
                u, v = key
                key = aliases.get((u, v)) or aliases.get((v, u)) or (u, v)
                aliases[(u, v)] = aliases[(v, u)] = key
            grouped.setdefault(key, []).append((time, kind))
        #: Each key once, in first-seen order and orientation.
        self.keys: Tuple[Hashable, ...] = tuple(grouped)
        self._windows: Dict[Hashable, List[Tuple[float, float]]] = {}
        for key, key_events in grouped.items():
            windows = _compile(key_events, down_kind, up_kind, f"{subject} {key!r}")
            self._windows[key] = windows
            if pairs:
                self._windows[key[::-1]] = windows

    def check_targets(self, topology, owner: str) -> None:
        """Raise unless every key is a node (or, with ``pairs``, an edge) of ``topology``."""
        known = set(topology.nodes)
        for key in self.keys:
            if self.pairs:
                u, v = key
                present = u in known and v in topology.neighbors(u)
            else:
                present = key in known
            if not present:
                raise ScheduleError(f"{owner} names unknown {self.subject} {key!r}")

    def is_down(self, key: Hashable, t: float) -> bool:
        """Whether ``t`` falls inside one of ``key``'s windows."""
        windows = self._windows.get(key)
        if windows is None:
            return False
        i = bisect_right(windows, (t, INFINITY)) - 1
        return i >= 0 and t < windows[i][1]

    def next_up(self, key: Hashable, t: float) -> Optional[float]:
        """The end of ``key``'s window covering ``t``, or None.

        ``None`` means ``key`` is either up at ``t`` or down forever.
        """
        windows = self._windows.get(key)
        if not windows:
            return None
        i = bisect_right(windows, (t, INFINITY)) - 1
        if i < 0 or t >= windows[i][1]:
            return None
        end = windows[i][1]
        return None if end == INFINITY else end

    def intervals(self, key: Hashable) -> Tuple[Tuple[float, float], ...]:
        """The compiled ``[start, end)`` windows of ``key``."""
        return tuple(self._windows.get(key, ()))

    def overlap(self, key: Hashable, a: float, b: float) -> float:
        """Total length of ``key``'s windows overlapping ``[a, b]``."""
        return total_overlap(self._windows.get(key, ()), a, b)

    def timeline(self) -> List[Tuple[float, Hashable, str]]:
        """Every down/up transition as ``(time, key, kind)``, time-sorted.

        Ties keep key order (first seen), then each key's window order.
        Up transitions at infinity (windows that never close) are left out.
        """
        timeline: List[Tuple[float, Hashable, str]] = []
        for key in self.keys:
            for start, end in self._windows[key]:
                timeline.append((start, key, self.down_kind))
                if end != INFINITY:
                    timeline.append((end, key, self.up_kind))
        timeline.sort(key=lambda item: item[0])
        return timeline
