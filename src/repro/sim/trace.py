"""Execution traces with *exact* skew evaluation.

Because adversarial rate schedules are piecewise-constant, every clock in
an execution is piecewise-linear in real time.  This module records the
breakpoint structure of each logical clock and evaluates skews exactly:

* the difference ``L_v − L_w`` of two piecewise-linear functions is
  piecewise-linear, so its extremum over an interval is attained at a
  breakpoint of either clock;
* the spread ``max_v L_v − min_v L_v`` is a maximum of linear functions
  minus a minimum of linear functions on each common linearity interval,
  hence convex there, so its maximum is attained at interval endpoints —
  i.e. again at breakpoints.

Therefore evaluating at the merged breakpoints (plus the horizon) yields
the true worst case of Definitions 3.1 and 3.2 for the executed schedule,
with no sampling error.  Discontinuous clock jumps (baselines with
unbounded rates, β = ∞) are supported by additionally evaluating left
limits at jump points.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.errors import TraceError
from repro.obs.metrics import RunMetrics
from repro.sim.clock import HardwareClock
from repro.topology.generators import Topology

try:  # numpy is optional; every result below is identical without it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None

#: Evaluation cells (records × instants) one window of the skew fold may
#: hold: a fold over more instants runs in windows of
#: ``max(1, FLUSH_CELLS // records)`` (the streaming tracker's flush).
FLUSH_CELLS = 16384

#: Fold size (instants) from which the skew fold evaluates through numpy;
#: smaller folds, and every fold without numpy, evaluate per instant.
VECTOR_MIN_INSTANTS = 8

__all__ = [
    "LogicalClockRecord",
    "MessageRecord",
    "ProbeRecord",
    "ExecutionTrace",
    "SkewExtremum",
]

NodeId = Hashable


class LogicalClockRecord:
    """Piecewise record of one node's logical clock.

    Between checkpoints the logical clock advances at ``ρ · h_v``, i.e.
    ``L(t) = L_k + ρ_k · (H(t) − H(t_k))`` on ``[t_k, t_{k+1})``.  A
    checkpoint is appended whenever the rate multiplier ``ρ`` changes or
    the clock jumps discontinuously.

    The four checkpoint columns (``t_k``, ``L_k``, ``ρ_k`` and ``H(t_k)``)
    are ``array('d')`` buffers: 32 bytes per checkpoint, holding the same
    IEEE doubles a list of floats would.
    """

    __slots__ = (
        "_hardware",
        "_times",
        "_values",
        "_multipliers",
        "_anchor_hws",
        "_jump_times",
        "_start",
        "_count",
        "_memo_t",
        "_memo_v",
    )

    #: Minimum number of stale leading checkpoints before :meth:`prune_to`
    #: deletes them from the columns, amortizing the O(len) deletions.
    PRUNE_BATCH = 32

    def __init__(self, hardware: HardwareClock, initial_multiplier: float = 1.0):
        self._hardware = hardware
        start = hardware.start_time
        self._start: float = start
        self._times = array("d", (start,))
        self._values = array("d", (0.0,))
        # H(t_k) per checkpoint, cached at append time: value() subtracts
        # it from H(t), the identical float the original formula computed
        # by re-evaluating the hardware clock at the anchor on each query.
        self._anchor_hws = array("d", (hardware.value(start),))
        self._multipliers = array("d", (initial_multiplier,))
        self._jump_times: List[float] = []
        self._count: int = 1
        # Single-entry memo for value(); invalidated on every append.
        self._memo_t: Optional[float] = None
        self._memo_v: float = 0.0

    @property
    def hardware(self) -> HardwareClock:
        return self._hardware

    @property
    def start_time(self) -> float:
        return self._start

    def checkpoint(self, t: float, multiplier: float) -> None:
        """Record a rate-multiplier change at time ``t`` (continuous)."""
        self.append(t, self.value(t), multiplier, self._hardware.value(t))

    def jump(self, t: float, new_value: float) -> None:
        """Record a discontinuous jump of the clock value at time ``t``."""
        current = self.value(t)
        if new_value < current - 1e-9:
            raise TraceError(
                f"logical clock jump backwards at t={t}: {current} -> {new_value}"
            )
        if new_value != current:
            self._jump_times.append(t)
        self.append(t, new_value, self._multipliers[-1], self._hardware.value(t))

    def append(
        self, t: float, value: float, multiplier: float, hardware_value: float
    ) -> None:
        """Append the checkpoint ``(t, value, multiplier)``.

        ``value`` is the clock's value from ``t`` on and ``hardware_value``
        is ``H(t)``: readings the caller already took at ``t`` (the engine
        reads both once per callback), so the record re-evaluates neither.
        """
        times = self._times
        if t < times[-1]:
            raise TraceError(
                f"checkpoint at {t} precedes last checkpoint {times[-1]}"
            )
        self._memo_t = None
        if t == times[-1]:
            # Same-instant update replaces the last checkpoint's future.
            self._values[-1] = value
            self._multipliers[-1] = multiplier
        else:
            times.append(t)
            self._values.append(value)
            self._anchor_hws.append(hardware_value)
            self._multipliers.append(multiplier)
            self._count += 1

    # -- evaluation ---------------------------------------------------------

    def _segment_index(self, t: float) -> int:
        if t < self._times[0]:
            if t >= self._start:
                raise TraceError(
                    f"time {t} falls in the pruned prefix of this clock record "
                    f"(kept from {self._times[0]})"
                )
            raise TraceError(f"time {t} precedes clock start {self._start}")
        return bisect_right(self._times, t) - 1

    def value(self, t: float) -> float:
        """Logical clock value at real time ``t`` (0 before the start).

        Right-continuous at jump points.
        """
        if t == self._memo_t:
            return self._memo_v
        times = self._times
        if t >= times[-1]:
            i = len(times) - 1
        elif t < times[0]:
            if t < self._start:
                return 0.0
            raise TraceError(
                f"time {t} falls in the pruned prefix of this clock record "
                f"(kept from {times[0]})"
            )
        else:
            i = bisect_right(times, t) - 1
        v = self._values[i] + self._multipliers[i] * (
            self._hardware.value(t) - self._anchor_hws[i]
        )
        self._memo_t = t
        self._memo_v = v
        return v

    def value_left(self, t: float) -> float:
        """Left limit of the clock at ``t`` (differs from value at jumps)."""
        times = self._times
        if t <= times[0]:
            if t <= self._start:
                return 0.0
            raise TraceError(
                f"time {t} falls in the pruned prefix of this clock record "
                f"(kept from {times[0]})"
            )
        if t > times[-1]:
            i = len(times) - 1
        else:
            i = bisect_right(times, t) - 1
            if times[i] == t and i > 0:
                i -= 1
        return self._values[i] + self._multipliers[i] * (
            self._hardware.value(t) - self._anchor_hws[i]
        )

    # ROADMAP item 8 deletes these two with benchmarks/ledger/tracing.py,
    # which patches them by name.
    def values_at(self, ts: Sequence[float]) -> List[float]:
        """:meth:`value` at each of ``ts``."""
        return [self.value(t) for t in ts]

    def values_left_at(self, ts: Sequence[float]) -> List[float]:
        """:meth:`value_left` at each of ``ts``."""
        return [self.value_left(t) for t in ts]

    def multiplier_at(self, t: float) -> float:
        """The rate multiplier ρ in effect at time ``t``."""
        if t < self._start:
            return 0.0
        if t >= self._times[-1]:
            return self._multipliers[-1]
        return self._multipliers[self._segment_index(t)]

    def rate_at(self, t: float) -> float:
        """Instantaneous logical rate ``ρ(t) · h_v(t)``."""
        if t < self._start:
            return 0.0
        return self.multiplier_at(t) * self._hardware.rate_at(t)

    # -- structure ----------------------------------------------------------

    def breakpoints_in(self, a: float, b: float) -> List[float]:
        """All linearity breakpoints of this clock in the closed ``[a, b]``.

        Includes checkpoint times, hardware rate changes, and the clock
        start (before which the value is the constant 0); sorted and
        *unique* — a checkpoint coinciding with a hardware rate change
        (e.g. a rate-rule update triggered at a drift breakpoint) is one
        breakpoint, not two, so skew evaluation never evaluates the same
        instant twice.
        """
        return sorted(set(self._breakpoints(a, b)))

    def _breakpoints(self, a: float, b: float) -> array:
        """:meth:`breakpoints_in` before sorting and merging: the checkpoint
        times in ``[a, b]``, then the hardware clock's breakpoints in
        ``(a, b)``, as one ``array('d')`` that may repeat an instant."""
        times = self._times
        if times[0] != self._start:
            raise TraceError(
                "breakpoints_in is unavailable on a pruned clock record"
            )
        points = times[bisect_left(times, a) : bisect_right(times, b)]
        points.extend(self._hardware.breakpoints_in(a, b))
        return points

    def prune_to(self, frontier: float) -> None:
        """Drop checkpoints that can no longer affect queries at ``t ≥ frontier``.

        Keeps the segment containing ``frontier`` *and* the one before it
        (so ``value_left`` at the frontier itself stays answerable), plus
        everything later.  Queries strictly inside the pruned prefix raise
        :class:`TraceError` instead of returning wrong values.  Deletions
        are batched (:attr:`PRUNE_BATCH`) to amortize the column surgery.
        """
        times = self._times
        j = bisect_right(times, frontier) - 1
        k = j - 1
        if k < self.PRUNE_BATCH:
            return
        del times[:k]
        del self._values[:k]
        del self._multipliers[:k]
        del self._anchor_hws[:k]
        jumps = self._jump_times
        if jumps and jumps[0] < times[0]:
            del jumps[: bisect_left(jumps, times[0])]

    @property
    def jump_times(self) -> Tuple[float, ...]:
        return tuple(self._jump_times)

    @property
    def checkpoint_count(self) -> int:
        return self._count


class _Stack:
    """Every record's clock, flattened into numpy arrays for one fold.

    Built once per fold over ascending ``points`` (once per
    ``global_skew`` or ``max_pair_skew`` call, once per streaming
    flush).  Row ``r`` keeps the slices of its record's checkpoint columns
    (times, values, multipliers, anchors) and of its hardware rate
    segments (times, cumulative integrals, rates) that instants in
    ``[points[0], points[-1]]`` read, found by bisect, at a row offset
    into each flat array.  One padding entry leads each flat array, so
    the index one before a row's first segment, which only masked
    positions read, stays in bounds.  A ``None`` row, a node not yet
    started, starts at ``inf``: every position masks to 0.0.

    Every row's checkpoint times and rate breakpoints are also kept in
    one list sorted by time, each tagged with its row (``r`` for a
    checkpoint, ``rows + r`` for a rate breakpoint).  :meth:`columns`
    then evaluates all rows over one window of the fold with a fixed
    number of numpy calls: a window's breakpoints are one contiguous run
    of that list, and per-row counts of the breakpoints before the
    window advance with the windows, which a fold visits in ascending
    order.

    A pruned record is answered wherever both one-sided limits are: a
    point in ``[start, kept prefix]`` raises :class:`TraceError`, as the
    scalar methods do, instead of being masked to a wrong 0.0.
    """

    __slots__ = (
        "_values", "_multipliers", "_anchors", "_cumulative", "_rates",
        "_rate_times", "_starts", "_hw_starts", "_start_integrals",
        "_offsets", "_rate_offsets", "_breakpoints", "_tags",
        "_first", "_cursor", "_before",
    )

    def __init__(self, records: Sequence[Optional[LogicalClockRecord]], points):
        t0, t1 = float(points[0]), float(points[-1])
        inf = float("inf")
        # Per row, the (list owner, lo, hi) slices each flat array holds.
        spans: List[tuple] = []
        rate_spans: List[tuple] = []
        starts, hw_starts, start_integrals = [], [], []
        offsets, rate_offsets = [], []
        size = rate_size = 1
        for record in records:
            offsets.append(size)
            rate_offsets.append(rate_size)
            if record is None:
                starts.append(inf)
                hw_starts.append(inf)
                start_integrals.append(0.0)
                continue
            times, start = record._times, record._start
            if times[0] != start:
                k = bisect_left(points, start)
                if k < len(points) and points[k] <= times[0]:
                    raise TraceError(
                        f"time {points[k]} falls in the pruned prefix of this "
                        f"clock record (kept from {times[0]})"
                    )
            lo = max(bisect_left(times, t0) - 1, 0)
            hi = max(bisect_right(times, t1), lo + 1)
            spans.append((record, lo, hi))
            size += hi - lo
            hardware = record._hardware
            rate = hardware._rate
            lo = max(bisect_right(rate._times, t0) - 1, 0)
            hi = max(bisect_right(rate._times, t1), lo + 1)
            rate_spans.append((rate, lo, hi))
            rate_size += hi - lo
            starts.append(start)
            hw_starts.append(hardware._start_time)
            start_integrals.append(hardware._start_integral)
        self._values = _flatten(spans, "_values")
        self._multipliers = _flatten(spans, "_multipliers")
        self._anchors = _flatten(spans, "_anchor_hws")
        self._rate_times = _flatten(rate_spans, "_times")
        self._cumulative = _flatten(rate_spans, "_cumulative")
        self._rates = _flatten(rate_spans, "_rates")
        self._starts = _np.array(starts)[:, None]
        self._hw_starts = _np.array(hw_starts)[:, None]
        self._start_integrals = _np.array(start_integrals)[:, None]
        self._offsets = _np.array(offsets, dtype=_np.intp)
        self._rate_offsets = _np.array(rate_offsets, dtype=_np.intp)
        breakpoints = _np.concatenate(
            (_flatten(spans, "_times")[1:], self._rate_times[1:])
        )
        tags = _np.repeat(
            _np.arange(2 * len(offsets), dtype=_np.int32),
            _np.diff(
                _np.concatenate((self._offsets, self._rate_offsets + size - 1)),
                append=size + rate_size - 1,
            ),
        )
        order = _np.argsort(breakpoints, kind="stable")
        self._breakpoints = breakpoints[order]
        del breakpoints  # one unsorted copy at a time bounds the peak
        self._tags = tags[order]
        # Per-tag counts of the breakpoints before the last window's first
        # instant, and the sorted-list position they run up to.
        self._first = -inf
        self._cursor = 0
        self._before = 0

    def columns(self, ts: List[float]):
        """``(right, left)``: rows × ``len(ts)`` value and left-limit arrays.

        Bit-identical to :meth:`LogicalClockRecord.value` /
        :meth:`~LogicalClockRecord.value_left` at ascending ``ts``, a
        window of the fold's points.  A row's segment index at an instant
        is its index before ``ts[0]`` plus the number of its window
        breakpoints at or before the instant: one ``searchsorted`` places
        the window's breakpoints among the instants, and a
        ``bincount``/``cumsum`` along the instants counts them per row, so
        the index is exactly the scalar methods' ``bisect_right − 1``.
        The left limit steps one segment back where a checkpoint falls on
        the instant (``bisect_left − 1``).  Every value is then the same
        sequence of correctly-rounded float64 operations, applied
        elementwise; no reductions, so no reordered rounding.
        """
        first, last = ts[0], ts[-1]
        n_rows, n_inst = len(self._offsets), len(ts)
        if first < self._first:
            # A window before the last one: count from the fold's start.
            self._cursor = self._before = 0
        self._first = first
        breakpoints, tags = self._breakpoints, self._tags
        lo = int(_np.searchsorted(breakpoints, first, side="left"))
        hi = int(_np.searchsorted(breakpoints, last, side="right"))
        before = self._before + _np.bincount(
            tags[self._cursor:lo], minlength=2 * n_rows
        )
        self._cursor, self._before = lo, before
        instants = _np.asarray(ts)
        # Per tag, the window breakpoints at or before each instant, over
        # n_inst + 1 slots (the last holds what no instant counts).
        inside, tags = breakpoints[lo:hi], tags[lo:hi]
        at = _np.searchsorted(instants, inside, side="left")
        slots = n_inst + 1
        counts = _np.cumsum(  # reprolint: exact-fold (integer counts)
            _np.bincount(tags * slots + at, minlength=2 * n_rows * slots)
            .reshape(2, n_rows, slots),
            axis=2,
            dtype=_np.int32,
        )[:, :, :n_inst]
        j = (self._rate_offsets + before[n_rows:] - 1)[:, None] + counts[1]
        i = (self._offsets + before[:n_rows] - 1)[:, None] + counts[0]
        del counts
        # The contract's expressions, evaluated in place to hold fewer
        # rows × instants temporaries: IEEE-754 + and * commute exactly,
        # so ``h = c + r * (t − s)`` computed as ``((t − s) * r) + c`` is
        # the same float.  Positions with t <= the hardware start are
        # masked to 0.0; their segment indices only produce garbage.
        hw_values = self._rate_times[j]
        _np.subtract(instants, hw_values, out=hw_values)
        hw_values *= self._rates[j]
        hw_values += self._cumulative[j]
        hw_values -= self._start_integrals
        hw_values[instants <= self._hw_starts] = 0.0
        del j
        right = self._anchors[i]
        _np.subtract(hw_values, right, out=right)
        right *= self._multipliers[i]
        right += self._values[i]
        right[instants < self._starts] = 0.0
        # The left limit reads the segment before wherever a checkpoint
        # falls exactly on the instant, and the right value's elsewhere.
        left = right.copy()
        hit = (tags < n_rows) & (instants[at] == inside)
        cells = (tags[hit], at[hit])
        i = i[cells] - 1
        left[cells] = self._values[i] + self._multipliers[i] * (
            hw_values[cells] - self._anchors[i]
        )
        left[instants <= self._starts] = 0.0
        return right, left


def _flatten(spans, name: str):
    """The padding entry 0.0, then ``getattr(owner, name)[lo:hi]`` of each
    ``(owner, lo, hi)`` span, as one float64 array.

    The slices are copied into one fresh ``array('d')`` that numpy then
    wraps: a numpy view of a live record buffer would make the record's
    later ``append`` or ``prune_to`` raise ``BufferError``.
    """
    flat = array("d", (0.0,))
    for owner, lo, hi in spans:
        flat.extend(getattr(owner, name)[lo:hi])
    return _np.frombuffer(flat)


def _merged_points(records: Sequence[LogicalClockRecord], t0: float, t1: float):
    """``t0``, ``t1`` and every record's breakpoints in ``[t0, t1]``: the
    sorted, unique evaluation instants of an exact fold over ``records``.

    With numpy, one ``unique`` over the records' breakpoint buffers, kept
    as a float64 array (8 bytes an instant) that :func:`_fold_points`
    turns into Python floats one window at a time; without numpy, a
    sorted list from a set.  Both hold the same ascending doubles.
    """
    points = array("d", (t0, t1))
    for record in records:
        points.extend(record._breakpoints(t0, t1))
    if _np is None:
        return sorted(set(points))
    return _np.unique(_np.frombuffer(points))


def _stack(
    records: Sequence[Optional[LogicalClockRecord]], points
) -> Optional[_Stack]:
    """The stacked kernel for one fold over ascending ``points`` (a list
    or, from :func:`_merged_points`, a float64 array).

    ``None`` (the fold evaluates per instant, in pure Python) without
    numpy or below :data:`VECTOR_MIN_INSTANTS` instants.
    """
    if _np is None or len(points) < VECTOR_MIN_INSTANTS:
        return None
    return _Stack(records, points)


def _fold_window(
    records: Sequence[Optional[LogicalClockRecord]],
    ts: List[float],
    stack: Optional[_Stack],
    pair_edges: Sequence[int] = (),
    pair_instants: Sequence[int] = (),
    edge_ends: Sequence[Tuple[int, int]] = (),
):
    """The exact skew fold over one window of ascending instants ``ts``.

    Every exact extremum goes through here, in trace and streaming mode
    alike.  One right-value and one left-limit column is evaluated per
    record (a ``None`` record, a node not yet started, reads 0.0), then
    folded in the exactness-contract order: ascending instants, the
    right value before the left limit at each, strict ``>``, first
    arg-max wins.

    Returns ``(spread, k, hi, lo, winners)``: the window's largest
    spread ``max_r L_r − min_r L_r``, the index into ``ts`` of its
    instant, and the record indices of its arg-max and arg-min.
    ``winners`` maps each edge ``e`` listed in ``pair_edges`` to the
    ``(value, k)`` of its largest ``|L_a − L_b|``, ``(a, b) =
    edge_ends[e]``, over the slots ``pair_instants`` lists for it.

    Columns come from ``stack`` (the fold's :class:`_Stack`, see
    :func:`_stack`) when there is one, else from ``value`` /
    ``value_left`` per instant.  Both compute the same floats, and both
    folds below pick the same winners.
    """
    n_inst = len(ts)
    if stack is not None:
        rights, lefts = stack.columns(ts)
        # Column max/min select floats without rounding, so the spreads
        # are the differences the pure-Python fold computes; argmax over
        # the right/left interleaving keeps the first of equal maxima.
        spreads = _np.empty(2 * n_inst)
        spreads[0::2] = rights.max(axis=0) - rights.min(axis=0)
        spreads[1::2] = lefts.max(axis=0) - lefts.min(axis=0)
        k = int(spreads.argmax())
        column = (rights if k % 2 == 0 else lefts)[:, k >> 1]
        winners: Dict[int, Tuple[float, int]] = {}
        if pair_edges:
            instants = _np.asarray(pair_instants)
            ends = _np.asarray(edge_ends)[pair_edges]
            a, b = ends[:, 0], ends[:, 1]
            # Slot 2p is pair p's right-value skew, slot 2p+1 its left limit.
            magnitudes = _np.empty(2 * len(pair_edges))
            magnitudes[0::2] = _np.abs(rights[a, instants] - rights[b, instants])
            magnitudes[1::2] = _np.abs(lefts[a, instants] - lefts[b, instants])
            slot_edges = _np.repeat(_np.asarray(pair_edges), 2)
            # Sorted by edge, then largest magnitude, then earliest slot:
            # the head of each edge's group wins its strict > scan.
            order = _np.lexsort(
                (_np.arange(len(slot_edges)), -magnitudes, slot_edges)
            )
            heads = order[_np.flatnonzero(_np.diff(slot_edges[order], prepend=-1))]
            for e, value, slot in zip(
                slot_edges[heads].tolist(), magnitudes[heads].tolist(), heads.tolist()
            ):
                winners[e] = (value, pair_instants[slot >> 1])
        return (
            float(spreads[k]), k >> 1,
            int(column.argmax()), int(column.argmin()), winners,
        )
    # Flat row-major columns: record r's value at ts[k] sits at r * n_inst + k.
    rights_flat: List[float] = []
    lefts_flat: List[float] = []
    zeros = [0.0] * n_inst
    for record in records:
        if record is None:
            rights_flat += zeros
            lefts_flat += zeros
        else:
            # Right then left at each instant: the left limit reuses the
            # hardware clock's memoised value.
            for t in ts:
                rights_flat.append(record.value(t))
                lefts_flat.append(record.value_left(t))
    best = (-1.0, 0, 0, 0)
    for k in range(n_inst):
        for flat in (rights_flat, lefts_flat):
            values = flat[k::n_inst]
            # max()/min() return the floats of the first-arg-max scan, and
            # .index() recovers the same (first) extremal record.
            top = max(values)
            bottom = min(values)
            spread = top - bottom
            if spread > best[0]:
                best = (spread, k, values.index(top), values.index(bottom))
    winners = {}
    for e, k in zip(pair_edges, pair_instants):
        a, b = edge_ends[e]
        a, b = a * n_inst + k, b * n_inst + k
        # The right value and left limit share the instant, so the slot
        # offers the larger of the two; a later slot must beat it strictly.
        magnitude = abs(rights_flat[a] - rights_flat[b])
        left = abs(lefts_flat[a] - lefts_flat[b])
        if left > magnitude:
            magnitude = left
        held = winners.get(e)
        if held is None or magnitude > held[0]:
            winners[e] = (magnitude, k)
    return best + (winners,)


def _fold_points(
    records: Sequence[LogicalClockRecord], points
) -> Tuple[float, float, int, int]:
    """``(spread, t, hi, lo)`` of :func:`_fold_window` over all ``points``
    (from :func:`_merged_points`), with ``t`` the arg-max instant.

    Folds in windows of ``max(1, FLUSH_CELLS // len(records))`` instants,
    the streaming flush's budget, through one :class:`_Stack` built for
    the whole fold, so the evaluation holds O(window) cells however long
    the trace.  A later window replaces the best only if strictly
    larger, so the first arg-max wins exactly as in one window.  Each
    window is a list of Python floats, so no numpy scalar reaches a
    result.
    """
    width = max(1, FLUSH_CELLS // max(len(records), 1))
    stack = _stack(records, points)
    best = (-1.0, 0.0, 0, 0)
    for first in range(0, len(points), width):
        ts = points[first : first + width]
        if _np is not None:
            ts = ts.tolist()
        spread, k, hi, lo, _ = _fold_window(records, ts, stack)
        if spread > best[0]:
            best = (spread, ts[k], hi, lo)
    return best


@dataclass(frozen=True)
class MessageRecord:
    """One message: who, when, what, and how long it was in transit."""

    sender: NodeId
    receiver: NodeId
    send_time: float
    delay: float
    payload: Any
    size_bits: int

    @property
    def deliver_time(self) -> float:
        return self.send_time + self.delay


@dataclass(frozen=True)
class ProbeRecord:
    """An algorithm-emitted measurement (e.g. estimate error samples)."""

    name: str
    node: NodeId
    time: float
    value: Any


@dataclass(frozen=True)
class SkewExtremum:
    """A worst-case skew observation: its value, when, and between whom."""

    value: float
    time: float
    node_a: NodeId
    node_b: NodeId


@dataclass
class ExecutionTrace:
    """Everything measurable about one finished execution."""

    topology: Topology
    horizon: float
    logical: Dict[NodeId, LogicalClockRecord]
    hardware: Dict[NodeId, HardwareClock]
    start_times: Dict[NodeId, float]
    messages_sent: Dict[NodeId, int]
    messages_received: Dict[NodeId, int]
    bits_sent: Dict[NodeId, int]
    message_log: List[MessageRecord] = field(default_factory=list)
    probes: List[ProbeRecord] = field(default_factory=list)
    events_processed: int = 0
    messages_dropped: int = 0
    messages_lost_link: int = 0
    messages_lost_crash: int = 0
    messages_duplicated: int = 0
    #: Per-node scheduled crash downtime overlapping the node's active
    #: window (fault executions only; empty otherwise).
    downtime: Dict[NodeId, float] = field(default_factory=dict)
    #: Engine counters and phase timers; ``None`` unless the engine ran
    #: with ``collect_metrics=True``.
    metrics: Optional[RunMetrics] = None
    #: Structured event log ``(kind, time, node, data)``; ``None`` unless
    #: the engine ran with ``record_events=True``.
    event_log: Optional[List[Tuple[str, float, NodeId, dict]]] = None

    # -- point queries -------------------------------------------------------

    def logical_value(self, node: NodeId, t: float) -> float:
        return self.logical[node].value(t)

    def hardware_value(self, node: NodeId, t: float) -> float:
        return self.hardware[node].value(t)

    def skew(self, a: NodeId, b: NodeId, t: float) -> float:
        """Signed skew ``L_a(t) − L_b(t)``."""
        return self.logical[a].value(t) - self.logical[b].value(t)

    def spread_at(self, t: float) -> float:
        """``max_v L_v(t) − min_v L_v(t)``."""
        values = [rec.value(t) for rec in self.logical.values()]
        return max(values) - min(values)

    # -- exact extrema -------------------------------------------------------

    def max_pair_skew(
        self, a: NodeId, b: NodeId, t0: Optional[float] = None, t1: Optional[float] = None
    ) -> SkewExtremum:
        """Exact maximum of ``|L_a − L_b|`` over ``[t0, t1]``.

        The spread of two clocks is ``|L_a − L_b|`` bit for bit (IEEE-754
        subtraction is antisymmetric), so this is the global fold over
        the pair's own breakpoints.
        """
        t0 = 0.0 if t0 is None else t0
        t1 = self.horizon if t1 is None else t1
        records = (self.logical[a], self.logical[b])
        value, t, _, _ = _fold_points(records, _merged_points(records, t0, t1))
        return SkewExtremum(value, t, a, b)

    def global_skew(
        self, t0: Optional[float] = None, t1: Optional[float] = None
    ) -> SkewExtremum:
        """Exact worst-case global skew (Definition 3.1) of this execution.

        The spread is convex on each common linearity interval, so
        evaluating at all merged breakpoints is exact.
        """
        t0 = 0.0 if t0 is None else t0
        t1 = self.horizon if t1 is None else t1
        nodes = list(self.logical)
        records = list(self.logical.values())
        value, t, hi, lo = _fold_points(records, _merged_points(records, t0, t1))
        return SkewExtremum(value, t, nodes[hi], nodes[lo])

    def local_skew(
        self, t0: Optional[float] = None, t1: Optional[float] = None
    ) -> SkewExtremum:
        """Exact worst-case local skew (Definition 3.2): max over edges."""
        best = SkewExtremum(-1.0, 0.0, None, None)
        for a, b in self.topology.edges():
            candidate = self.max_pair_skew(a, b, t0, t1)
            if candidate.value > best.value:
                best = candidate
        return best

    def skew_by_distance(
        self,
        distances: Dict[NodeId, Dict[NodeId, int]],
        t: Optional[float] = None,
    ) -> Dict[int, float]:
        """Maximum absolute skew per hop distance, at time ``t``.

        ``t`` defaults to the horizon.  Used for gradient-property curves
        (Corollary 7.9): the paper predicts skew at distance ``d`` grows as
        ``O(d · κ · (1 + log(D/d)))``.
        """
        t = self.horizon if t is None else t
        values = {node: self.logical[node].value(t) for node in self.logical}
        worst: Dict[int, float] = {}
        nodes = list(self.logical)
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                d = distances[a][b]
                magnitude = abs(values[a] - values[b])
                if magnitude > worst.get(d, -1.0):
                    worst[d] = magnitude
        return worst

    def max_skew_by_distance(
        self, distances: Dict[NodeId, Dict[NodeId, int]]
    ) -> Dict[int, float]:
        """Worst-case (over all time) absolute skew per hop distance.

        More expensive than :meth:`skew_by_distance`; intended for modest
        node counts.
        """
        worst: Dict[int, float] = {}
        nodes = list(self.logical)
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                d = distances[a][b]
                extremum = self.max_pair_skew(a, b)
                if extremum.value > worst.get(d, -1.0):
                    worst[d] = extremum.value
        return worst

    # -- aggregate counters ----------------------------------------------------

    def total_messages(self) -> int:
        return sum(self.messages_sent.values())  # reprolint: exact-fold (int counters)

    def total_bits(self) -> int:
        return sum(self.bits_sent.values())  # reprolint: exact-fold (int counters)

    def amortized_message_frequency(self, node: NodeId) -> float:
        """Messages per unit real time at ``node`` over its *active* period.

        Active time is the span from the node's start to the horizon
        minus any scheduled crash downtime (:attr:`downtime`): a crashed
        node sends nothing, so counting its outage as active time would
        understate the message frequency of recovered nodes.  Returns
        0.0 when the node was never active.
        """
        active = (
            self.horizon - self.start_times[node] - self.downtime.get(node, 0.0)
        )
        if active <= 0:
            return 0.0
        return self.messages_sent[node] / active

    def probes_named(self, name: str) -> List[ProbeRecord]:
        return [p for p in self.probes if p.name == name]

    # -- observability ----------------------------------------------------------

    def export_events(
        self, path: Union[str, Path], spec_digest: str = ""
    ) -> str:
        """Write the structured event log to ``path`` as JSONL.

        Requires the engine to have run with ``record_events=True``.
        Returns the SHA-256 content digest of the record lines (also
        stored in the file footer), so two exports can be diffed by
        digest alone.  See :mod:`repro.obs.export` for the schema.
        """
        from repro.obs.export import export_events

        return export_events(self, path, spec_digest=spec_digest)
