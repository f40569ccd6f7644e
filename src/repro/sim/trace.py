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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import TraceError
from repro.obs.metrics import RunMetrics
from repro.sim.clock import HardwareClock
from repro.topology.generators import Topology

try:  # numpy is optional; every result below is identical without it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None

#: Minimum evaluation-point count before skew extrema switch from the
#: pure-Python pointer sweeps to the vectorized path.  Small problems stay
#: scalar (array setup costs more than it saves), which also keeps both
#: paths continuously exercised by the test suite.
_VECTOR_MIN_POINTS = 512

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
    #: performs list surgery, amortizing the O(len) deletions.
    PRUNE_BATCH = 32

    def __init__(self, hardware: HardwareClock, initial_multiplier: float = 1.0):
        self._hardware = hardware
        start = hardware.start_time
        self._start: float = start
        self._times: List[float] = [start]
        self._values: List[float] = [0.0]
        # H(t_k) per checkpoint, cached at append time: value() subtracts
        # it from H(t), the identical float the original formula computed
        # by re-evaluating the hardware clock at the anchor on each query.
        self._anchor_hws: List[float] = [hardware.value(start)]
        self._multipliers: List[float] = [float(initial_multiplier)]
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
        value = self.value(t)
        self._append(t, value, multiplier)

    def jump(self, t: float, new_value: float) -> None:
        """Record a discontinuous jump of the clock value at time ``t``."""
        current = self.value(t)
        if new_value < current - 1e-9:
            raise TraceError(
                f"logical clock jump backwards at t={t}: {current} -> {new_value}"
            )
        if new_value != current:
            self._jump_times.append(t)
        self._append(t, new_value, self._multipliers[-1])

    def _append(self, t: float, value: float, multiplier: float) -> None:
        times = self._times
        if t < times[-1]:
            raise TraceError(
                f"checkpoint at {t} precedes last checkpoint {times[-1]}"
            )
        self._memo_t = None
        if t == times[-1]:
            # Same-instant update replaces the last checkpoint's future.
            self._values[-1] = value
            self._multipliers[-1] = float(multiplier)
        else:
            times.append(t)
            self._values.append(value)
            self._anchor_hws.append(self._hardware.value(t))
            self._multipliers.append(float(multiplier))
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

    def values_at(
        self, ts: Sequence[float], _hw_values: Optional[List[float]] = None
    ) -> List[float]:
        """Batched :meth:`value` over ascending ``ts`` (bit-identical).

        One bisect places the first point and a forward pointer sweep does
        the rest, so a short batch late in a long record costs no walk from
        the start; every output is produced by exactly the same float
        expression as the scalar method, so results agree to the last
        bit.  ``_hw_values`` lets a caller evaluating both one-sided
        limits reuse the hardware sweep (the hardware clock has no jumps,
        so its values are shared).
        """
        times = self._times
        values = self._values
        multipliers = self._multipliers
        anchors = self._anchor_hws
        first = times[0]
        last = times[-1]
        last_index = len(times) - 1
        start = self._start
        hw_values = (
            self._hardware.values_at(ts) if _hw_values is None else _hw_values
        )
        out: List[float] = []
        append = out.append
        i = max(bisect_right(times, ts[0]) - 1, 0) if ts else 0
        for t, hw in zip(ts, hw_values):
            if t >= last:
                j = last_index
            elif t < first:
                if t < start:
                    append(0.0)
                    continue
                raise TraceError(
                    f"time {t} falls in the pruned prefix of this clock record "
                    f"(kept from {first})"
                )
            else:
                while i < last_index and times[i + 1] <= t:
                    i += 1
                j = i
            append(values[j] + multipliers[j] * (hw - anchors[j]))
        return out

    def values_left_at(
        self, ts: Sequence[float], _hw_values: Optional[List[float]] = None
    ) -> List[float]:
        """Batched :meth:`value_left` over ascending ``ts`` (bit-identical)."""
        times = self._times
        values = self._values
        multipliers = self._multipliers
        anchors = self._anchor_hws
        first = times[0]
        last = times[-1]
        last_index = len(times) - 1
        start = self._start
        hw_values = (
            self._hardware.values_at(ts) if _hw_values is None else _hw_values
        )
        out: List[float] = []
        append = out.append
        i = max(bisect_right(times, ts[0]) - 1, 0) if ts else 0
        for t, hw in zip(ts, hw_values):
            if t <= first:
                if t <= start:
                    append(0.0)
                    continue
                raise TraceError(
                    f"time {t} falls in the pruned prefix of this clock record "
                    f"(kept from {first})"
                )
            if t > last:
                j = last_index
            else:
                while i < last_index and times[i + 1] <= t:
                    i += 1
                j = i
                if times[j] == t and j > 0:
                    j -= 1
            append(values[j] + multipliers[j] * (hw - anchors[j]))
        return out

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
        if self._times[0] != self._start:
            raise TraceError(
                "breakpoints_in is unavailable on a pruned clock record"
            )
        points = set(t for t in self._times if a <= t <= b)
        points.update(self._hardware.breakpoints_in(a, b))
        return sorted(points)

    def prune_to(self, frontier: float) -> None:
        """Drop checkpoints that can no longer affect queries at ``t ≥ frontier``.

        Keeps the segment containing ``frontier`` *and* the one before it
        (so ``value_left`` at the frontier itself stays answerable), plus
        everything later.  Queries strictly inside the pruned prefix raise
        :class:`TraceError` instead of returning wrong values.  Deletions
        are batched (:attr:`PRUNE_BATCH`) to amortize the list surgery.
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


def _vector_eligible(records: Iterable[LogicalClockRecord], n_points: int) -> bool:
    """Whether the numpy evaluation path applies (never changes results).

    Requires numpy, enough points to amortize array setup, and unpruned
    records; a pruned record (only streaming runs prune) takes the
    scalar sweeps here.
    """
    if _np is None or n_points < _VECTOR_MIN_POINTS:
        return False
    return all(rec._times[0] == rec._start for rec in records)


def _vector_values(record: LogicalClockRecord, ts: "_np.ndarray"):
    """``(right, left)`` value arrays of ``record`` at ascending ``ts``.

    Bit-identical to the scalar :meth:`LogicalClockRecord.value` /
    :meth:`value_left`: every arithmetic step below is the same sequence
    of correctly-rounded float64 operations applied elementwise, and
    ``searchsorted(side='right') - 1`` is exactly ``bisect_right - 1``
    (with ``side='left'`` matching the left limit's step-back at exact
    checkpoint hits).  No reductions, so no reordered rounding.

    A pruned record is answered wherever both one-sided limits are: a
    point in ``[start, kept prefix]`` raises :class:`TraceError`, as the
    scalar methods do, instead of being masked to a wrong 0.0.
    """
    start = record._start
    first = record._times[0]
    if first != start:
        k = int(_np.searchsorted(ts, start, side="left"))
        if k < len(ts) and ts[k] <= first:
            raise TraceError(
                f"time {float(ts[k])} falls in the pruned prefix of this "
                f"clock record (kept from {first})"
            )
    hardware = record._hardware
    rate = hardware._rate
    rate_times = _np.asarray(rate._times)
    j = _np.searchsorted(rate_times, ts, side="right") - 1
    # Positions with t <= start are masked to 0.0 below; their (possibly
    # negative) segment indices only ever produce overwritten garbage.
    integrals = _np.asarray(rate._cumulative)[j] + _np.asarray(rate._rates)[j] * (
        ts - rate_times[j]
    )
    hw_values = integrals - hardware._start_integral
    hw_values[ts <= hardware._start_time] = 0.0

    times = _np.asarray(record._times)
    values = _np.asarray(record._values)
    multipliers = _np.asarray(record._multipliers)
    anchors = _np.asarray(record._anchor_hws)
    i = _np.searchsorted(times, ts, side="right") - 1
    right = values[i] + multipliers[i] * (hw_values - anchors[i])
    right[ts < start] = 0.0
    i = _np.searchsorted(times, ts, side="left") - 1
    left = values[i] + multipliers[i] * (hw_values - anchors[i])
    left[ts <= start] = 0.0
    return right, left


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

    def _pair_eval_points(self, a: NodeId, b: NodeId, t0: float, t1: float) -> List[float]:
        points = set(self.logical[a].breakpoints_in(t0, t1))
        points.update(self.logical[b].breakpoints_in(t0, t1))
        points.add(t0)
        points.add(t1)
        return sorted(points)

    def max_pair_skew(
        self, a: NodeId, b: NodeId, t0: Optional[float] = None, t1: Optional[float] = None
    ) -> SkewExtremum:
        """Exact maximum of ``|L_a − L_b|`` over ``[t0, t1]``."""
        t0 = 0.0 if t0 is None else t0
        t1 = self.horizon if t1 is None else t1
        rec_a, rec_b = self.logical[a], self.logical[b]
        points = self._pair_eval_points(a, b, t0, t1)
        if _vector_eligible((rec_a, rec_b), len(points)):
            ts = _np.asarray(points)
            a_right, a_left = _vector_values(rec_a, ts)
            b_right, b_left = _vector_values(rec_b, ts)
            magnitudes = _np.empty(2 * len(points))
            magnitudes[0::2] = _np.abs(a_right - b_right)
            magnitudes[1::2] = _np.abs(a_left - b_left)
            # argmax picks the first occurrence of the maximum — the same
            # winner as the strict > scan over the right/left interleaving.
            k = int(magnitudes.argmax())
            return SkewExtremum(float(magnitudes[k]), points[k >> 1], a, b)
        hw_a = rec_a.hardware.values_at(points)
        hw_b = rec_b.hardware.values_at(points)
        a_right = rec_a.values_at(points, _hw_values=hw_a)
        b_right = rec_b.values_at(points, _hw_values=hw_b)
        a_left = rec_a.values_left_at(points, _hw_values=hw_a)
        b_left = rec_b.values_left_at(points, _hw_values=hw_b)
        best_value, best_time = -1.0, t0
        # Right value first, then the left limit — the same order (and the
        # same strict > tie-breaking) as per-point evaluation.
        for t, va, vb, la, lb in zip(points, a_right, b_right, a_left, b_left):
            magnitude = abs(va - vb)
            if magnitude > best_value:
                best_value, best_time = magnitude, t
            magnitude = abs(la - lb)
            if magnitude > best_value:
                best_value, best_time = magnitude, t
        return SkewExtremum(best_value, best_time, a, b)

    def global_skew(
        self, t0: Optional[float] = None, t1: Optional[float] = None
    ) -> SkewExtremum:
        """Exact worst-case global skew (Definition 3.1) of this execution.

        The spread is convex on each common linearity interval, so
        evaluating at all merged breakpoints is exact.
        """
        t0 = 0.0 if t0 is None else t0
        t1 = self.horizon if t1 is None else t1
        points = {t0, t1}
        for rec in self.logical.values():
            points.update(rec.breakpoints_in(t0, t1))
        eval_points = sorted(points)
        nodes = list(self.logical)
        if _vector_eligible(self.logical.values(), len(eval_points)):
            ts = _np.asarray(eval_points)
            n_points = len(eval_points)
            rights = _np.empty((len(nodes), n_points))
            lefts = _np.empty((len(nodes), n_points))
            for row, node in enumerate(nodes):
                rights[row], lefts[row] = _vector_values(self.logical[node], ts)
            # Column max/min select floats without rounding, so the spreads
            # are the identical differences the scalar fold computes; the
            # interleaved argmax (right before left at each t) and the
            # per-column argmax/argmin reproduce its first-winner ties.
            spreads = _np.empty(2 * n_points)
            spreads[0::2] = rights.max(axis=0) - rights.min(axis=0)
            spreads[1::2] = lefts.max(axis=0) - lefts.min(axis=0)
            k = int(spreads.argmax())
            column = (rights if k % 2 == 0 else lefts)[:, k >> 1]
            return SkewExtremum(
                float(spreads[k]),
                eval_points[k >> 1],
                nodes[int(column.argmax())],
                nodes[int(column.argmin())],
            )
        # One batched column per node (right values and left limits share
        # the hardware sweep), then fold row by row.  Same expressions,
        # same right-then-left order, same strict > and first-arg-max
        # tie-breaking as per-point evaluation — bit-identical extrema.
        cols_right: List[List[float]] = []
        cols_left: List[List[float]] = []
        for n in nodes:
            rec = self.logical[n]
            hw_values = rec.hardware.values_at(eval_points)
            cols_right.append(rec.values_at(eval_points, _hw_values=hw_values))
            cols_left.append(
                rec.values_left_at(eval_points, _hw_values=hw_values)
            )
        best = SkewExtremum(-1.0, t0, None, None)
        for k, rows in enumerate(zip(zip(*cols_right), zip(*cols_left))):
            t = eval_points[k]
            for values in rows:
                # max()/min() return the same floats as the first-arg-max
                # scan, and .index() recovers the same (first) extremal
                # node — only reached on a strict improvement.
                top = max(values)
                bottom = min(values)
                spread = top - bottom
                if spread > best.value:
                    best = SkewExtremum(
                        spread, t,
                        nodes[values.index(top)], nodes[values.index(bottom)],
                    )
        return best

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
