"""Online invariant monitors.

The paper requires every clock synchronization algorithm to satisfy two
conditions at all times (Section 3):

* Condition (1), the *envelope*: ``(1 − ε)(t − t_v) ≤ L_v(t) ≤ (1 + ε)t``;
* Condition (2), *bounded rates*: ``α(t' − t) ≤ L_v(t') − L_v(t) ≤ β(t' − t)``
  with ``α = 1 − ε`` and ``β = (1 + ε)(1 + μ)`` for A^opt (Corollary 5.3).

Monitors check these after every simulation event.  Because all clocks are
piecewise-linear and the bounds are linear, a violation that occurs at all
occurs at an event breakpoint, so event-time checking is exact up to the
numerical tolerance.

Monitors either raise :class:`~repro.errors.InvariantViolation` fail-fast
(``strict=True``) or collect violations for post-run inspection.

A per-node check reads the node's engine runtime once and evaluates its
clock at the ``time`` it is passed, which both engines set to the
current event time; unstarted nodes are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from time import perf_counter
from typing import Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import InvariantViolation
from repro.sim.trace import (
    FLUSH_CELLS,
    LogicalClockRecord,
    SkewExtremum,
    _fold_window,
    _stack,
)

__all__ = [
    "Violation",
    "BaseMonitor",
    "EnvelopeMonitor",
    "RateBoundMonitor",
    "MonotonicityMonitor",
    "StabilizationMonitor",
    "StreamingSkewTracker",
]

NodeId = Hashable

#: Absolute numerical slack for invariant and bound comparisons; the one
#: such constant (validation, certificates, metrics and the CLI gates import it).
TOLERANCE = 1e-7


@dataclass(frozen=True)
class Violation:
    monitor: str
    node: NodeId
    time: float
    detail: str


class BaseMonitor:
    """Shared collect-or-raise behaviour."""

    name = "monitor"

    def __init__(self, strict: bool = True):
        self.strict = strict
        self.violations: List[Violation] = []

    def _report(self, node: NodeId, time: float, detail: str) -> None:
        violation = Violation(self.name, node, time, detail)
        if self.strict:
            raise InvariantViolation(detail, node=node, time=time)
        self.violations.append(violation)

    def check(self, engine, node: NodeId, time: float) -> None:
        raise NotImplementedError


class EnvelopeMonitor(BaseMonitor):
    """Condition (1): logical clocks stay in the affine envelope of real time."""

    name = "envelope"

    def __init__(self, epsilon: float, strict: bool = True):
        super().__init__(strict)
        self.epsilon = float(epsilon)

    def check(self, engine, node: NodeId, time: float) -> None:
        runtime = engine._runtimes[node]
        if not runtime.started:
            return
        start = runtime.hardware.start_time
        logical = runtime.record.value(time)
        lower = (1 - self.epsilon) * (time - start)
        upper = (1 + self.epsilon) * time
        if logical < lower - TOLERANCE:
            self._report(
                node,
                time,
                f"envelope lower bound violated at node {node!r}, t={time}: "
                f"L={logical} < (1-eps)(t-t_v)={lower}",
            )
        if logical > upper + TOLERANCE:
            self._report(
                node,
                time,
                f"envelope upper bound violated at node {node!r}, t={time}: "
                f"L={logical} > (1+eps)t={upper}",
            )


class RateBoundMonitor(BaseMonitor):
    """Condition (2): the instantaneous logical rate stays within [α, β].

    Checks the *multiplier* against what the current hardware rate allows:
    ``α ≤ ρ · h_v(t) ≤ β``.  For algorithms that declare ``allows_jumps``
    the upper bound is skipped (β = ∞ by declaration).
    """

    name = "rate-bounds"

    def __init__(self, alpha: float, beta: float, strict: bool = True):
        super().__init__(strict)
        self.alpha = float(alpha)
        self.beta = float(beta)

    def check(self, engine, node: NodeId, time: float) -> None:
        runtime = engine._runtimes[node]
        if not runtime.started:
            return
        rate = runtime.record.rate_at(time)
        if rate < self.alpha - TOLERANCE:
            self._report(
                node,
                time,
                f"logical rate {rate} below alpha={self.alpha} at node {node!r}, t={time}",
            )
        if not engine.algorithm.allows_jumps and rate > self.beta + TOLERANCE:
            self._report(
                node,
                time,
                f"logical rate {rate} above beta={self.beta} at node {node!r}, t={time}",
            )


class StreamingSkewTracker:
    """Folds exact skew extrema incrementally, without storing a trace.

    The engine feeds it every logical-clock checkpoint as it happens;
    hardware rate breakpoints are drawn lazily from each clock's fixed
    schedule.  The tracker evaluates skews at exactly the same point set
    the trace-based evaluation uses — the union of all clocks' linearity
    breakpoints plus ``{0, horizon}`` — in the same ascending order,
    right values before left values at each instant, first-argmax/argmin
    tie-breaking, strict ``>`` updates.  Its results are therefore
    bit-identical to ``ExecutionTrace.global_skew()`` / ``local_skew()``
    / ``spread_at(horizon)``; the property suite in
    ``tests/test_monitors_streaming.py`` pins this down.

    Pair skews are folded only at the *pair's own* breakpoint union
    (plus the interval endpoints), never at other nodes' breakpoints:
    evaluating a convex-kinked difference at extra points could surface
    a float-rounding extremum the trace path never sees.

    *Collect, then flush.*  :meth:`advance` pops every instant before
    the event frontier off the heap — an instant is final once popped —
    into a pending window with the nodes that own it.  A full window
    (:attr:`window_instants` instants, ``max(1, FLUSH_CELLS // nodes)``)
    and the horizon endpoint in :meth:`finalize` are *flushed* through
    ``repro.sim.trace._fold_window``, the one skew fold trace mode's
    ``global_skew`` and ``max_pair_skew`` run too, in windows of the
    same budget (one stacked numpy kernel built per flush, sweeps or
    per-instant methods, chosen by window size); the window's winners
    then merge into the running bests with strict ``>``.
    Deferring evaluation is exact: every later checkpoint lands at or
    after the event frontier, past every pending instant, so the
    segments a pending instant reads never change.

    Memory is O(nodes + edges + 16,384 cells): with ``prune=True`` each
    flush also discards the record segments its owners no longer need,
    so a full run needs bounded memory regardless of length.

    Each flush adds its wall time to :attr:`fold_seconds` (one
    ``perf_counter`` pair per flush, none per event); the engine reports
    it as the ``skew-fold`` phase.
    """

    def __init__(
        self,
        nodes: Sequence[NodeId],
        edges: Sequence[Tuple[NodeId, NodeId]],
        horizon: float,
        prune: bool = False,
    ):
        self.horizon = float(horizon)
        self.nodes: List[NodeId] = list(nodes)
        self.edges: List[Tuple[NodeId, NodeId]] = [tuple(e) for e in edges]
        #: Spread at the horizon (right values); set by :meth:`finalize`.
        self.final_spread = 0.0
        #: Wall seconds spent in flushes.
        self.fold_seconds = 0.0

        self._prune = prune
        n = len(self.nodes)
        #: Instants a pending window holds before it is flushed.
        self.window_instants = max(1, FLUSH_CELLS // max(n, 1))
        index = {node: i for i, node in enumerate(self.nodes)}
        self._records: List[Optional[LogicalClockRecord]] = [None] * n
        self._hw_streams: List[Optional[Iterator[float]]] = [None] * n
        self._last_noted: List[Optional[float]] = [None] * n
        self._last_consumed: List[Optional[float]] = [None] * n
        self._bp_counts = [0] * n
        self._incident: List[List[int]] = [[] for _ in range(n)]
        self._edge_idx: List[Tuple[int, int]] = []
        for e, (a, b) in enumerate(self.edges):
            ia, ib = index[a], index[b]
            self._edge_idx.append((ia, ib))
            self._incident[ia].append(e)
            self._incident[ib].append(e)
        m = len(self.edges)
        self._edge_best_v = [-1.0] * m
        self._edge_best_t = [0.0] * m
        self._best_value = -1.0
        self._best_time = 0.0
        self._best_hi: Optional[int] = None
        self._best_lo: Optional[int] = None
        # Pending evaluation instants: (time, node_index, from_hw_stream).
        # The sentinel index −1 forces the t=0 endpoint evaluation that
        # the trace path always performs.
        self._heap: List[Tuple[float, int, bool]] = [(0.0, -1, False)]
        # The pending window: ascending final instants, each with the
        # nodes whose breakpoint it is and whether it folds every edge.
        self._window_ts: List[float] = []
        self._window_owners: List[List[int]] = []
        self._window_all_edges: List[bool] = []
        self._finalized = False

    # -- engine feed ---------------------------------------------------------

    def note_start(self, idx: int, record, hardware) -> None:
        """Register a node's freshly created clock record at its start."""
        self._records[idx] = record
        self.note_checkpoint(idx, record.start_time)
        stream = hardware.breakpoints_in(record.start_time, self.horizon)
        first = next(stream, None)
        if first is not None:
            self._hw_streams[idx] = stream
            heappush(self._heap, (first, idx, True))

    def note_checkpoint(self, idx: int, t: float) -> None:
        """Register a logical-clock checkpoint (rate change or jump)."""
        if t > self.horizon or t == self._last_noted[idx]:
            return
        self._last_noted[idx] = t
        heappush(self._heap, (t, idx, False))

    def advance(self, now: float) -> None:
        """Collect every pending instant strictly before ``now``.

        Safe because events pop in nondecreasing time order: no future
        event can add a checkpoint earlier than the current event time,
        so instants before ``now`` are final.
        """
        heap = self._heap
        while heap and heap[0][0] < now:
            self._collect_next()

    def finalize(self) -> None:
        """Fold everything up to and including the horizon endpoint."""
        if self._finalized:
            return
        self._finalized = True
        horizon = self.horizon
        heap = self._heap
        while heap and heap[0][0] < horizon:
            self._collect_next()
        # Checkpoints exactly at the horizon still count as that node's
        # breakpoints, but the instant itself is evaluated once below as
        # the interval endpoint (with every edge, like the trace path).
        while heap:
            t, idx, _ = heappop(heap)
            if idx >= 0 and self._last_consumed[idx] != t:
                self._last_consumed[idx] = t
                self._bp_counts[idx] += 1
        self._window_ts.append(horizon)
        self._window_owners.append([])
        self._window_all_edges.append(True)
        self._flush()
        records = self._records
        values = [0.0 if rec is None else rec.value(horizon) for rec in records]
        self.final_spread = max(values) - min(values)

    # -- collecting ----------------------------------------------------------

    def _collect_next(self) -> None:
        heap = self._heap
        t = heap[0][0]
        owners: List[int] = []
        all_edges = False
        while heap and heap[0][0] == t:
            _, idx, from_hw = heappop(heap)
            if idx < 0:
                all_edges = True
            else:
                if self._last_consumed[idx] != t:
                    self._last_consumed[idx] = t
                    self._bp_counts[idx] += 1
                    owners.append(idx)
                if from_hw:
                    nxt = next(self._hw_streams[idx], None)
                    if nxt is not None:
                        heappush(heap, (nxt, idx, True))
        self._window_ts.append(t)
        self._window_owners.append(owners)
        self._window_all_edges.append(all_edges)
        if len(self._window_ts) >= self.window_instants:
            self._flush()

    # -- flushing ------------------------------------------------------------

    def _flush(self) -> None:
        """Evaluate the pending window and fold it; then empty it."""
        ts = self._window_ts
        started = perf_counter()
        # (edge, instant) pairs in fold order: ascending instants; at
        # each, every edge or the owners' incident edges, each once.
        pair_edges: List[int] = []
        pair_instants: List[int] = []
        incident = self._incident
        all_edge_ids = range(len(self.edges))
        for k, (owners, all_edges) in enumerate(
            zip(self._window_owners, self._window_all_edges)
        ):
            if all_edges:
                edge_ids: Iterable[int] = all_edge_ids
            elif len(owners) == 1:
                edge_ids = incident[owners[0]]
            else:
                edge_ids = dict.fromkeys(e for idx in owners for e in incident[idx])
            for e in edge_ids:
                pair_edges.append(e)
                pair_instants.append(k)
        records = self._records
        spread, k, hi, lo, winners = _fold_window(
            records, ts, _stack(records, ts),
            pair_edges, pair_instants, self._edge_idx,
        )
        # A window's first winner beats the running best only if strictly
        # larger: the same result as one strict > scan across windows.
        if spread > self._best_value:
            self._best_value, self._best_time = spread, ts[k]
            self._best_hi, self._best_lo = hi, lo
        edge_best_v, edge_best_t = self._edge_best_v, self._edge_best_t
        for e, (value, at) in winners.items():
            if value > edge_best_v[e]:
                edge_best_v[e], edge_best_t[e] = value, ts[at]
        if self._prune:
            last = ts[-1]
            for owners in self._window_owners:
                for idx in owners:
                    records[idx].prune_to(last)
        self._window_ts = []
        self._window_owners = []
        self._window_all_edges = []
        self.fold_seconds += perf_counter() - started

    # -- results -------------------------------------------------------------

    def global_extremum(self) -> SkewExtremum:
        """The folded worst-case global skew (Definition 3.1)."""
        nodes = self.nodes
        hi = nodes[self._best_hi] if self._best_hi is not None else None
        lo = nodes[self._best_lo] if self._best_lo is not None else None
        return SkewExtremum(self._best_value, self._best_time, hi, lo)

    def local_extremum(self) -> SkewExtremum:
        """The folded worst-case local skew (Definition 3.2)."""
        best = SkewExtremum(-1.0, 0.0, None, None)
        edge_best_v, edge_best_t = self._edge_best_v, self._edge_best_t
        for e, (a, b) in enumerate(self.edges):
            if edge_best_v[e] > best.value:
                best = SkewExtremum(edge_best_v[e], edge_best_t[e], a, b)
        return best

    def breakpoint_count(self, idx: int) -> int:
        """Unique evaluation instants consumed for node ``idx`` — equal to
        ``len(record.breakpoints_in(start, horizon))`` in trace mode."""
        return self._bp_counts[idx]


class StabilizationMonitor(BaseMonitor):
    """Dynamic-graph stabilization: the spread re-converges after churn.

    The dynamic-networks extension (Kuhn–Lenzen–Locher–Oshman) shows the
    gradient algorithm re-converges to the static-graph skew bounds
    within a bounded stabilization period after the last topology
    change.  The monitor is armed at ``stabilize_at`` (the last change
    time plus a conservative settle bound — see
    ``ExecutionSpec._monitors``); from then on the spread of logical
    clock values over *participating* nodes — started, neither crashed
    nor absent — must stay within ``bound`` (+ tolerance).

    Each check is O(nodes); it is only attached when the spec carries a
    topology schedule, and the certification scenarios that rely on it
    are small.
    """

    name = "stabilization"

    def __init__(self, bound: float, stabilize_at: float, strict: bool = True):
        super().__init__(strict)
        self.bound = float(bound)
        self.stabilize_at = float(stabilize_at)

    def check(self, engine, node: NodeId, time: float) -> None:
        if time < self.stabilize_at:
            return
        values: List[float] = []
        for other, runtime in engine._runtimes.items():
            if runtime.crashed or runtime.absent:
                continue
            if engine.start_time(other) is None:
                # Never-integrated nodes are reported by the engine's
                # all-started check; a zero clock here would only add a
                # spurious spread on top of that failure.
                continue
            values.append(engine.logical_value(other))
        if len(values) < 2:
            return
        spread = max(values) - min(values)
        if spread > self.bound + TOLERANCE:
            self._report(
                node,
                time,
                f"stabilization bound violated at t={time}: spread {spread} "
                f"> G={self.bound} (topology settled, armed at "
                f"t_s={self.stabilize_at})",
            )


class MonotonicityMonitor(BaseMonitor):
    """Logical clocks never run backwards (implied by Condition (2))."""

    name = "monotonicity"

    def __init__(self, strict: bool = True):
        super().__init__(strict)
        self._last: dict = {}

    def check(self, engine, node: NodeId, time: float) -> None:
        runtime = engine._runtimes[node]
        if not runtime.started:
            return
        logical = runtime.record.value(time)
        previous: Optional[float] = self._last.get(node)
        if previous is not None and logical < previous - TOLERANCE:
            self._report(
                node,
                time,
                f"logical clock decreased at node {node!r}: {previous} -> {logical}",
            )
        self._last[node] = logical
