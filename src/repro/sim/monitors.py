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
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from time import perf_counter
from typing import Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import InvariantViolation
from repro.sim import trace as _trace
from repro.sim.trace import LogicalClockRecord, SkewExtremum

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

#: Absolute numerical slack for invariant comparisons.
TOLERANCE = 1e-7

#: Evaluation cells (nodes × instants) one streaming flush may hold.
FLUSH_CELLS = 16384

#: Window size from which a streaming flush evaluates through numpy.
VECTOR_MIN_INSTANTS = 64

#: Window size from which a pure-Python flush uses the batched sweeps;
#: below it the scalar methods' bisects cost less than the sweeps'
#: per-call set-up (measured crossover: 3 to 4 instants).
SWEEP_MIN_INSTANTS = 4


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
        start = engine.start_time(node)
        if start is None:
            return
        logical = engine.logical_value(node)
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
        if engine.start_time(node) is None:
            return
        runtime_record = engine._runtimes[node].record
        rate = runtime_record.rate_at(time)
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
    (:attr:`window_instants` instants, ``max(1, 16384 // nodes)``) and
    the horizon endpoint in :meth:`finalize` are *flushed*: one
    right-value and one left-limit column per record over the window's
    instants, through the numpy kernel trace mode uses
    (``_vector_values``) from :data:`VECTOR_MIN_INSTANTS` instants on,
    else in pure Python (the ``values_at`` / ``values_left_at`` sweeps
    from :data:`SWEEP_MIN_INSTANTS` instants on, ``value`` /
    ``value_left`` below), then the same ordered fold as above.
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
        np = _trace._np
        if np is not None and len(ts) >= VECTOR_MIN_INSTANTS:
            self._fold_vector(np, ts, pair_edges, pair_instants)
        else:
            self._fold_scalar(ts, pair_edges, pair_instants)
        if self._prune:
            last = ts[-1]
            records = self._records
            for owners in self._window_owners:
                for idx in owners:
                    records[idx].prune_to(last)
        self._window_ts = []
        self._window_owners = []
        self._window_all_edges = []
        self.fold_seconds += perf_counter() - started

    def _fold_vector(
        self, np, ts: List[float], pair_edges: List[int], pair_instants: List[int]
    ) -> None:
        """The window fold over numpy columns (bit-identical to scalar).

        Column max/min select floats without rounding, and argmax and
        the slot-ordered lexsort keep the first of equal maxima, so the
        winners are those of the strict ``>`` scan over the same ordered
        sequence that :meth:`_fold_scalar` runs.
        """
        times = np.asarray(ts)
        n_inst = len(ts)
        rights = np.zeros((len(self._records), n_inst))
        lefts = np.zeros((len(self._records), n_inst))
        for row, record in enumerate(self._records):
            if record is not None:
                rights[row], lefts[row] = _trace._vector_values(record, times)
        spreads = np.empty(2 * n_inst)
        spreads[0::2] = rights.max(axis=0) - rights.min(axis=0)
        spreads[1::2] = lefts.max(axis=0) - lefts.min(axis=0)
        k = int(spreads.argmax())
        if spreads[k] > self._best_value:
            column = (rights if k % 2 == 0 else lefts)[:, k >> 1]
            self._best_value = float(spreads[k])
            self._best_time = ts[k >> 1]
            self._best_hi = int(column.argmax())
            self._best_lo = int(column.argmin())
        if not pair_edges:
            return
        instants = np.asarray(pair_instants)
        ends = np.asarray(self._edge_idx)[pair_edges]
        a, b = ends[:, 0], ends[:, 1]
        # Slot 2p is pair p's right-value skew, slot 2p+1 its left limit.
        magnitudes = np.empty(2 * len(pair_edges))
        magnitudes[0::2] = np.abs(rights[a, instants] - rights[b, instants])
        magnitudes[1::2] = np.abs(lefts[a, instants] - lefts[b, instants])
        slot_edges = np.repeat(np.asarray(pair_edges), 2)
        # Sorted by edge, then largest magnitude, then earliest slot: the
        # head of each edge's group is the winner of its strict > scan.
        order = np.lexsort((np.arange(len(slot_edges)), -magnitudes, slot_edges))
        heads = order[np.flatnonzero(np.diff(slot_edges[order], prepend=-1))]
        edge_best_v, edge_best_t = self._edge_best_v, self._edge_best_t
        for e, value, slot in zip(
            slot_edges[heads].tolist(), magnitudes[heads].tolist(), heads.tolist()
        ):
            if value > edge_best_v[e]:
                edge_best_v[e] = value
                edge_best_t[e] = ts[pair_instants[slot >> 1]]

    def _fold_scalar(
        self, ts: List[float], pair_edges: List[int], pair_instants: List[int]
    ) -> None:
        """The window fold over pure-Python column sweeps."""
        n_inst = len(ts)
        records = self._records
        # Flat row-major columns: record r's value at ts[k] sits at
        # r * n_inst + k.
        rights: List[float] = []
        lefts: List[float] = []
        zeros = [0.0] * n_inst
        sweep = n_inst >= SWEEP_MIN_INSTANTS
        for record in records:
            if record is None:
                rights += zeros
                lefts += zeros
            elif sweep:
                hw_values = record.hardware.values_at(ts)
                rights += record.values_at(ts, _hw_values=hw_values)
                lefts += record.values_left_at(ts, _hw_values=hw_values)
            else:
                # Right then left at each instant: the left limit reuses
                # the hardware clock's memoised value.
                for t in ts:
                    rights.append(record.value(t))
                    lefts.append(record.value_left(t))
        best_value = self._best_value
        for k in range(n_inst):
            for flat in (rights, lefts):
                values = flat[k::n_inst]
                top = max(values)
                bottom = min(values)
                spread = top - bottom
                if spread > best_value:
                    best_value = spread
                    self._best_time = ts[k]
                    self._best_hi = values.index(top)
                    self._best_lo = values.index(bottom)
        self._best_value = best_value
        edge_idx = self._edge_idx
        edge_best_v, edge_best_t = self._edge_best_v, self._edge_best_t
        for e, k in zip(pair_edges, pair_instants):
            ia, ib = edge_idx[e]
            ia, ib = ia * n_inst + k, ib * n_inst + k
            for flat in (rights, lefts):
                magnitude = abs(flat[ia] - flat[ib])
                if magnitude > edge_best_v[e]:
                    edge_best_v[e], edge_best_t[e] = magnitude, ts[k]

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
        if engine.start_time(node) is None:
            return
        logical = engine.logical_value(node)
        previous: Optional[float] = self._last.get(node)
        if previous is not None and logical < previous - TOLERANCE:
            self._report(
                node,
                time,
                f"logical clock decreased at node {node!r}: {previous} -> {logical}",
            )
        self._last[node] = logical
