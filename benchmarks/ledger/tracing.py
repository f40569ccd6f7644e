"""Outside-in layer tracing: class-level wrappers around each layer's API.

Nothing under ``src/`` knows it is being traced.  :func:`install` swaps
the public methods each layer exposes for wrappers, at class level and
before any engine is built, so every call the engine makes through an
instance goes through them; :meth:`Tracer.uninstall` puts the originals
back.

Three wrapper kinds keep the cost proportional to what is learned:

* *timed* boundaries accumulate call counts and **self time** per layer:
  a frame's duration minus the time its timed children took.  Self
  times therefore partition the op's wall time, which is what lets the
  ledger check that the layers close.  A call into a layer that is
  already the innermost timed frame (``super()`` chains, a skew query
  that calls another) is passed straight through, so only the outermost
  call counts;
* *span* boundaries are timed boundaries that additionally keep a full
  span record (name, start, end, parent, op id).  Only per-op
  boundaries are spans, so the span list stays small;
* *counted* boundaries only increment a counter: the ``NodeContext``
  getters and the clock algebra are called millions of times per op, and
  timing them doubled the traced op in a prototype.  Their time stays
  in whichever timed layer called them.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "install", "ENGINE_GROUP", "CAMPAIGN_GROUP"]

#: Layer groups: the single-execution workloads trace the engine stack
#: in-process; the campaign traces only what its parent process runs
#: (pool workers inherit the classes, so engine wrappers would slow them).
ENGINE_GROUP = "engine"
CAMPAIGN_GROUP = "campaign"


class Tracer:
    """Per-layer self time, call counts, and per-op spans, kept in memory."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.spans: List[Dict[str, Any]] = []
        #: ``SweepMetrics`` of every executor batch in the current op.
        self.batches: List[Any] = []
        self.op_id: Optional[int] = None
        # Frames are [layer, child_seconds, span_index or None].
        self._stack: List[list] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- per-op bookkeeping ----------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        """Start accounting for one op; counters from between ops are dropped."""
        self.self_s.clear()
        self.calls.clear()
        self.batches.clear()
        self.op_id = op_id

    def end_op(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """The op's per-layer self seconds and call counts."""
        self.op_id = None
        return dict(self.self_s), dict(self.calls)

    def op_span(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as the op's root span (layer ``name``)."""
        return self._wrap_timed(name, fn, span=True)()

    # -- wrappers --------------------------------------------------------------

    def _wrap_timed(self, layer: str, fn: Callable, span: bool = False) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            span_index = None
            if span:
                span_index = len(spans)
                parents = [f[2] for f in stack if f[2] is not None]
                spans.append({"op": tracer.op_id, "name": f"{layer}:{fn.__qualname__}",
                              "parent": parents[-1] if parents else None,
                              "start": 0.0, "end": 0.0})
            frame = [layer, 0.0, span_index]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                self_s[layer] = self_s.get(layer, 0.0) + elapsed - frame[1]
                calls[layer] = calls.get(layer, 0) + 1
                if stack:
                    stack[-1][1] += elapsed
                if span_index is not None:
                    spans[span_index]["start"] = start
                    spans[span_index]["end"] = end

        return timed

    def _wrap_counted(self, key: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner: Any, attr: str, wrapper: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def timed(self, owner: Any, attrs, layer: str, span: bool = False) -> None:
        """Charge calls of ``owner.<attr>`` to ``layer`` (self time and count)."""
        for attr in attrs:
            self._patch(owner, attr, lambda fn: self._wrap_timed(layer, fn, span))

    def counted(self, owner: Any, attrs, key: str) -> None:
        """Count calls of ``owner.<attr>`` under ``key``; no timing."""
        for attr in attrs:
            self._patch(owner, attr, lambda fn: self._wrap_counted(key, fn))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _subclasses(base: type) -> List[type]:
    """``base`` and every class deriving from it that is imported now."""
    seen: List[type] = []
    todo = [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _own(cls: type, names) -> List[str]:
    return [name for name in names if name in cls.__dict__]


def _install_engine(tracer: Tracer) -> None:
    from repro.core.interfaces import AlgorithmNode
    from repro.exec import summary
    from repro.faults.injector import FaultInjector
    from repro.sim.clock import HardwareClock
    from repro.sim.delays import DelayModel
    from repro.sim.engine import SimulationEngine, _EngineContext
    from repro.sim.monitors import BaseMonitor, StreamingSkewTracker
    from repro.sim.trace import ExecutionTrace, LogicalClockRecord
    from repro.topology.dynamic import CompiledTopologySchedule
    import repro.variants  # noqa: F401 - registers every node class

    tracer.timed(SimulationEngine, ["__init__"], "sim.engine")
    tracer.timed(SimulationEngine, ["run", "run_streaming"], "sim.engine", span=True)
    # Sends and alarms are engine dispatch reached through the context:
    # timed as engine work and counted as context services.
    tracer.timed(_EngineContext, ["send_to", "send_all", "set_alarm"], "sim.engine")
    tracer.counted(
        _EngineContext,
        ["hardware", "logical", "rate_multiplier", "set_rate_multiplier",
         "jump_logical", "send_to", "send_all", "set_alarm", "cancel_alarm", "probe"],
        "ctx",
    )
    callbacks = ("on_start", "on_message", "on_alarm", "on_recover")
    for cls in _subclasses(AlgorithmNode):
        tracer.timed(cls, _own(cls, callbacks), "core")
    tracer.timed(DelayModel, ["validated_delay"], "sim.delays")
    tracer.timed(
        FaultInjector,
        ["message_fate", "is_link_down", "is_node_down", "is_byzantine",
         "corrupt_payload", "next_recovery"],
        "faults",
    )
    tracer.timed(
        CompiledTopologySchedule,
        ["is_node_absent", "next_presence", "node_absence_intervals",
         "absence_in", "is_edge_absent"],
        "topology",
    )
    tracer.timed(StreamingSkewTracker, ["advance", "finalize"], "sim.monitors.fold")
    for cls in _subclasses(BaseMonitor):
        tracer.timed(cls, _own(cls, ["check"]), "sim.monitors.check")
    tracer.timed(ExecutionTrace, ["global_skew", "local_skew", "spread_at"], "sim.trace")
    tracer.timed(summary, ["summarize_trace", "summarize_streaming"], "exec.summary", span=True)
    tracer.counted(
        LogicalClockRecord,
        ["value", "value_left", "checkpoint", "values_at", "values_left_at"],
        "sim.clock",
    )
    tracer.counted(HardwareClock, ["value", "time_at_value", "values_at"], "sim.clock")


def _install_campaign(tracer: Tracer) -> None:
    from repro.cert import fuzzer, runner
    from repro.cert.certificates import Certificate
    from repro.cert.scenario import CertScenario
    from repro.exec.cache import ResultCache
    from repro.exec.pool import SweepExecutor

    tracer.timed(runner, ["certify"], "cert", span=True)
    tracer.timed(fuzzer, ["sample_scenario"], "cert.generate")
    tracer.timed(CertScenario, ["build_spec"], "cert.generate")
    for cls in _subclasses(Certificate):
        tracer.timed(cls, _own(cls, ["check_summary"]), "cert.check")
        tracer.timed(cls, _own(cls, ["run"]), "cert.construct")
    def keep_batch_metrics(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def run(executor, *args, **kwargs):
            try:
                return fn(executor, *args, **kwargs)
            finally:
                tracer.batches.append(executor.last_metrics)

        return run

    tracer._patch(SweepExecutor, "run", keep_batch_metrics)
    tracer.timed(SweepExecutor, ["run"], "exec.pool", span=True)
    tracer.timed(ResultCache, ["get"], "exec.cache.get")
    tracer.timed(ResultCache, ["put"], "exec.cache.put")


def install(group: str) -> Tracer:
    """Wrap the layers of ``group`` (see module docstring); returns the tracer."""
    from repro.exec.spec import ExecutionSpec

    tracer = Tracer()
    tracer.timed(ExecutionSpec, ["digest"], "exec.spec.digest")
    if group == ENGINE_GROUP:
        tracer.timed(ExecutionSpec, ["run_summary", "run"], "exec.spec", span=True)
        _install_engine(tracer)
    elif group == CAMPAIGN_GROUP:
        _install_campaign(tracer)
    else:
        raise ValueError(f"unknown layer group {group!r}")
    return tracer
