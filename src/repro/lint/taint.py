"""Interprocedural taint propagation over the reprolint call graph.

A function is *tainted* when it contains a direct nondeterminism source
(:class:`~repro.lint.graph.SourceSite`) or calls a tainted function.
Propagation is a multi-source BFS over the reverse call graph, so every
tainted function records its *shortest* path to a source — that is the
chain R006 renders, and shortest paths keep the report stable as
unrelated code grows.

Determinism: BFS layers are processed in sorted qname order, ties among
a function's outgoing tainted calls break on (line, col, callee qname),
and ties among a function's own sources break on (line, col, kind).
Re-running over an unchanged tree therefore reproduces byte-identical
chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.lint.graph import FunctionSummary, ProjectIndex, SourceSite

__all__ = ["TaintRecord", "TaintAnalysis", "function_label"]

#: Rule ids whose inline disable on a source line sanctions that source.
_SANCTIONING = frozenset({"R002", "R006"})


@dataclass(frozen=True)
class TaintRecord:
    """Why one function is tainted.

    ``source`` is set iff the function holds the source directly
    (``dist == 0``); otherwise ``next_hop`` names the tainted callee and
    ``call_line``/``call_col`` locate the call that imports the taint.
    """

    qname: str
    dist: int
    source: Optional[SourceSite] = None
    next_hop: str = ""
    call_line: int = 0
    call_col: int = 0


class TaintAnalysis:
    """Multi-source shortest-path taint over a :class:`ProjectIndex`."""

    def __init__(self, index: ProjectIndex):
        self.index = index
        self.records: Dict[str, TaintRecord] = {}
        self._propagate()

    def _propagate(self) -> None:
        # Seed: every function with a direct source, best source first.
        # A `# reprolint: disable=R002/R006` on the source line sanctions
        # the read at its origin: every chain through it goes quiet, which
        # is what "suppress at the source" means interprocedurally.
        frontier: List[str] = []
        for qname in sorted(self.index.functions):
            fn = self.index.functions[qname]
            disabled = self.index.module_for(qname).suppressions
            sources = [
                s
                for s in fn.sources
                if not _SANCTIONING.intersection(disabled.get(s.line, ()))
            ]
            if not sources:
                continue
            best = min(sources, key=lambda s: (s.line, s.col, s.kind))
            self.records[qname] = TaintRecord(qname=qname, dist=0, source=best)
            frontier.append(qname)

        reverse = self.index.reverse_edges()
        dist = 1
        while frontier:
            # Collect this layer's callers, then commit the best edge per
            # caller: sorted callee order makes tie-breaks deterministic.
            candidates: Dict[str, Tuple[int, int, str]] = {}
            for callee in sorted(frontier):
                for caller, line, col in reverse.get(callee, ()):
                    if caller in self.records:
                        continue
                    edge = (line, col, callee)
                    if caller not in candidates or edge < candidates[caller]:
                        candidates[caller] = edge
            frontier = []
            for caller in sorted(candidates):
                line, col, callee = candidates[caller]
                self.records[caller] = TaintRecord(
                    qname=caller,
                    dist=dist,
                    next_hop=callee,
                    call_line=line,
                    call_col=col,
                )
                frontier.append(caller)
            dist += 1

    def record(self, qname: str) -> Optional[TaintRecord]:
        return self.records.get(qname)

    def chain(self, qname: str) -> List[TaintRecord]:
        """The records from ``qname`` down to the source-holding function."""
        steps: List[TaintRecord] = []
        cursor: Optional[str] = qname
        while cursor is not None:
            record = self.records.get(cursor)
            if record is None:
                break
            steps.append(record)
            cursor = record.next_hop or None
        return steps

    def render_chain(self, qname: str) -> List[str]:
        """Human-readable chain steps, caller first, source last.

        Each step reads ``qname (path:line)``; the final element names
        the nondeterminism source itself.
        """
        steps: List[str] = []
        for record in self.chain(qname):
            fn = self.index.functions[record.qname]
            summary = self.index.module_for(record.qname)
            if record.source is not None:
                steps.append(
                    f"{record.qname} ({summary.relpath}:{record.source.line}) "
                    f"reads {record.source.detail}"
                )
            else:
                steps.append(f"{record.qname} ({summary.relpath}:{record.call_line})")
        return steps

    def describe_source(self, qname: str) -> str:
        """The source kind+detail terminating ``qname``'s chain."""
        steps = self.chain(qname)
        if not steps or steps[-1].source is None:
            return "nondeterminism source"
        src = steps[-1].source
        return f"{src.kind} source {src.detail}"

    @staticmethod
    def chain_functions(steps: List[TaintRecord]) -> List[str]:
        return [step.qname for step in steps]

    def taint_summary(self) -> Dict[str, int]:
        """qname → distance, for diagnostics (``--graph`` output)."""
        return {qname: rec.dist for qname, rec in sorted(self.records.items())}


def function_label(fn: FunctionSummary) -> str:
    """Short display label: ``Class.method`` or bare function name."""
    return f"{fn.cls}.{fn.name}" if fn.cls else fn.name
