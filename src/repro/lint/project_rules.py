"""Whole-program reprolint rules: R006 (taint reachability), R009 (purity).

Unlike the single-file rules in :mod:`repro.lint.rules`, these run once
per lint invocation against the :class:`~repro.lint.graph.ProjectIndex`
— they see every module at once, so a ``sim/`` function that reaches
``time.time()`` through a helper in another module is no longer
invisible.

Division of labour with the single-file rules: one classifier
(:mod:`repro.lint.graph`) records every nondeterminism source, and R001
and R002 render the direct ones across the whole module, so:

* R002 already reports *direct* wall-clock/environment reads inside the
  replay layers, and R006 never duplicates those — it reports functions
  whose nondeterminism arrives **through a call chain**, plus direct
  reads that R002's scope cannot see (process identity anywhere in
  scope, wall clock inside digest sinks outside the replay trees).
* Direct unseeded RNG (R001) and direct unordered-set iteration (R003)
  likewise stay with their single-file owners; R006 picks them up only
  once they cross a module or function boundary.

Frontier reporting keeps output proportional to the number of *leaks*
rather than the number of callers: when ``f -> g -> time.time()`` and
both ``f`` and ``g`` are in scope, only ``g`` — the deepest in-scope
function on the chain — reports, because fixing ``g`` fixes ``f``.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.lint.findings import Finding
from repro.lint.graph import FunctionSummary, ProjectIndex
from repro.lint.taint import TaintAnalysis

__all__ = [
    "ProjectRule",
    "PROJECT_RULES",
    "register_project",
    "InterproceduralNondeterminism",
    "CertificatePredicatePurity",
]


class ProjectRule:
    """One whole-program rule: inspects the index, yields findings."""

    id: str = ""
    summary: str = ""

    def check(self, index: ProjectIndex, taint: TaintAnalysis) -> List[Finding]:
        raise NotImplementedError


PROJECT_RULES: Dict[str, ProjectRule] = {}


def register_project(cls: Type[ProjectRule]) -> Type[ProjectRule]:
    PROJECT_RULES[cls.id] = cls()
    return cls


@register_project
class InterproceduralNondeterminism(ProjectRule):
    """R006: nondeterminism must not reach replay layers or digest sinks."""

    id = "R006"
    summary = (
        "no call chain may carry wall-clock, RNG, environment, process-"
        "identity, or set-order nondeterminism into sim/exec/faults code "
        "or digest-critical sinks"
    )

    def check(self, index: ProjectIndex, taint: TaintAnalysis) -> List[Finding]:
        findings: List[Finding] = []
        for qname in sorted(index.functions):
            fn = index.functions[qname]
            reason = index.scope_reason(fn)
            if not reason:
                continue
            record = taint.record(qname)
            if record is None:
                continue
            if record.dist == 0:
                finding = self._direct_finding(index, taint, fn, reason)
            else:
                finding = self._chain_finding(index, taint, fn, reason)
            if finding is not None:
                findings.append(finding)
        return findings

    def _direct_finding(self, index, taint, fn: FunctionSummary, reason):
        """Direct sources the single-file rules do not already own."""
        record = taint.record(fn.qname)
        src = record.source
        summary = index.module_for(fn.qname)
        in_replay = bool(summary.replay_layer)
        if src.kind == "process-identity":
            pass  # no single-file rule covers these: always ours
        elif src.kind in ("wall-clock", "environment"):
            if in_replay:
                return None  # R002's single-file scope already reports it
            if not fn.sink:
                return None
        else:
            return None  # unseeded-rng → R001, set-order → R003
        chain = tuple(taint.render_chain(fn.qname))
        return Finding(
            path=summary.relpath,
            line=src.line,
            col=src.col,
            rule=self.id,
            message=(
                f"{fn.qname}() is in {reason} but reads "
                f"{src.kind} source {src.detail}"
            ),
            chain=chain,
        )

    def _chain_finding(self, index, taint, fn: FunctionSummary, reason):
        steps = taint.chain(fn.qname)
        # Frontier reporting: if any deeper function on this chain is
        # itself in scope, that function owns the finding (fixing it
        # fixes this caller too) — or, when the deeper function holds
        # the source directly inside a replay layer, R002 owns it.
        for step in steps[1:]:
            deeper = index.functions[step.qname]
            if index.scope_reason(deeper):
                return None
        record = steps[0]
        chain = taint.render_chain(fn.qname)
        source_desc = taint.describe_source(fn.qname)
        message = (
            f"{fn.qname}() is in {reason} but reaches {source_desc} "
            f"via {' -> '.join(s.qname for s in steps)}"
        )
        summary = index.module_for(fn.qname)
        return Finding(
            path=summary.relpath,
            line=record.call_line,
            col=record.call_col,
            rule=self.id,
            message=message,
            chain=tuple(chain),
        )


@register_project
class CertificatePredicatePurity(ProjectRule):
    """R009: registered certificate predicates must be pure."""

    id = "R009"
    summary = (
        "certificate predicates (registry-registered functions and "
        "check/bound/run methods of Certificate classes) must not "
        "perform IO, mutate module globals, or construct RNGs"
    )

    def check(self, index: ProjectIndex, taint: TaintAnalysis) -> List[Finding]:
        findings: List[Finding] = []
        predicates = index.certificate_predicates()
        for qname in sorted(predicates):
            fn = index.functions[qname]
            summary = index.module_for(qname)
            how = predicates[qname]
            for imp in sorted(
                fn.impurities, key=lambda i: (i.line, i.col, i.kind)
            ):
                findings.append(
                    Finding(
                        path=summary.relpath,
                        line=imp.line,
                        col=imp.col,
                        rule=self.id,
                        message=(
                            f"certificate predicate {fn.qname}() "
                            f"({how}) must stay pure but {imp.detail}"
                        ),
                    )
                )
        return findings
