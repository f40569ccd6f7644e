"""The certification campaign driver.

:func:`certify` is the engine behind ``repro certify``:

1. draw a deterministic scenario stream from the seed
   (:mod:`repro.cert.fuzzer`), compile every scenario to an
   :class:`~repro.exec.spec.ExecutionSpec`, and sweep them through a
   :class:`~repro.exec.pool.SweepExecutor` — fuzzing parallelizes,
   caches, and replays byte-identically like any other sweep;
2. evaluate every *applicable* execution certificate against every
   summary (skew bounds only on faultless runs, monitor conditions
   everywhere — see
   :meth:`~repro.cert.certificates.Certificate.applies_to`), collecting
   margin-to-bound statistics;
3. run the Section 7 construction certificates once per campaign;
4. for each violated certificate, shrink the *first* violating scenario
   to a minimal counterexample (:mod:`repro.cert.shrink`) and package it
   as a repro artifact (:mod:`repro.cert.artifact`), optionally written
   to ``artifact_dir``.

The report separates deterministic content (:meth:`CertificationReport.as_dict`
is stable for a fixed seed/budget/build, apart from the wall-clock
``duration_seconds`` field) from presentation (:meth:`~CertificationReport.format_text`).
Dispatch is a single executor batch over the whole scenario stream (one
pool per campaign, as in
:func:`~repro.cert.differential.differential_certify`) unless
``budget_seconds`` is set.  Only then is the stream dispatched
in batches of ``_BATCH`` scenarios, and the cap stops dispatching new
batches once the wall-time budget is spent — already-dispatched work
still completes, so the processed prefix is always a deterministic
function of how many scenarios ran.  Either way, outcomes are checked in
index order, so the report does not depend on the dispatch.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cert.artifact import ReproArtifact
from repro.cert.certificates import (
    Certificate,
    CertificateVerdict,
    resolve_certificates,
)
from repro.cert.fuzzer import generate_scenarios
from repro.cert.scenario import CertScenario
from repro.cert.shrink import shrink_scenario
from repro.exec.manifest import CampaignManifest
from repro.exec.pool import SweepExecutor

__all__ = ["CertificateStats", "CertificationReport", "certify"]

#: Scenarios dispatched per executor batch when a time budget applies.
_BATCH = 8


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile over a pre-sorted sample (deterministic)."""
    if not sorted_values:
        raise ValueError("percentile of empty sample")
    rank = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[rank]


@dataclass
class CertificateStats:
    """Per-certificate tallies across a campaign."""

    name: str
    checks: int = 0
    violations: int = 0
    margins: List[float] = field(default_factory=list)

    def record(self, verdict: CertificateVerdict) -> None:
        self.checks += 1
        if not verdict.satisfied:
            self.violations += 1
        if verdict.margin is not None:
            self.margins.append(verdict.margin)

    def margin_percentiles(self) -> Optional[Dict[str, float]]:
        """min/p5/p50/p95 of margin-to-bound (positive = slack held)."""
        if not self.margins:
            return None
        ordered = sorted(self.margins)
        return {
            "min": ordered[0],
            "p5": _percentile(ordered, 0.05),
            "p50": _percentile(ordered, 0.50),
            "p95": _percentile(ordered, 0.95),
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            "certificate": self.name,
            "checks": self.checks,
            "violations": self.violations,
            "margin_percentiles": self.margin_percentiles(),
        }


@dataclass
class CertificationReport:
    """Everything a campaign established, JSON- and text-renderable."""

    algorithm: str
    seed: int
    budget: int
    scenarios_run: int
    include_faults: bool
    include_churn: bool
    include_byzantine: bool
    certificates: Tuple[str, ...]
    stats: Dict[str, CertificateStats]
    violations: List[Dict[str, object]]
    constructions: List[Dict[str, object]]
    errors: List[Dict[str, object]]
    duration_seconds: float
    unfinished: int = 0

    @property
    def clean(self) -> bool:
        """No execution violations, no failed constructions, no run errors."""
        return (
            not self.violations
            and not self.errors
            and all(c["satisfied"] for c in self.constructions)
        )

    @property
    def complete(self) -> bool:
        """Every fuzzed scenario actually ran (or was quarantined).

        An interrupted campaign — workers lost faster than the backend
        could replace them — leaves specs unfinished; those scenarios
        were never checked, so the campaign must not certify.
        """
        return self.unfinished == 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "report": "certification",
            "algorithm": self.algorithm,
            "seed": self.seed,
            "budget": self.budget,
            "scenarios_run": self.scenarios_run,
            "include_faults": self.include_faults,
            "include_churn": self.include_churn,
            "include_byzantine": self.include_byzantine,
            "certificates": list(self.certificates),
            "clean": self.clean,
            "complete": self.complete,
            "unfinished": self.unfinished,
            "stats": [
                self.stats[name].as_dict() for name in sorted(self.stats)
            ],
            "violations": self.violations,
            "constructions": self.constructions,
            "errors": self.errors,
            "duration_seconds": self.duration_seconds,
        }

    def format_text(self) -> str:
        lines = [
            f"certification: algorithm={self.algorithm} seed={self.seed} "
            f"scenarios={self.scenarios_run}/{self.budget} "
            f"faults={'on' if self.include_faults else 'off'} "
            f"churn={'on' if self.include_churn else 'off'} "
            f"byzantine={'on' if self.include_byzantine else 'off'}",
            "",
            f"{'certificate':<24} {'checks':>6} {'viols':>5}  margin min/p50/p95",
        ]
        for name in sorted(self.stats):
            stat = self.stats[name]
            pct = stat.margin_percentiles()
            margins = (
                f"{pct['min']:.4g} / {pct['p50']:.4g} / {pct['p95']:.4g}"
                if pct
                else "-"
            )
            lines.append(
                f"{name:<24} {stat.checks:>6} {stat.violations:>5}  {margins}"
            )
        for construction in self.constructions:
            status = "ok" if construction["satisfied"] else "FAILED"
            lines.append(
                f"{construction['certificate']:<24} {'1':>6} "
                f"{'0' if construction['satisfied'] else '1':>5}  "
                f"construction {status}"
            )
        if self.errors:
            lines.append("")
            lines.append(f"{len(self.errors)} scenario(s) failed to execute:")
            for error in self.errors:
                lines.append(f"  [{error['index']}] {error['error']}")
        if self.violations:
            lines.append("")
            lines.append(f"{len(self.violations)} VIOLATION(S):")
            for violation in self.violations:
                lines.append(
                    f"  {violation['certificate']}: {violation['verdict']['detail']}"
                )
                shrunk = violation.get("shrunk_scenario")
                if shrunk:
                    lines.append(
                        f"    shrunk to {shrunk['topology_kind']}-{shrunk['nodes']} "
                        f"horizon={shrunk['horizon']} "
                        f"via {' '.join(violation['shrink_steps']) or '(already minimal)'}"
                    )
                path = violation.get("artifact_path")
                if path:
                    lines.append(f"    repro artifact: {path}")
        if self.unfinished:
            lines.append("")
            lines.append(
                f"INCOMPLETE campaign: {self.unfinished} scenario(s) "
                "unchecked; resume with --resume MANIFEST"
            )
        lines.append("")
        if not self.clean:
            result = "VIOLATIONS FOUND"
        elif not self.complete:
            result = "INCOMPLETE"
        else:
            result = "CERTIFIED"
        lines.append("RESULT: " + result)
        return "\n".join(lines)


def _violation_evaluator(certificate: Certificate):
    """Build the shrinker's oracle: does this scenario still violate?"""

    def evaluate(scenario: CertScenario) -> Optional[CertificateVerdict]:
        summary = scenario.build_spec().run_summary()
        verdict = certificate.check_summary(
            summary, scenario.build_params(), scenario.diameter()
        )
        return None if verdict.satisfied else verdict

    return evaluate


def certify(
    theorems: Optional[Sequence[str]] = None,
    budget: int = 50,
    budget_seconds: Optional[float] = None,
    seed: int = 0,
    algorithm: str = "aopt",
    include_faults: bool = True,
    include_churn: bool = False,
    include_byzantine: bool = False,
    shrink: bool = True,
    max_shrink_evals: int = 160,
    artifact_dir: Optional[str] = None,
    executor: Optional[SweepExecutor] = None,
    manifest_path: Optional[str] = None,
    resume: bool = False,
) -> CertificationReport:
    """Run a certification campaign; see the module docstring for phases.

    ``theorems`` selects certificates by name (``None`` = the full
    catalog).  Construction certificates in the selection run once with
    the campaign's ε = 0.05, T = 1.0 reference parameters; execution
    certificates are checked against every fuzzed scenario they govern.

    ``include_churn`` switches the fuzzer to partition-then-merge
    dynamic-topology scenarios (see :mod:`repro.cert.fuzzer`); the
    ``kllo-stabilization`` certificate only ever applies there, and the
    static skew bounds drop out (they are vacuous under churn).

    ``include_byzantine`` switches it to Byzantine corruption scenarios
    instead: the ``ftgcs-byzantine-skew`` certificate only ever applies
    there, the fault-free skew bounds drop out (an unfiltered victim is
    *expected* to exceed them), and the monitor certificates keep
    applying (corruption rewrites messages, never clocks).

    ``manifest_path`` makes the campaign resumable: a
    :class:`~repro.exec.manifest.CampaignManifest` over every fuzzed
    spec is saved to disk as each executor batch completes or is
    interrupted.  With ``resume=True`` an existing manifest at that
    path is loaded first, so completed digests are served from the
    result cache (or the work-queue results store) and quarantined ones
    are skipped — the scenario stream itself is a pure function of
    ``seed``/``budget``, which is what makes the digests line up across
    invocations.
    """
    started = time.monotonic()
    selected = resolve_certificates(theorems)
    execution = [c for c in selected if c.kind == "execution"]
    construction = [c for c in selected if c.kind == "construction"]
    if executor is None:
        executor = SweepExecutor()

    scenarios = list(
        generate_scenarios(
            seed,
            budget,
            algorithm=algorithm,
            include_faults=include_faults,
            include_churn=include_churn,
            include_byzantine=include_byzantine,
        )
    )
    specs = [scenario.build_spec() for scenario in scenarios]
    manifest = None
    if manifest_path is not None:
        if resume and os.path.exists(manifest_path):
            manifest = CampaignManifest.load(manifest_path)
            for spec in specs:
                manifest.ensure(spec.digest(), spec.label)
        else:
            manifest = CampaignManifest.for_specs(
                specs,
                meta={
                    "command": "certify",
                    "seed": seed,
                    "budget": budget,
                    "algorithm": algorithm,
                    "include_faults": include_faults,
                    "include_churn": include_churn,
                    "include_byzantine": include_byzantine,
                },
                path=manifest_path,
            )
            manifest.save()
    stats = {c.name: CertificateStats(c.name) for c in execution}
    first_violation: Dict[str, Tuple[CertScenario, CertificateVerdict]] = {}
    errors: List[Dict[str, object]] = []
    scenarios_run = 0
    unfinished = 0

    step = _BATCH if budget_seconds is not None else max(1, len(scenarios))
    for start in range(0, len(scenarios), step):
        if budget_seconds is not None and time.monotonic() - started > budget_seconds:
            break
        batch = scenarios[start : start + step]
        outcomes = executor.run(specs[start : start + step], manifest=manifest)
        # An interrupted backend (chaos, lost workers) returns only the
        # outcomes it finished; the gap is unchecked work, not success.
        unfinished += len(batch) - len(outcomes)
        for outcome in outcomes:
            scenario = batch[outcome.index]
            offset = outcome.index
            scenarios_run += 1
            if not outcome.ok:
                errors.append(
                    {"index": start + offset, "error": outcome.error,
                     "scenario": scenario.as_dict()}
                )
                continue
            params = scenario.build_params()
            diameter = scenario.diameter()
            for certificate in execution:
                if not certificate.applies_to(
                    algorithm,
                    scenario.has_faults,
                    scenario.has_topology_schedule,
                    scenario.has_byzantine,
                ):
                    continue
                verdict = certificate.check_summary(outcome.summary, params, diameter)
                stats[certificate.name].record(verdict)
                if not verdict.satisfied:
                    first_violation.setdefault(
                        certificate.name, (scenario, verdict)
                    )

    violations: List[Dict[str, object]] = []
    for name in sorted(first_violation):
        scenario, verdict = first_violation[name]
        certificate = resolve_certificates([name])[0]
        record: Dict[str, object] = {
            "certificate": name,
            "scenario": scenario.as_dict(),
            "verdict": verdict.as_dict(),
            "shrunk_scenario": None,
            "shrink_steps": [],
            "shrink_evaluations": 0,
            "artifact_path": None,
        }
        final_scenario, final_verdict, steps = scenario, verdict, ()
        if shrink:
            result = shrink_scenario(
                scenario, _violation_evaluator(certificate), max_evals=max_shrink_evals
            )
            final_scenario, final_verdict = result.scenario, result.verdict
            steps = result.steps
            record["shrunk_scenario"] = final_scenario.as_dict()
            record["shrink_steps"] = list(steps)
            record["shrink_evaluations"] = result.evaluations
            record["verdict"] = final_verdict.as_dict()
        artifact = ReproArtifact.from_verdict(final_scenario, final_verdict, steps)
        record["spec_digest"] = artifact.spec_digest
        if artifact_dir is not None:
            os.makedirs(artifact_dir, exist_ok=True)
            path = os.path.join(artifact_dir, f"repro-{name}.json")
            artifact.save(path)
            record["artifact_path"] = path
        violations.append(record)

    constructions: List[Dict[str, object]] = []
    if construction:
        from repro.core.params import SyncParams

        reference = SyncParams.recommended(0.05, 1.0)
        for certificate in construction:
            constructions.append(certificate.run(reference).as_dict())

    return CertificationReport(
        algorithm=algorithm,
        seed=seed,
        budget=budget,
        scenarios_run=scenarios_run,
        include_faults=include_faults,
        include_churn=include_churn,
        include_byzantine=include_byzantine,
        certificates=tuple(c.name for c in selected),
        stats=stats,
        violations=violations,
        constructions=constructions,
        errors=errors,
        duration_seconds=time.monotonic() - started,
        unfinished=unfinished,
    )
