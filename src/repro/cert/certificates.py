"""The certificate registry: one machine-checkable claim per theorem.

A :class:`Certificate` packages a theorem's quantitative claim as

* a **closed-form bound** computed from the spec's parameters (ε, μ, T,
  H0, κ via :class:`~repro.core.params.SyncParams`) and the topology
  diameter — delegated to :mod:`repro.core.bounds`, the single source of
  truth, so the certifier and the test suite can never disagree on a
  formula; and
* a **predicate** over a finished execution, evaluated either from a
  picklable :class:`~repro.exec.summary.ExecutionSummary` (the sweep
  path) or from a full :class:`~repro.sim.trace.ExecutionTrace` (the
  exact post-hoc path used by unit tests).

Execution certificates (checked on every fuzzed run):

=====================  ==========================================================
``thm-5.5-global-skew``  global skew ≤ ``G = (1+ε)·D·T + 2ε/(1+ε)·H0``
``thm-5.10-local-skew``  local skew ≤ ``κ(⌈log_σ(2G/κ)⌉ + ½)``
``cond1-envelope``       Condition (1): ``(1−ε)(t−t_v) ≤ L_v(t) ≤ (1+ε)t``
``cond2-rate-bounds``    Condition (2): logical rate in ``[α, β]``
``monotonicity``         logical clocks never run backwards
``kllo-stabilization``   after the last topology change, spread ≤ ``G``
                         once the settle bound elapses (KLLO-style claim)
``ftgcs-byzantine-skew`` with < 1/3 Byzantine neighbors per node, global
                         skew ≤ ``G + κ`` (Bund–Lenzen–Rosenbaum claim;
                         *requires* a Byzantine schedule)
``gcs-pcls-local-skew``  the PCLS rate discipline keeps local skew within
                         the Theorem 5.10 bound (fault-free)
=====================  ==========================================================

Construction certificates (self-contained lower-bound replays, run once
per campaign rather than fuzzed):

=======================  ========================================================
``thm-7.2-global-lower``  the E3 adversary forces skew ≥ ``(1+ϱ)·D·T``
``thm-7.7-local-lower``   skew amplification forces neighbor skew ≥ ``(1−ε)·T``
=======================  ========================================================

Applicability: a certificate *governs* the A^opt family algorithms whose
guarantees it states (baselines make no such claims).  By default these
are the ``certifiable`` entries of :mod:`repro.algorithms`, the planted
controls included: a plant claims the guarantees it is built to break,
so the certifier holds it to the same bounds.  The skew bounds
additionally assume the faultless model of Section 3 — under a fault
schedule only the envelope/rate/monotonicity conditions remain claims
(crashed nodes free-run at multiplier 1, which stays inside both).  The
same logic extends to dynamic topologies: under a
:class:`~repro.topology.dynamic.TopologySchedule` the static skew bounds
are vacuous (a partition drifts past ``G`` unavoidably), so skew
certificates require ``dynamic_compatible`` executions, while
``kllo-stabilization`` goes the other way — it *requires* a topology
schedule, because its claim is about re-convergence after the last
change.

Byzantine schedules (``FaultSchedule.byzantine``) follow the same
pattern: the skew theorems assume honest messages, so under corruption
only ``byzantine_compatible`` certificates remain claims (the envelope/
rate/monotonicity conditions — a node's *own* clock is never touched by
in-flight corruption), and ``ftgcs-byzantine-skew`` *requires* a
Byzantine schedule, because on honest runs Theorem 5.5 already states a
strictly tighter claim.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import algorithms
from repro.core.bounds import global_skew_bound, local_skew_bound
from repro.core.params import SyncParams
from repro.errors import ConfigurationError
from repro.exec.summary import ExecutionSummary
from repro.sim.monitors import TOLERANCE
from repro.sim.trace import ExecutionTrace

__all__ = [
    "TOLERANCE",
    "CertificateVerdict",
    "Certificate",
    "SkewCertificate",
    "ByzantineSkewCertificate",
    "MonitorCertificate",
    "ConstructionCertificate",
    "CERTIFICATES",
    "certificate_bound",
    "execution_certificates",
    "construction_certificates",
    "resolve_certificates",
]

_VIOLATION_TIME = re.compile(r"/t=([0-9eE+.-]+):")


@dataclass(frozen=True)
class CertificateVerdict:
    """One certificate evaluated against one execution.

    ``margin`` is slack toward satisfaction — positive when the claim
    holds with room to spare, negative when violated.  For upper bounds it
    is ``bound − measured``; for lower-bound constructions it is
    ``measured − target``.  ``None`` when the evaluation path yields no
    exact number (monitor counts from a summary).
    """

    certificate: str
    satisfied: bool
    measured: float
    bound: float
    margin: Optional[float]
    violation_time: Optional[float]
    detail: str

    def as_dict(self) -> Dict[str, object]:
        """Canonical JSON-ready form (stable key set, plain values)."""
        return {
            "certificate": self.certificate,
            "satisfied": self.satisfied,
            "measured": self.measured,
            "bound": self.bound,
            "margin": self.margin,
            "violation_time": self.violation_time,
            "detail": self.detail,
        }


class Certificate:
    """Base class: identity, applicability, and the three check entry points."""

    #: ``"execution"`` (fuzzed per run) or ``"construction"`` (self-run).
    kind = "execution"

    def __init__(
        self,
        name: str,
        theorem: str,
        claim: str,
        governs: Tuple[str, ...] = algorithms.names("certifiable"),
        fault_compatible: bool = False,
        dynamic_compatible: bool = False,
        requires_dynamic: bool = False,
        byzantine_compatible: bool = False,
        requires_byzantine: bool = False,
    ):
        self.name = name
        self.theorem = theorem
        self.claim = claim
        self.governs = tuple(governs)
        self.fault_compatible = fault_compatible
        self.dynamic_compatible = dynamic_compatible
        self.requires_dynamic = requires_dynamic
        self.byzantine_compatible = byzantine_compatible
        self.requires_byzantine = requires_byzantine

    def applies_to(
        self,
        algorithm: str,
        has_faults: bool = False,
        has_topology_schedule: bool = False,
        has_byzantine: bool = False,
    ) -> bool:
        """Does this certificate's claim cover the given execution?"""
        if algorithm not in self.governs:
            return False
        if self.requires_dynamic and not has_topology_schedule:
            return False
        if has_topology_schedule and not self.dynamic_compatible:
            return False
        if self.requires_byzantine and not has_byzantine:
            return False
        if has_byzantine and not self.byzantine_compatible:
            return False
        return self.fault_compatible or not has_faults

    def bound(self, params: SyncParams, diameter: int) -> float:
        """The closed-form bound for a parameter set and diameter."""
        raise NotImplementedError

    def check_summary(
        self, summary: ExecutionSummary, params: SyncParams, diameter: int
    ) -> CertificateVerdict:
        """Evaluate against a sweep summary (the fuzzing path)."""
        raise NotImplementedError

    def check_trace(
        self, trace: ExecutionTrace, params: SyncParams, diameter: int
    ) -> CertificateVerdict:
        """Evaluate against a full trace (exact post-hoc path)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Certificate {self.name} ({self.theorem})>"


class SkewCertificate(Certificate):
    """An upper bound on the execution's exact global or local skew."""

    def __init__(
        self,
        name,
        theorem,
        claim,
        metric: str,
        governs: Tuple[str, ...] = algorithms.names("certifiable"),
        byzantine_compatible: bool = False,
        requires_byzantine: bool = False,
    ):
        super().__init__(
            name,
            theorem,
            claim,
            governs=governs,
            fault_compatible=False,
            byzantine_compatible=byzantine_compatible,
            requires_byzantine=requires_byzantine,
        )
        if metric not in ("global", "local"):
            raise ConfigurationError(f"unknown skew metric {metric!r}")
        self.metric = metric

    def bound(self, params: SyncParams, diameter: int) -> float:
        if self.metric == "global":
            return global_skew_bound(params, diameter)
        return local_skew_bound(params, diameter)

    def _verdict(
        self, measured: float, at: float, params: SyncParams, diameter: int
    ) -> CertificateVerdict:
        bound = self.bound(params, diameter)
        margin = bound - measured
        satisfied = measured <= bound + TOLERANCE
        detail = (
            f"{self.metric} skew {measured!r} vs bound {bound!r} "
            f"({self.theorem}, D={diameter})"
        )
        return CertificateVerdict(
            certificate=self.name,
            satisfied=satisfied,
            measured=measured,
            bound=bound,
            margin=margin,
            violation_time=None if satisfied else at,
            detail=detail,
        )

    def check_summary(self, summary, params, diameter) -> CertificateVerdict:
        if self.metric == "global":
            return self._verdict(
                summary.global_skew, summary.global_skew_time, params, diameter
            )
        return self._verdict(
            summary.local_skew, summary.local_skew_time, params, diameter
        )

    def check_trace(self, trace, params, diameter) -> CertificateVerdict:
        extremum = trace.global_skew() if self.metric == "global" else trace.local_skew()
        return self._verdict(extremum.value, extremum.time, params, diameter)


class ByzantineSkewCertificate(SkewCertificate):
    """The fault-tolerant GCS claim: bounded skew *despite* Byzantine nodes.

    Bund–Lenzen–Rosenbaum: with fewer than a third of each node's
    neighbors Byzantine (the fuzzer's Byzantine scenarios guarantee the
    fraction; see :mod:`repro.cert.fuzzer`), the estimate filter keeps
    the corrupted values out of the rate rule and the global skew stays
    within the faultless bound plus one skew quantum of slack.  The
    certificate *requires* a Byzantine schedule — on faultless runs the
    plain Theorem 5.5 certificate already covers a strictly tighter
    claim — and governs the unfiltered baselines too, which is how the
    harness demonstrates the attack: ``aopt`` (and the planted
    ``ftgcs-trusting``) violate it while ``ftgcs`` holds.
    """

    def __init__(self, name, theorem, claim):
        super().__init__(
            name,
            theorem,
            claim,
            metric="global",
            # ftgcs is built to satisfy it, ftgcs-trusting is planted to
            # fail it, and the unfiltered aopt/aopt-ft demonstrate the attack.
            governs=algorithms.names("byzantine"),
            byzantine_compatible=True,
            requires_byzantine=True,
        )

    def bound(self, params: SyncParams, diameter: int) -> float:
        return global_skew_bound(params, diameter) + params.kappa


def _earliest_violation_time(violations: List[str]) -> Optional[float]:
    """Parse the earliest ``/t=<time>:`` stamp out of monitor violation strings."""
    times = []
    for violation in violations:
        match = _VIOLATION_TIME.search(violation)
        if match:
            times.append(float(match.group(1)))
    return min(times) if times else None


class MonitorCertificate(Certificate):
    """A condition enforced by an online monitor (count 0 = satisfied).

    The summary path counts the named monitor's recorded violations; the
    trace path recomputes the exact worst excess post hoc, so unit tests
    get a numeric margin (positive excess = violation magnitude).
    """

    def __init__(
        self,
        name,
        theorem,
        claim,
        monitor: str,
        trace_excess,
        governs: Tuple[str, ...] = algorithms.names("certifiable"),
        fault_compatible: bool = True,
        dynamic_compatible: bool = False,
        requires_dynamic: bool = False,
        byzantine_compatible: bool = True,
    ):
        super().__init__(
            name,
            theorem,
            claim,
            governs=governs,
            fault_compatible=fault_compatible,
            dynamic_compatible=dynamic_compatible,
            requires_dynamic=requires_dynamic,
            byzantine_compatible=byzantine_compatible,
        )
        self.monitor = monitor
        self._trace_excess = trace_excess

    def bound(self, params: SyncParams, diameter: int) -> float:
        """Conditions are zero-excess claims; the bound is the tolerance."""
        return TOLERANCE

    def check_summary(self, summary, params, diameter) -> CertificateVerdict:
        prefix = f"{self.monitor}@"
        hits = [v for v in summary.monitor_violations if v.startswith(prefix)]
        satisfied = not hits
        detail = (
            f"{len(hits)} {self.monitor} monitor violation(s)"
            + (f"; first: {hits[0]}" if hits else "")
        )
        return CertificateVerdict(
            certificate=self.name,
            satisfied=satisfied,
            measured=float(len(hits)),
            bound=0.0,
            margin=None,
            violation_time=_earliest_violation_time(hits),
            detail=detail,
        )

    def check_trace(self, trace, params, diameter) -> CertificateVerdict:
        excess = self._trace_excess(trace, params)
        satisfied = excess <= TOLERANCE
        return CertificateVerdict(
            certificate=self.name,
            satisfied=satisfied,
            measured=excess,
            bound=TOLERANCE,
            margin=-excess,
            violation_time=None,
            detail=(
                f"worst {self.monitor} excess {excess!r} "
                f"(non-positive = condition held)"
            ),
        )


def _envelope_excess(trace: ExecutionTrace, params: SyncParams) -> float:
    from repro.analysis.metrics import check_envelope

    return check_envelope(trace, params.epsilon)


def _rate_excess(trace: ExecutionTrace, params: SyncParams) -> float:
    from repro.analysis.metrics import check_rate_bounds

    return check_rate_bounds(trace, params.alpha, params.beta)


def _stabilization_trace_excess(trace: ExecutionTrace, params: SyncParams) -> float:
    # The settle deadline t_s depends on the topology schedule, which a
    # bare trace does not carry — only the spec-attached online monitor
    # knows it.  The summary path (which replays that monitor's recorded
    # violations) is therefore authoritative for this certificate.
    raise ConfigurationError(
        "kllo-stabilization has no trace evaluation path; the settle "
        "deadline lives in the spec's topology schedule, so use "
        "check_summary on a monitored run"
    )


def _monotonicity_excess(trace: ExecutionTrace, params: SyncParams) -> float:
    """Largest backward step of any logical clock (exact at breakpoints)."""
    worst = float("-inf")
    for record in trace.logical.values():
        previous = None
        for t in record.breakpoints_in(0.0, trace.horizon):
            value = record.value(t)
            if previous is not None:
                worst = max(worst, previous - value)
            previous = value
    return worst if worst != float("-inf") else 0.0


class ConstructionCertificate(Certificate):
    """A Section 7 lower-bound construction that must achieve its target."""

    kind = "construction"

    def __init__(self, name, theorem, claim, run_fn):
        super().__init__(name, theorem, claim, fault_compatible=False)
        self._run = run_fn

    def bound(self, params: SyncParams, diameter: int) -> float:
        raise ConfigurationError(
            f"{self.name} is a construction certificate; it computes its own "
            "target when run"
        )

    def check_summary(self, summary, params, diameter) -> CertificateVerdict:
        raise ConfigurationError(
            f"{self.name} is a construction certificate; use run(params)"
        )

    check_trace = check_summary

    def run(self, params: SyncParams) -> CertificateVerdict:
        """Replay the construction and judge achieved vs target skew."""
        measured, target, detail = self._run(params)
        margin = measured - target
        return CertificateVerdict(
            certificate=self.name,
            satisfied=margin >= 0.0,
            measured=measured,
            bound=target,
            margin=margin,
            violation_time=None,
            detail=detail,
        )


def _run_theorem_72(params: SyncParams):
    from repro.adversary.global_bound import run_global_lower_bound
    from repro.core.node import AoptAlgorithm
    from repro.topology.generators import line

    result = run_global_lower_bound(
        line(5), AoptAlgorithm(params), params.epsilon, params.delay_bound,
        epsilon_hat=params.epsilon_hat,
    )
    # The historical CLI gate: the construction must achieve its own
    # prediction up to 0.1% relative slack.
    target = result.predicted * 0.999
    detail = (
        f"forced skew {result.forced_skew!r} vs construction target "
        f"{result.predicted!r} (paper sup {result.theoretical!r}, "
        f"rho={result.rho!r})"
    )
    return result.forced_skew, target, detail


def _run_theorem_77(params: SyncParams):
    from repro.adversary.local_bound import run_skew_amplification
    from repro.core.node import AoptAlgorithm

    result = run_skew_amplification(
        lambda: AoptAlgorithm(params),
        n=9,
        epsilon=params.epsilon,
        delay_bound=params.delay_bound,
        base=4,
    )
    last = result.rounds[-1]
    target = (1 - params.epsilon) * params.delay_bound - 1e-6
    detail = (
        f"forced neighbor skew {last.skew_after_shift!r} vs target "
        f"{(1 - params.epsilon) * params.delay_bound!r} "
        f"after {len(result.rounds)} amplification rounds"
    )
    return last.skew_after_shift, target, detail


def _build_registry() -> Dict[str, Certificate]:
    certificates = [
        SkewCertificate(
            "thm-5.5-global-skew",
            "Theorem 5.5",
            "global skew <= G = (1+eps)*D*T + 2*eps/(1+eps)*H0",
            metric="global",
        ),
        SkewCertificate(
            "thm-5.10-local-skew",
            "Theorem 5.10",
            "local skew <= kappa*(ceil(log_sigma(2G/kappa)) + 1/2)",
            metric="local",
        ),
        MonitorCertificate(
            "cond1-envelope",
            "Corollary 5.3 / Condition (1)",
            "(1-eps)*(t - t_v) <= L_v(t) <= (1+eps)*t",
            monitor="envelope",
            trace_excess=_envelope_excess,
            dynamic_compatible=True,
        ),
        MonitorCertificate(
            "cond2-rate-bounds",
            "Corollary 5.3 / Condition (2)",
            "logical rate in [alpha, beta] = [1-eps, (1+eps)(1+mu)]",
            monitor="rate-bounds",
            trace_excess=_rate_excess,
            dynamic_compatible=True,
        ),
        MonitorCertificate(
            "monotonicity",
            "Condition (2) corollary",
            "logical clocks never run backwards",
            monitor="monotonicity",
            trace_excess=_monotonicity_excess,
            dynamic_compatible=True,
        ),
        MonitorCertificate(
            "kllo-stabilization",
            "KLLO stabilization (dynamic-networks extension)",
            "after the last topology change, clock spread re-converges to "
            "<= G within the settle bound",
            monitor="stabilization",
            trace_excess=_stabilization_trace_excess,
            governs=("kllo-dynamic", "kllo-frozen"),
            # The settle bound accounts for topology changes only — a
            # crash recovering after t_s could fail the claim spuriously,
            # so injected faults put a scenario outside it.  The same
            # goes for a Byzantine node corrupting messages past t_s.
            fault_compatible=False,
            dynamic_compatible=True,
            requires_dynamic=True,
            byzantine_compatible=False,
        ),
        ByzantineSkewCertificate(
            "ftgcs-byzantine-skew",
            "Bund-Lenzen-Rosenbaum fault-tolerant GCS",
            "with < 1/3 Byzantine neighbors per node, global skew <= G + kappa",
        ),
        SkewCertificate(
            "gcs-pcls-local-skew",
            "Lenzen 2025 practically-constant local skew",
            "the PCLS rate discipline keeps local skew within the "
            "Theorem 5.10 bound (and practically far below it)",
            metric="local",
            governs=("gcs-pcls",),
        ),
        ConstructionCertificate(
            "thm-7.2-global-lower",
            "Theorem 7.2",
            "the E3 adversary forces global skew >= (1+rho)*D*T",
            run_fn=_run_theorem_72,
        ),
        ConstructionCertificate(
            "thm-7.7-local-lower",
            "Theorem 7.7",
            "skew amplification forces neighbor skew >= (1-eps)*T",
            run_fn=_run_theorem_77,
        ),
    ]
    return {certificate.name: certificate for certificate in certificates}


#: The certificate catalog, in presentation order.
CERTIFICATES: Dict[str, Certificate] = _build_registry()


def certificate_bound(name: str, params: SyncParams, diameter: int) -> float:
    """Look up a certificate and evaluate its closed-form bound."""
    return resolve_certificates([name])[0].bound(params, diameter)


def execution_certificates() -> List[Certificate]:
    """The certificates checked on every fuzzed execution."""
    return [c for c in CERTIFICATES.values() if c.kind == "execution"]


def construction_certificates() -> List[Certificate]:
    """The self-contained lower-bound construction certificates."""
    return [c for c in CERTIFICATES.values() if c.kind == "construction"]


def resolve_certificates(names) -> List[Certificate]:
    """Resolve certificate names (or ``None``/``"all"`` for everything).

    Raises :class:`~repro.errors.ConfigurationError` on an unknown name,
    listing the catalog — the CLI maps this to exit code 2.
    """
    if names is None or names == "all" or list(names) == ["all"]:
        return list(CERTIFICATES.values())
    resolved = []
    for name in names:
        if name not in CERTIFICATES:
            raise ConfigurationError(
                f"unknown certificate {name!r}; known: {', '.join(CERTIFICATES)}"
            )
        resolved.append(CERTIFICATES[name])
    return resolved
