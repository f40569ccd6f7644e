"""Differential certification across A^opt variants.

The A^opt variants prove the *same* theorems wherever their model
assumptions overlap: on faultless executions, ``aopt``, ``aopt-jump``
(discrete jumps instead of rate boosts — the rate *upper* bound is
waived by its monitors, everything else stands), and ``aopt-ft`` (the
recovery-aware variant, which degenerates to A^opt when nothing fails)
must all satisfy or all violate each certificate on the same scenario.

:func:`differential_certify` runs the same faultless scenario stream
under every variant and flags any (scenario, certificate) cell where the
variants disagree on satisfaction.  Disagreement is itself a finding:
either a variant breaks a bound the baseline keeps (a bug in the
variant) or the baseline breaks one the variant keeps (a bug in the
baseline or the harness).  Margins legitimately differ — only the
boolean verdicts must agree.

Byzantine mode (``byzantine=True``) is the one place the harness
*expects* asymmetry.  The scenario stream switches to the fuzzer's
Byzantine corruption campaigns, and the certificates split in two:
symmetric ones (the monitors, which hold regardless of what messages
claim) are still required to agree across variants, while the
``requires_byzantine`` skew certificate is scored as a *survival
matrix* — per variant, how many scenarios it satisfied.  The expected
picture, pinned by the regression tests, is that ``ftgcs`` survives
every < 1/3-Byzantine scenario while the unfiltered ``aopt``/``aopt-ft``
survive none: the differential harness certifying the filter itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import algorithms
from repro.cert.certificates import execution_certificates
from repro.cert.fuzzer import generate_scenarios
from repro.exec.pool import SweepExecutor

__all__ = ["DifferentialReport", "differential_certify"]


@dataclass(frozen=True)
class DifferentialReport:
    """Per-cell agreement matrix outcome."""

    variants: Tuple[str, ...]
    seed: int
    scenarios_run: int
    certificates: Tuple[str, ...]
    disagreements: Tuple[Dict[str, object], ...]
    errors: Tuple[Dict[str, object], ...]
    byzantine: bool = False
    #: Byzantine mode only — ``{certificate: {variant: [satisfied, checks]}}``.
    survival: Dict[str, Dict[str, List[int]]] = field(default_factory=dict)

    @property
    def agree(self) -> bool:
        """No errors and no disagreement on the *symmetric* certificates.

        The Byzantine survival matrix is intentionally excluded: its
        asymmetry is the expected finding, not a harness failure.
        """
        return not self.disagreements and not self.errors

    def survivors(self, certificate: str) -> Tuple[str, ...]:
        """Variants that satisfied ``certificate`` on every checked scenario."""
        cells = self.survival.get(certificate, {})
        return tuple(
            variant
            for variant in self.variants
            if variant in cells
            and cells[variant][1] > 0
            and cells[variant][0] == cells[variant][1]
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "report": "differential-certification",
            "variants": list(self.variants),
            "seed": self.seed,
            "scenarios_run": self.scenarios_run,
            "byzantine": self.byzantine,
            "certificates": list(self.certificates),
            "agree": self.agree,
            "disagreements": [dict(d) for d in self.disagreements],
            "errors": [dict(e) for e in self.errors],
            "survival": {
                name: {variant: list(counts) for variant, counts in cells.items()}
                for name, cells in self.survival.items()
            },
        }

    def format_text(self) -> str:
        lines = [
            f"differential certification: {' vs '.join(self.variants)} "
            f"seed={self.seed} scenarios={self.scenarios_run}"
            + (" byzantine=on" if self.byzantine else ""),
        ]
        if self.agree:
            lines.append(
                f"all {len(self.certificates)} certificates agree on every scenario"
                if not self.byzantine
                else "all symmetric certificates agree on every scenario"
            )
        for error in self.errors:
            lines.append(f"  ERROR [{error['index']}] {error['error']}")
        for cell in self.disagreements:
            verdicts = ", ".join(
                f"{variant}={'ok' if ok else 'VIOLATED'}"
                for variant, ok in sorted(cell["satisfied_by"].items())
            )
            lines.append(
                f"  DISAGREE [{cell['index']}] {cell['certificate']}: {verdicts}"
            )
        for name in sorted(self.survival):
            cells = self.survival[name]
            scores = ", ".join(
                f"{variant}={cells[variant][0]}/{cells[variant][1]}"
                for variant in self.variants
                if variant in cells
            )
            survivors = self.survivors(name) or ("none",)
            lines.append(f"  SURVIVAL {name}: {scores} -> {'/'.join(survivors)}")
        lines.append(
            "RESULT: " + ("VARIANTS AGREE" if self.agree else "DISAGREEMENT FOUND")
        )
        return "\n".join(lines)


def differential_certify(
    budget: int = 20,
    seed: int = 0,
    variants: Optional[Sequence[str]] = None,
    executor: Optional[SweepExecutor] = None,
    byzantine: bool = False,
) -> DifferentialReport:
    """Certify the same scenario stream under every variant.

    Scenarios are drawn faultless (fault handling is exactly where the
    variants' model assumptions stop overlapping) and every execution
    certificate is evaluated per variant; only satisfaction booleans are
    compared.

    Without ``variants``, the registry's ``differential`` entries are
    compared.  With ``byzantine=True`` the stream switches to Byzantine
    corruption scenarios, and the default comparison set to the
    ``byzantine`` entries that are not planted: the filtered algorithm
    against the unfiltered baselines it is supposed to beat.
    ``requires_byzantine`` certificates are scored into the survival
    matrix instead of the agreement check (see module docstring).
    """
    if executor is None:
        executor = SweepExecutor()
    if variants is None:
        if byzantine:
            variants = algorithms.names("byzantine", exclude="planted")
        else:
            variants = algorithms.names("differential")
    variants = tuple(variants)
    base = list(
        generate_scenarios(
            seed, budget, include_faults=False, include_byzantine=byzantine
        )
    )
    per_variant = {
        variant: [s.with_changes(algorithm=variant) for s in base]
        for variant in variants
    }
    # One flat sweep over variants × scenarios: maximal executor parallelism.
    flat = [s for variant in variants for s in per_variant[variant]]
    outcomes = executor.run([s.build_spec() for s in flat])

    certificates = execution_certificates()
    disagreements: List[Dict[str, object]] = []
    errors: List[Dict[str, object]] = []
    survival: Dict[str, Dict[str, List[int]]] = {}
    for index, scenario in enumerate(base):
        cell_verdicts: Dict[str, Dict[str, bool]] = {}
        failed = False
        for v_index, variant in enumerate(variants):
            outcome = outcomes[v_index * len(base) + index]
            if not outcome.ok:
                errors.append(
                    {"index": index, "variant": variant, "error": outcome.error}
                )
                failed = True
                continue
            params = scenario.build_params()
            diameter = scenario.diameter()
            for certificate in certificates:
                if not certificate.applies_to(
                    variant,
                    has_faults=False,
                    has_byzantine=scenario.has_byzantine,
                ):
                    continue
                verdict = certificate.check_summary(outcome.summary, params, diameter)
                if certificate.requires_byzantine:
                    counts = survival.setdefault(certificate.name, {}).setdefault(
                        variant, [0, 0]
                    )
                    counts[0] += 1 if verdict.satisfied else 0
                    counts[1] += 1
                    continue
                cell_verdicts.setdefault(certificate.name, {})[variant] = (
                    verdict.satisfied
                )
        if failed:
            continue
        for name, satisfied_by in cell_verdicts.items():
            if len(satisfied_by) == len(variants) and len(set(satisfied_by.values())) > 1:
                disagreements.append(
                    {
                        "index": index,
                        "certificate": name,
                        "scenario": scenario.as_dict(),
                        "satisfied_by": satisfied_by,
                    }
                )
    return DifferentialReport(
        variants=variants,
        seed=seed,
        scenarios_run=len(base),
        certificates=tuple(c.name for c in certificates),
        disagreements=tuple(disagreements),
        errors=tuple(errors),
        byzantine=byzantine,
        survival=survival,
    )
