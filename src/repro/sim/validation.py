"""Post-hoc execution validation.

The lower-bound adversaries hand-craft drift and delay schedules; a bug
there would produce impressive-looking but *illegal* executions (outside
the model of Section 3) and invalidate every conclusion drawn from them.
:func:`validate_execution` independently re-checks a finished trace:

* every hardware rate stayed within ``[1 − ε, 1 + ε]``;
* every recorded message delay stayed within ``[0, T]``;
* every node was eventually initialized, and never before time 0;
* logical clocks never ran backwards.

Each finding is a structured :class:`ValidationProblem` carrying the
**first violating instant** and the **margin** by which the bound was
missed, so downstream failure messages (certificates, adversary gates)
can say *where* and *by how much* an execution left the model — not just
that it did.  ``ValidationReport.problems`` keeps the human-readable
strings for existing callers.

The adversary test-suites run every construction through this gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.sim.monitors import TOLERANCE
from repro.sim.trace import ExecutionTrace

__all__ = ["ValidationProblem", "ValidationReport", "validate_execution"]


@dataclass(frozen=True)
class ValidationProblem:
    """One model violation: which check, where, when, and by how much.

    ``time`` is the first instant at which the violation holds (the send
    time for a message-delay violation, the start of the offending rate
    segment, the first decreasing breakpoint).  ``margin`` is the
    distance past the violated bound — always positive, in the units of
    the violated quantity (rate, seconds, clock value).
    """

    check: str
    node: object
    time: Optional[float]
    margin: float
    detail: str

    def format_text(self) -> str:
        at = "" if self.time is None else f" at t={self.time}"
        return f"[{self.check}] node {self.node!r}{at}: {self.detail} (margin {self.margin:.3g})"


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_execution`."""

    valid: bool = True
    problems: List[str] = field(default_factory=list)
    violations: List[ValidationProblem] = field(default_factory=list)

    def _fail(self, problem: ValidationProblem) -> None:
        self.valid = False
        self.violations.append(problem)
        self.problems.append(problem.detail)

    @property
    def first_violation(self) -> Optional[ValidationProblem]:
        """The earliest-in-time violation (timeless problems sort last)."""
        if not self.violations:
            return None
        return min(
            self.violations,
            key=lambda v: float("inf") if v.time is None else v.time,
        )

    @property
    def worst_margin(self) -> float:
        """The largest bound excess across all violations (0.0 if valid)."""
        return max((v.margin for v in self.violations), default=0.0)


def validate_execution(
    trace: ExecutionTrace, epsilon: float, delay_bound: float
) -> ValidationReport:
    """Re-check that an execution respected the model bounds.

    Delay checking requires the execution to have been recorded with
    ``record_messages=True``; otherwise only rates and clocks are checked.
    """
    report = ValidationReport()

    low_bound, high_bound = 1 - epsilon, 1 + epsilon
    for node, clock in trace.hardware.items():
        for start, rate in clock.rate_function.segments:
            if rate < low_bound - TOLERANCE:
                report._fail(ValidationProblem(
                    check="hardware-rate",
                    node=node,
                    time=start,
                    margin=low_bound - rate,
                    detail=(
                        f"node {node!r}: hardware rate {rate} below "
                        f"1 - eps = {low_bound} from t={start}"
                    ),
                ))
                break
            if rate > high_bound + TOLERANCE:
                report._fail(ValidationProblem(
                    check="hardware-rate",
                    node=node,
                    time=start,
                    margin=rate - high_bound,
                    detail=(
                        f"node {node!r}: hardware rate {rate} above "
                        f"1 + eps = {high_bound} from t={start}"
                    ),
                ))
                break

    for node, start in trace.start_times.items():
        if start < -TOLERANCE:
            report._fail(ValidationProblem(
                check="start-time",
                node=node,
                time=start,
                margin=-start,
                detail=f"node {node!r} initialized before time 0 ({start})",
            ))
        if start > trace.horizon:
            report._fail(ValidationProblem(
                check="start-time",
                node=node,
                time=start,
                margin=start - trace.horizon,
                detail=f"node {node!r} initialized after the horizon ({start})",
            ))

    for record in trace.message_log:
        if record.delay < -TOLERANCE or record.delay > delay_bound + TOLERANCE:
            margin = (
                -record.delay
                if record.delay < 0
                else record.delay - delay_bound
            )
            report._fail(ValidationProblem(
                check="message-delay",
                node=record.sender,
                time=record.send_time,
                margin=margin,
                detail=(
                    f"message {record.sender!r}->{record.receiver!r} at "
                    f"t={record.send_time}: delay {record.delay} outside "
                    f"[0, {delay_bound}]"
                ),
            ))

    for node, record in trace.logical.items():
        previous = 0.0
        for t in record.breakpoints_in(0.0, trace.horizon):
            value = record.value(t)
            if value < previous - TOLERANCE:
                report._fail(ValidationProblem(
                    check="monotonicity",
                    node=node,
                    time=t,
                    margin=previous - value,
                    detail=(
                        f"node {node!r}: logical clock decreased to {value} at t={t}"
                    ),
                ))
                break
            previous = value

    return report
