"""Hardware clocks (Section 3 of the paper).

A hardware clock starts at value 0 when its node is initialized at real
time ``t_v`` and thereafter reads ``H_v(t) = ∫_{t_v}^{t} h_v(τ) dτ``, where
the rate ``h_v`` stays within ``[1 − ε, 1 + ε]``.  The rate schedule is part
of the execution (chosen by the adversary), so it is known in full when the
clock is created; this lets the clock answer the *inverse* query "at which
real time will my value reach ``H``?" exactly, which the simulation engine
uses to fire hardware-time alarms (Algorithms 1 and 4 of the paper).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from repro.errors import TraceError
from repro.sim.rates import PiecewiseConstantRate

__all__ = ["HardwareClock"]


class HardwareClock:
    """A drifting hardware clock backed by a piecewise-constant rate.

    Parameters
    ----------
    rate:
        The rate function ``h_v``.  Its domain must cover ``start_time``.
    start_time:
        Real time ``t_v`` at which the node is initialized; the clock value
        is defined as 0 before then and integrates the rate afterwards.
    """

    __slots__ = (
        "_rate", "_start_time", "_start_segment", "_start_integral",
        "_memo_t", "_memo_v",
    )

    def __init__(self, rate: PiecewiseConstantRate, start_time: float = 0.0):
        if start_time < rate.domain_start:
            raise TraceError(
                f"clock start {start_time} precedes rate domain {rate.domain_start}"
            )
        self._rate = rate
        self._start_time = float(start_time)
        # ∫ from the rate's domain start to the clock start, fixed at
        # construction: value(t) subtracts it from ∫-from-domain-start(t),
        # the identical float expression rate.integral(start, t) expands
        # to, without re-deriving the start integral on every query.
        # time_at_value inverts from the same integral and its segment.
        self._start_integral = rate.integral_from_start(self._start_time)
        self._start_segment = rate._segment_index(self._start_time)
        # Single-entry memo: engine callbacks evaluate the same clock at
        # the same event time several times per event.  The clock is
        # immutable, so a hit returns the identical float.
        self._memo_t: float = self._start_time
        self._memo_v: float = 0.0

    @property
    def start_time(self) -> float:
        return self._start_time

    @property
    def rate_function(self) -> PiecewiseConstantRate:
        return self._rate

    def rate_at(self, t: float) -> float:
        """Instantaneous hardware rate ``h_v(t)`` (0 before the start)."""
        if t < self._start_time:
            return 0.0
        return self._rate.rate_at(t)

    def value(self, t: float) -> float:
        """Hardware clock reading ``H_v(t)``; 0 for ``t ≤ t_v``."""
        if t <= self._start_time:
            return 0.0
        if t == self._memo_t:
            return self._memo_v
        v = self._rate.integral_from_start(t) - self._start_integral
        self._memo_t = t
        self._memo_v = v
        return v

    # ROADMAP item 8 deletes this with benchmarks/ledger/tracing.py,
    # which patches it by name.
    def values_at(self, ts: Sequence[float]) -> List[float]:
        """:meth:`value` at each of ``ts``."""
        return [self.value(t) for t in ts]

    def time_at_value(self, value: float) -> float:
        """Real time at which the clock first reads ``value`` (exact).

        The clock is strictly increasing after the start time because the
        minimum hardware rate is positive, so the answer is unique.
        """
        if value < 0:
            raise TraceError(f"hardware clock never reads negative value {value}")
        if value == 0:
            return self._start_time
        return self._rate.advance_from(
            self._start_time, self._start_segment, self._start_integral, value
        )

    def elapsed(self, t0: float, t1: float) -> float:
        """Hardware time elapsed between real times ``t0 ≤ t1``."""
        return self.value(t1) - self.value(t0)

    def breakpoints_in(self, a: float, b: float) -> Iterator[float]:
        """Real times in ``(a, b)`` at which the hardware rate changes."""
        start = max(a, self._start_time)
        if self._start_time > a and self._start_time < b:
            yield self._start_time
        yield from self._rate.breakpoints_in(start, b)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HardwareClock(start={self._start_time:g}, rate={self._rate!r})"
