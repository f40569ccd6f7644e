"""Piecewise-constant rate functions.

Every clock in the model (Section 3 of the paper) is an integral of a rate
function: the hardware clock of node ``v`` is ``H_v(t) = ∫ h_v(τ) dτ`` with
``h_v(τ) ∈ [1 − ε, 1 + ε]``.  The adversary in the paper may vary rates
arbitrarily within those bounds; we restrict adversarial schedules to
*piecewise-constant* rates, which is without loss of generality for all of
the paper's constructions (the proofs of Theorems 7.2, 7.7 and 7.12 only
ever use piecewise-constant rates) and makes every clock piecewise-linear,
so skews can be computed exactly rather than sampled.

The central class is :class:`PiecewiseConstantRate`, which supports exact
integration (clock reading) and exact inversion (when will this clock reach
a given value), both of which the simulation engine relies on.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.errors import ScheduleError

__all__ = ["PiecewiseConstantRate", "constant_rate", "alternating_rate"]


class PiecewiseConstantRate:
    """A rate function that is constant on half-open intervals.

    The function is defined on ``[times[0], +inf)``; ``rates[i]`` applies on
    ``[times[i], times[i+1])`` and ``rates[-1]`` extends to infinity.

    Parameters
    ----------
    times:
        Strictly increasing segment start times.  ``times[0]`` is the start
        of the domain.
    rates:
        One rate per segment; must have the same length as ``times``.

    Raises
    ------
    ScheduleError
        If the segment list is empty, unsorted, or lengths mismatch.
    """

    __slots__ = ("_times", "_rates", "_cumulative")

    def __init__(self, times: Sequence[float], rates: Sequence[float]):
        if len(times) == 0:
            raise ScheduleError("rate function needs at least one segment")
        if len(times) != len(rates):
            raise ScheduleError(
                f"times ({len(times)}) and rates ({len(rates)}) length mismatch"
            )
        for earlier, later in zip(times, times[1:]):
            if not later > earlier:
                raise ScheduleError(f"segment times must increase: {earlier} !< {later}")
        for rate in rates:
            if not math.isfinite(rate):
                raise ScheduleError(f"rate must be finite, got {rate}")
        self._times: Tuple[float, ...] = tuple(float(t) for t in times)
        self._rates: Tuple[float, ...] = tuple(float(r) for r in rates)
        # _cumulative[i] = integral from times[0] to times[i].
        cumulative: List[float] = [0.0]
        for i in range(1, len(self._times)):
            span = self._times[i] - self._times[i - 1]
            cumulative.append(cumulative[-1] + self._rates[i - 1] * span)
        self._cumulative: Tuple[float, ...] = tuple(cumulative)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, rate: float, start: float = 0.0) -> "PiecewiseConstantRate":
        """A single-segment rate function equal to ``rate`` everywhere."""
        return cls([start], [rate])

    @classmethod
    def from_segments(
        cls, segments: Iterable[Tuple[float, float]]
    ) -> "PiecewiseConstantRate":
        """Build from ``(start_time, rate)`` pairs (must be time-sorted)."""
        pairs = list(segments)
        return cls([t for t, _ in pairs], [r for _, r in pairs])

    # -- basic queries -----------------------------------------------------

    @property
    def domain_start(self) -> float:
        return self._times[0]

    @property
    def segments(self) -> List[Tuple[float, float]]:
        """The ``(start_time, rate)`` pairs defining this function."""
        return list(zip(self._times, self._rates))

    def min_rate(self) -> float:
        return min(self._rates)

    def max_rate(self) -> float:
        return max(self._rates)

    def _segment_index(self, t: float) -> int:
        """Index of the segment containing time ``t``."""
        if t < self._times[0]:
            raise ScheduleError(
                f"time {t} precedes the rate function's domain start {self._times[0]}"
            )
        return bisect_right(self._times, t) - 1

    def rate_at(self, t: float) -> float:
        """The instantaneous rate at time ``t`` (right-continuous)."""
        # Queries at or beyond the last breakpoint (the common case during
        # a simulation run) skip the bisect; same segment either way.
        if t >= self._times[-1]:
            return self._rates[-1]
        return self._rates[self._segment_index(t)]

    # -- integration and inversion ----------------------------------------

    def integral_from_start(self, t: float) -> float:
        """``∫`` of the rate from ``domain_start`` to ``t`` (exact)."""
        times = self._times
        if t >= times[-1]:
            i = len(times) - 1
        else:
            i = self._segment_index(t)
        return self._cumulative[i] + self._rates[i] * (t - times[i])

    def integral(self, a: float, b: float) -> float:
        """``∫_a^b`` of the rate (``a ≤ b`` required)."""
        if b < a:
            raise ScheduleError(f"integral bounds reversed: [{a}, {b}]")
        return self.integral_from_start(b) - self.integral_from_start(a)

    def advance(self, t0: float, amount: float) -> float:
        """The time ``t ≥ t0`` at which ``∫_{t0}^{t} rate = amount``.

        Requires a non-negative ``amount`` and strictly positive rates on
        the traversed segments (hardware clocks always satisfy this because
        ``ε < 1``).  Exact inverse of :meth:`integral`.
        """
        if amount < 0:
            raise ScheduleError(f"cannot advance by a negative amount {amount}")
        if amount == 0:
            return t0
        return self.advance_from(
            t0, self._segment_index(t0), self.integral_from_start(t0), amount
        )

    def advance_from(self, t0: float, i: int, base: float, amount: float) -> float:
        """:meth:`advance` given ``t0``'s segment index ``i`` and ``base =
        integral_from_start(t0)``, for a positive ``amount``.

        A caller that inverts from one fixed ``t0`` many times (a hardware
        clock from its start) derives ``i`` and ``base`` once.
        """
        target = base + amount
        # Find the segment in which the cumulative integral reaches target:
        # the first j ≥ i with _cumulative[j+1] ≥ target, located by bisect
        # (the cumulative integral is non-decreasing).
        k = bisect_left(self._cumulative, target, i + 1)
        if k < len(self._times):
            j = k - 1
            rate = self._rates[j]
            if rate <= 0:
                raise ScheduleError(
                    f"cannot invert across non-positive rate {rate} at segment {j}"
                )
            # max() guards against the re-derived time rounding a hair
            # below t0 when amount is at the float noise floor.
            return max(t0, self._times[j] + (target - self._cumulative[j]) / rate)
        # Beyond the last breakpoint: the final rate extends to infinity.
        last = len(self._times) - 1
        rate = self._rates[last]
        if rate <= 0:
            raise ScheduleError(
                f"cannot invert: final rate {rate} is non-positive and target not reached"
            )
        return max(t0, self._times[last] + (target - self._cumulative[last]) / rate)

    # -- structure ---------------------------------------------------------

    def breakpoints_in(self, a: float, b: float) -> Iterator[float]:
        """Yield segment boundaries strictly inside ``(a, b)``."""
        i = bisect_right(self._times, a)
        while i < len(self._times) and self._times[i] < b:
            yield self._times[i]
            i += 1

    def check_bounds(self, low: float, high: float) -> None:
        """Raise :class:`ScheduleError` unless all rates lie in [low, high]."""
        for t, r in zip(self._times, self._rates):
            if not (low <= r <= high):
                raise ScheduleError(
                    f"rate {r} at time {t} outside allowed range [{low}, {high}]"
                )

    def scaled(self, factor: float) -> "PiecewiseConstantRate":
        """A new rate function with every rate multiplied by ``factor``."""
        return PiecewiseConstantRate(self._times, [r * factor for r in self._rates])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = ", ".join(f"({t:g}, {r:g})" for t, r in self.segments[:4])
        suffix = ", ..." if len(self._times) > 4 else ""
        return f"PiecewiseConstantRate([{preview}{suffix}])"


def constant_rate(rate: float) -> PiecewiseConstantRate:
    """Shorthand for a constant rate function starting at time 0."""
    return PiecewiseConstantRate.constant(rate)


def alternating_rate(
    low: float, high: float, period: float, horizon: float, start: float = 0.0
) -> PiecewiseConstantRate:
    """A rate that alternates between ``low`` and ``high`` every ``period``.

    A standard adversarial drift pattern: hardware clocks that repeatedly
    speed up and slow down build up skew against neighbors that do the
    opposite.  The schedule covers ``[start, horizon]`` and then stays at
    ``low``.
    """
    if period <= 0:
        raise ScheduleError(f"period must be positive, got {period}")
    times: List[float] = []
    rates: List[float] = []
    t = start
    use_high = True
    while t < horizon:
        times.append(t)
        rates.append(high if use_high else low)
        use_high = not use_high
        t += period
    times.append(max(t, horizon))
    rates.append(low)
    return PiecewiseConstantRate(times, rates)
