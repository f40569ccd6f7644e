"""Message delay models.

In the paper's model a message sent over an edge may take any time in
``[0, T]``, where ``T`` is the delay uncertainty, and the adversary picks
each delay (Section 3).  A delay model maps a send event — directed edge,
send time, per-edge sequence number — to a delay.

Models here cover the executions used in the paper's proofs (constant,
zero, direction-dependent relative to a reference node) as well as the
randomized delays discussed in the related-work section for sensor
networks.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Hashable, Mapping, Optional, Tuple

from repro.errors import ScheduleError
from repro.sim.rates import PiecewiseConstantRate

__all__ = [
    "DROP",
    "DelayModel",
    "ConstantDelay",
    "ZeroDelay",
    "UniformDelay",
    "FunctionDelay",
    "EdgeScheduleDelay",
    "DistanceDirectedDelay",
    "LossyDelay",
]

#: Sentinel return value of :meth:`DelayModel.delay` meaning "drop this
#: message".  The paper's model assumes reliable links; lossy channels are
#: a robustness *extension* (see :class:`LossyDelay` and DESIGN.md §6).
DROP = float("inf")

NodeId = Hashable
DirectedEdge = Tuple[NodeId, NodeId]


class DelayModel:
    """Base class: assigns a delay in ``[0, max_delay]`` to every message.

    Subclasses implement :meth:`delay`.  ``max_delay`` is the uncertainty
    ``T`` of the model; the engine validates every produced delay against
    it so that a buggy adversary cannot silently leave the model.
    """

    def __init__(self, max_delay: float):
        if max_delay < 0:
            raise ScheduleError(f"max_delay must be non-negative, got {max_delay}")
        self.max_delay = float(max_delay)

    def delay(
        self, sender: NodeId, receiver: NodeId, send_time: float, seq: int
    ) -> float:
        raise NotImplementedError

    def validated_delay(
        self, sender: NodeId, receiver: NodeId, send_time: float, seq: int
    ) -> float:
        value = self.delay(sender, receiver, send_time, seq)
        if value == DROP:
            return DROP
        if not (-1e-12 <= value <= self.max_delay + 1e-12):
            raise ScheduleError(
                f"delay {value} for {sender}->{receiver} at t={send_time} outside "
                f"[0, {self.max_delay}]"
            )
        return min(max(value, 0.0), self.max_delay)


class ConstantDelay(DelayModel):
    """Every message takes exactly ``value`` time (``value ≤ max_delay``)."""

    def __init__(self, value: float, max_delay: Optional[float] = None):
        super().__init__(value if max_delay is None else max_delay)
        if value > self.max_delay:
            raise ScheduleError(f"constant delay {value} exceeds max {self.max_delay}")
        self.value = float(value)

    def delay(self, sender, receiver, send_time, seq) -> float:
        return self.value


class ZeroDelay(DelayModel):
    """Instantaneous delivery; ``max_delay`` may still be positive."""

    def __init__(self, max_delay: float = 0.0):
        super().__init__(max_delay)

    def delay(self, sender, receiver, send_time, seq) -> float:
        return 0.0


class UniformDelay(DelayModel):
    """Delays drawn i.i.d. uniformly from ``[low, high] ⊆ [0, max_delay]``.

    This is the random-delay regime of the sensor-network literature cited
    in Section 2; it is far more benign than the worst case and serves as
    the "typical behaviour" companion to the adversarial schedules.
    """

    def __init__(
        self,
        low: float,
        high: float,
        seed: int = 0,
        max_delay: Optional[float] = None,
    ):
        super().__init__(high if max_delay is None else max_delay)
        if not (0 <= low <= high <= self.max_delay):
            raise ScheduleError(
                f"uniform delay range [{low}, {high}] invalid for max {self.max_delay}"
            )
        self.low = float(low)
        self.high = float(high)
        self._rng = random.Random(seed)

    def delay(self, sender, receiver, send_time, seq) -> float:
        return self._rng.uniform(self.low, self.high)


class FunctionDelay(DelayModel):
    """Delegates to an arbitrary callable ``fn(sender, receiver, t, seq)``."""

    def __init__(
        self,
        fn: Callable[[NodeId, NodeId, float, int], float],
        max_delay: float,
    ):
        super().__init__(max_delay)
        self._fn = fn

    def delay(self, sender, receiver, send_time, seq) -> float:
        return self._fn(sender, receiver, send_time, seq)


class EdgeScheduleDelay(DelayModel):
    """Per-directed-edge delays given as piecewise functions of send time.

    Used by the adversary constructions: each directed edge gets a
    :class:`PiecewiseConstantRate` interpreted as "delay as a function of
    send time" (the "rate" value is the delay).  Unlisted edges use
    ``default``.
    """

    def __init__(
        self,
        schedules: Mapping[DirectedEdge, PiecewiseConstantRate],
        max_delay: float,
        default: float = 0.0,
    ):
        super().__init__(max_delay)
        self._schedules: Dict[DirectedEdge, PiecewiseConstantRate] = dict(schedules)
        self.default = float(default)

    def delay(self, sender, receiver, send_time, seq) -> float:
        schedule = self._schedules.get((sender, receiver))
        if schedule is None:
            return self.default
        return schedule.rate_at(send_time)


class DistanceDirectedDelay(DelayModel):
    """Delays determined by direction relative to a reference node.

    The executions of Theorem 7.2 set the delay of a message from ``v`` to
    ``w`` to ``toward`` if ``d(v0, w) = d(v0, v) − 1`` (the message moves
    toward the reference node ``v0``) and ``away`` otherwise.

    Parameters
    ----------
    distances:
        Mapping node → hop distance from the reference node ``v0``.
    toward:
        Delay for messages that decrease the distance to ``v0``.
    away:
        Delay for all other messages.
    """

    def __init__(
        self,
        distances: Mapping[NodeId, int],
        toward: float,
        away: float,
        max_delay: Optional[float] = None,
    ):
        super().__init__(max(toward, away) if max_delay is None else max_delay)
        self._distances = dict(distances)
        self.toward = float(toward)
        self.away = float(away)

    def delay(self, sender, receiver, send_time, seq) -> float:
        if self._distances[receiver] == self._distances[sender] - 1:
            return self.toward
        return self.away


class LossyDelay(DelayModel):
    """Robustness extension: drop each message with probability ``loss``.

    The paper's model assumes reliable communication (Section 3); this
    wrapper enables the graceful-degradation study in
    ``benchmarks/bench_message_loss.py``: A^opt tolerates loss because
    estimates advance locally between updates and every piece of state is
    refreshed by later messages — only the *effective* information delay
    grows, inflating skews roughly by the expected number of retries.

    A thin adapter over the fault subsystem's per-message hashing
    (:func:`repro.faults.hashing.stable_uniform`): each drop decision is a
    pure function of ``(seed, edge, send_time, seq)``, so it is
    independent of the order in which the engine asks — replays are
    byte-identical across processes, worker counts, and cache states even
    when unrelated model changes reorder sends.  For combined drop /
    duplicate / delay-spike faults use a
    :class:`~repro.faults.schedule.FaultSchedule` instead; this class
    remains for delay-model composition (wrapping an arbitrary ``inner``).
    """

    def __init__(self, inner: DelayModel, loss: float, seed: int = 0):
        super().__init__(inner.max_delay)
        if not (0 <= loss < 1):
            raise ScheduleError(f"loss probability must be in [0, 1), got {loss}")
        self.inner = inner
        self.loss = float(loss)
        self.seed = int(seed)

    def delay(self, sender, receiver, send_time, seq) -> float:
        from repro.faults.hashing import stable_uniform

        if stable_uniform(self.seed, "loss", sender, receiver, send_time, seq) < self.loss:
            return DROP
        return self.inner.validated_delay(sender, receiver, send_time, seq)
