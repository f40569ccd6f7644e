"""§8.4 — discrete hardware clocks with tick granularity ``1/f``.

Real hardware clocks tick at a finite frequency ``f``: a node can only
act on (and communicate) clock readings quantized to multiples of
``1/f``.  The paper (citing the PODC'09 version) shows this effectively
replaces ``T`` by ``max(1/f, T)`` in the bounds — negligible whenever
``1/f < T``.

Implementation: the node overrides the three A^opt methods that reach
the network or the alarm clock.  ``_arm_send_alarm`` and ``_boost``
round their alarm targets *up* to the next tick (actions only happen on
ticks), and ``_send`` rounds both transmitted clock values *down* to a
tick (readings are quantized), while the node's internal bookkeeping
stays exact.  A^opt's only other alarm, the initialization send at
hardware time 0, is already on a tick.  ``κ`` must absorb the extra
uncertainty; :func:`discrete_params` sizes it.
"""

from __future__ import annotations

import math
from typing import Hashable, Sequence

from repro.core.interfaces import NodeContext
from repro.core.node import RATE_RESET_ALARM, SEND_ALARM, AoptAlgorithm, AoptNode
from repro.core.params import SyncParams
from repro.errors import ConfigurationError

__all__ = ["DiscreteAoptAlgorithm", "discrete_params"]

NodeId = Hashable


def _check_frequency(frequency: float) -> None:
    if not (math.isfinite(frequency) and frequency > 0):
        raise ConfigurationError(
            f"frequency must be finite and positive, got {frequency}"
        )


def discrete_params(epsilon: float, delay_bound: float, frequency: float, **overrides) -> SyncParams:
    """Parameters with ``κ`` enlarged for tick granularity ``1/f``.

    One tick of quantization on each of the sender's value and the
    receiver's reaction adds up to ``2·(1 + ε)(1 + μ)/f`` of extra
    estimate error — the ``T → max(1/f, T)`` effect of §8.4.

    ``H0`` is rounded *up* to a multiple of the tick: transmitted values
    are floored to ticks, so a misaligned ``H0`` would make the announced
    ``L^max`` marks fall below receivers' local estimates and stall the
    estimate flood entirely.
    """
    _check_frequency(frequency)
    params = SyncParams.recommended(epsilon=epsilon, delay_bound=delay_bound, **overrides)
    tick = 1.0 / frequency
    aligned_h0 = math.ceil(params.h0 / tick - 1e-9) * tick
    params = SyncParams.recommended(
        epsilon=epsilon, delay_bound=delay_bound, h0=aligned_h0,
        **{k: v for k, v in overrides.items() if k != "h0"},
    )
    extra = 2 * (1 + params.epsilon_hat) * (1 + params.mu) / frequency
    return params.with_overrides(kappa=params.kappa + extra)


class _DiscreteNode(AoptNode):
    """A^opt acting on ticks: alarms round up, sent values round down."""

    def __init__(self, node_id, neighbors, params: SyncParams, tick: float):
        super().__init__(node_id, neighbors, params)
        self._tick = tick

    def _floor_tick(self, value: float) -> float:
        return math.floor(value / self._tick + 1e-9) * self._tick

    def _ceil_tick(self, value: float) -> float:
        return math.ceil(value / self._tick - 1e-9) * self._tick

    def _send(self, ctx: NodeContext, hardware_now: float) -> None:
        floor = self._floor_tick
        ctx.send_all((floor(ctx.logical()), floor(self.l_max(hardware_now))))

    def _arm_send_alarm(self, ctx: NodeContext, hardware_now: float) -> None:
        gap = self._next_mark - self.l_max(hardware_now)
        ctx.set_alarm(SEND_ALARM, self._ceil_tick(hardware_now + gap))

    def _boost(self, ctx, hardware_now, increase, headroom) -> None:
        ctx.set_rate_multiplier(1 + self.params.mu)
        reset_at = hardware_now + increase / self.params.mu
        ctx.set_alarm(RATE_RESET_ALARM, self._ceil_tick(reset_at))


class DiscreteAoptAlgorithm(AoptAlgorithm):
    """A^opt on hardware that ticks at frequency ``f``.

    Use :func:`discrete_params` for a ``κ`` that absorbs the granularity.
    ``H0`` should be (close to) a multiple of the tick for exact
    mark-based sending; small misalignment only costs extra slack.
    """

    def __init__(self, params: SyncParams, frequency: float):
        super().__init__(params)
        _check_frequency(frequency)
        self.frequency = float(frequency)
        self.name = "aopt-discrete"

    def make_node(self, node_id: NodeId, neighbors: Sequence[NodeId]):
        return _DiscreteNode(node_id, neighbors, self.params, 1.0 / self.frequency)
