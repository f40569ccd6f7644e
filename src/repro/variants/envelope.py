"""§8.6 — the hardware-clock envelope condition (and §8.5's damped ``L^max``).

Variant requirement: every logical clock must stay between the smallest
and the largest *hardware* clock value in the system,

    ``min_w H_w(t) ≤ L_v(t) ≤ max_w H_w(t)``.

The paper's technique: increase ``L^max`` at the damped rate
``(1 − ε̂)·h_v/(1 + ε̂)`` whenever it exceeds the local hardware clock
(so it can never outrun the fastest hardware clock), at the normal rate
``h_v`` otherwise, and never let ``L_v`` exceed ``L^max_v``.  Because a
node only runs slower than its hardware clock while ``L_v = L^max_v >
H_v``, the invariant ``L_v ≥ H_v ≥ min_w H_w`` is preserved, which gives
the lower side for free.

:class:`_DampedLmaxNode` is the mechanism §8.5 shares: ``L^max`` grows
at ``_lmax_factor·h_v``, a boost ends at its budget or where ``L``
catches ``L^max``, and a node at ``L = L^max`` runs at the factor (a
``catch-lmax`` alarm marks an undamped clock reaching a damped
``L^max``).  §8.5 fixes the factor at ``1/(1 + ε̂)``; here it is damped
while ``L^max > H_v``, and a ``lmax-cross`` alarm fires when the damped
``L^max`` decays to the hardware clock, after which the two advance in
lockstep until a message lifts ``L^max`` again.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.core.interfaces import Algorithm, NodeContext
from repro.core.node import RATE_RESET_ALARM, SEND_ALARM, AoptNode
from repro.core.params import SyncParams

__all__ = ["HardwareEnvelopeAoptAlgorithm"]

NodeId = Hashable

LMAX_CROSS_ALARM = "lmax-cross"
CATCH_LMAX_ALARM = "catch-lmax"


class _DampedLmaxNode(AoptNode):
    """A^opt node whose ``L^max`` grows at ``_lmax_factor`` times ``h_v``."""

    _lmax_factor = 1.0  # growth of L^max in units of h_v

    def l_max(self, hardware_now: float) -> float:
        return self._lmax_value + self._lmax_factor * (
            hardware_now - self._lmax_anchor
        )

    def _arm_send_alarm(self, ctx: NodeContext, hardware_now: float) -> None:
        gap = (self._next_mark - self.l_max(hardware_now)) / self._lmax_factor
        ctx.set_alarm(SEND_ALARM, hardware_now + gap)

    def _boost(self, ctx, hardware_now, increase, headroom) -> None:
        # L^max grows at _lmax_factor, so the boost closes the headroom at
        # 1 + μ − _lmax_factor; end it at the budget (R/μ of hardware
        # time, as in Algorithm 3) or at L^max, whichever comes first.
        ctx.set_rate_multiplier(1 + self.params.mu)
        budget_hw = increase / self.params.mu
        catch_hw = headroom / (1 + self.params.mu - self._lmax_factor)
        ctx.set_alarm(RATE_RESET_ALARM, hardware_now + min(budget_hw, catch_hw))

    def _rest(self, ctx: NodeContext) -> None:
        super()._rest(ctx)
        self._track_lmax_if_caught(ctx)

    def _caught_lmax(self, ctx: NodeContext) -> bool:
        return self.l_max(ctx.hardware()) - ctx.logical() <= 1e-9

    def _track_lmax_if_caught(self, ctx: NodeContext) -> None:
        """At ``L = L^max`` run at the factor; below a damped ``L^max``,
        arm a catch alarm for when the undamped clock reaches it."""
        if self._caught_lmax(ctx):
            ctx.set_rate_multiplier(self._lmax_factor)
            ctx.cancel_alarm(CATCH_LMAX_ALARM)
        elif self._lmax_factor < 1.0:
            hardware_now = ctx.hardware()
            gap = self.l_max(hardware_now) - ctx.logical()
            ctx.set_alarm(
                CATCH_LMAX_ALARM, hardware_now + gap / (1 - self._lmax_factor)
            )

    def on_alarm(self, ctx: NodeContext, name: str) -> None:
        if name == CATCH_LMAX_ALARM:
            if self._caught_lmax(ctx):
                ctx.set_rate_multiplier(self._lmax_factor)
        elif name == RATE_RESET_ALARM:
            ctx.set_rate_multiplier(1.0)
            self._track_lmax_if_caught(ctx)
        else:
            super().on_alarm(ctx, name)


class _HardwareEnvelopeNode(_DampedLmaxNode):
    def __init__(self, node_id, neighbors, params: SyncParams):
        super().__init__(node_id, neighbors, params)
        self._damped = (1 - params.epsilon_hat) / (1 + params.epsilon_hat)

    def _refresh_lmax_mode(self, ctx: NodeContext) -> None:
        """Pick the L^max growth factor from its position vs. ``H_v``."""
        hardware_now = ctx.hardware()
        lmax = self.l_max(hardware_now)
        self._lmax_value = lmax
        self._lmax_anchor = hardware_now
        if lmax > hardware_now + 1e-9:
            self._lmax_factor = self._damped
            # The damped estimate loses (1 − damped) per unit of hardware
            # time against H_v; it crosses after (lmax − H)/(1 − damped).
            ctx.set_alarm(
                LMAX_CROSS_ALARM,
                hardware_now + (lmax - hardware_now) / (1 - self._damped),
            )
        else:
            self._lmax_factor = 1.0
            ctx.cancel_alarm(LMAX_CROSS_ALARM)

    def on_message(self, ctx: NodeContext, sender, payload) -> None:
        lmax_before = self.l_max(ctx.hardware())
        super().on_message(ctx, sender, payload)
        hardware_now = ctx.hardware()
        if self.l_max(hardware_now) > lmax_before + 1e-12:
            self._refresh_lmax_mode(ctx)
            self._arm_send_alarm(ctx, hardware_now)
            self._set_clock_rate(ctx, hardware_now)

    def on_alarm(self, ctx: NodeContext, name: str) -> None:
        if name == LMAX_CROSS_ALARM:
            # L^max decayed to H_v: advance in lockstep from here on.
            hardware_now = ctx.hardware()
            self._lmax_value = hardware_now
            self._lmax_anchor = hardware_now
            self._lmax_factor = 1.0
            self._arm_send_alarm(ctx, hardware_now)
            if ctx.rate_multiplier() < 1.0:
                ctx.set_rate_multiplier(1.0)
        else:
            super().on_alarm(ctx, name)


class HardwareEnvelopeAoptAlgorithm(Algorithm):
    """A^opt under the §8.6 hardware-clock envelope condition.

    Rate factors change only by ``1 − O(ε̂)``, so ``κ`` and ``μ`` keep
    their usual sizing (the paper's closing remark of §8.6).
    """

    allows_jumps = False

    def __init__(self, params: SyncParams):
        self.params = params
        self.name = "aopt-hw-envelope"

    def make_node(self, node_id: NodeId, neighbors: Sequence[NodeId]):
        return _HardwareEnvelopeNode(node_id, neighbors, self.params)
