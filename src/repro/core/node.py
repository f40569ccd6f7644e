"""The A^opt clock synchronization algorithm (Section 4 of the paper).

Each node maintains:

* ``L_v`` — its logical clock, advancing at ``ρ_v · h_v`` with
  ``ρ_v ∈ {1, 1 + μ}`` (the engine tracks the value; the node only switches
  the multiplier);
* ``L_v^max`` — its estimate of the maximum clock value in the system,
  advancing at the hardware rate ``h_v`` between updates;
* per neighbor ``w``: the estimate ``L_v^w`` (advancing at ``h_v``) and the
  largest *raw* received value ``ℓ_v^w`` (not advanced), which guards
  against stale out-of-order information (Algorithm 2 line 5).

Event handlers map one-to-one onto the paper's pseudocode:

* **Algorithm 1** — when ``L_v^max`` reaches an integer multiple of ``H0``
  the node broadcasts ``⟨L_v, L_v^max⟩`` (implemented as the ``send``
  hardware-time alarm, exact because ``L_v^max`` advances at ``h_v``);
* **Algorithm 2** — message processing: adopt larger ``L^max`` estimates
  and forward them immediately, refresh the neighbor estimate, recompute
  ``Λ↑``/``Λ↓`` and call *setClockRate*;
* **Algorithm 3** — *setClockRate* (closed form in
  :mod:`repro.core.rate_rule`): if the admissible increase ``R_v`` is
  positive, run at ``ρ = 1 + μ`` until the hardware clock reaches
  ``H_v^R = H_v + R_v/μ``;
* **Algorithm 4** — the ``rate-reset`` alarm restores ``ρ = 1``.

Initialization follows Section 4.2: an initiator sends ``⟨0, 0⟩``; a node
woken by its first message adopts the received ``L^max`` and immediately
triggers a sending event, flooding initialization through the network.

The paper's adaptations (§6.1, §6.2, §8.1, §8.3) change Algorithms 1–2
only through three hooks — :meth:`AoptNode._receive` (wire format in),
:meth:`AoptNode._send` (wire format and send gate out) and
:meth:`AoptNode._adopt` (the forwarding rule) — and Algorithm 3 only
through the four hooks of :meth:`AoptNode._set_clock_rate`;
``docs/ALGORITHM.md`` tabulates which variant overrides which.

By Lemma 5.1, calling *setClockRate* between messages would never change
``ρ_v`` or ``H_v^R``, so reacting only to message receipts and the two
alarms reproduces the continuous-time algorithm exactly.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, Optional, Sequence, Tuple

from repro.core.interfaces import Algorithm, AlgorithmNode, NodeContext
from repro.core.params import SyncParams
from repro.core.rate_rule import clamped_rate_increase

__all__ = ["AoptAlgorithm", "AoptNode"]

NodeId = Hashable

#: Positive-increase threshold guarding against float-noise rate flapping;
#: the one copy, shared by every rate rule in the tree.
_INCREASE_EPS = 1e-12

SEND_ALARM = "send"
RATE_RESET_ALARM = "rate-reset"
INIT_ALARM = "init-send"


class AoptNode(AlgorithmNode):
    """Per-node state machine of A^opt."""

    def __init__(
        self,
        node_id: NodeId,
        neighbors: Sequence[NodeId],
        params: SyncParams,
        record_estimates: bool = False,
    ):
        self.node_id = node_id
        self.neighbors = tuple(neighbors)
        self.params = params
        self.record_estimates = record_estimates
        # L^max represented as value at an anchor hardware time; the
        # current value is _lmax_value + (H − _lmax_anchor).
        self._lmax_value = 0.0
        self._lmax_anchor = 0.0
        # Next integer multiple of H0 at which Algorithm 1 fires.
        self._next_mark = 0.0
        # Estimates L_v^w as (value, anchor hardware time); raw ℓ_v^w.
        self._estimates: Dict[NodeId, Tuple[float, float]] = {}
        self._raw_received: Dict[NodeId, float] = {}
        self._needs_init_send = False

    # -- state accessors (used by tests and the Lemma 5.4 experiment) -------

    def l_max(self, hardware_now: float) -> float:
        """Current ``L_v^max`` given the node's hardware clock reading."""
        return self._lmax_value + (hardware_now - self._lmax_anchor)

    def estimate_of(self, neighbor: NodeId, hardware_now: float) -> Optional[float]:
        """Current ``L_v^w`` for a neighbor, or ``None`` if never heard."""
        anchored = self._estimates.get(neighbor)
        if anchored is None:
            return None
        value, anchor = anchored
        return value + (hardware_now - anchor)

    def skew_estimates(self, ctx: NodeContext) -> Optional[Tuple[float, float]]:
        """``(Λ↑, Λ↓)`` from the current estimates, or ``None`` if none."""
        if not self._estimates:
            return None
        hardware_now = ctx.hardware()
        logical_now = ctx.logical()
        offsets = [
            value + (hardware_now - anchor) - logical_now
            for value, anchor in self._estimates.values()
        ]
        return max(offsets), -min(offsets)

    # -- event handlers ------------------------------------------------------

    def on_start(self, ctx: NodeContext) -> None:
        self._lmax_value = 0.0
        self._lmax_anchor = 0.0
        self._next_mark = 0.0
        self._needs_init_send = True
        # If this wake was spontaneous no message follows; the immediate
        # alarm performs the ⟨0, 0⟩ initialization broadcast.  If a message
        # woke the node, Algorithm 2 below runs first (same instant) and
        # performs the initialization send itself.
        ctx.set_alarm(INIT_ALARM, 0.0)

    def on_message(self, ctx: NodeContext, sender: NodeId, payload: Any) -> None:
        received = self._receive(ctx, sender, payload)
        if received is None:
            return
        their_logical, their_lmax = received
        hardware_now = ctx.hardware()

        lmax_now = self.l_max(hardware_now)
        if their_lmax > lmax_now:
            # Algorithm 2 lines 1-4.  The wake flag is cleared only below,
            # so an _adopt that does not forward can still make the
            # initialization send of a node this message woke.
            self._adopt(ctx, their_lmax, hardware_now)
        elif self._needs_init_send:
            # Initialization send of a node woken by this very message but
            # whose L^max estimate was not below the received one.
            h0 = self.params.h0
            self._next_mark = math.floor(lmax_now / h0) * h0 + h0
            self._send(ctx, hardware_now)
            self._arm_send_alarm(ctx, hardware_now)
        self._needs_init_send = False

        # Algorithm 2 lines 5-7: refresh the neighbor estimate unless the
        # received value is stale (not larger than the raw record).
        if their_logical > self._raw_received.get(sender, -math.inf):
            self._raw_received[sender] = their_logical
            self._estimates[sender] = (their_logical, hardware_now)
            if self.record_estimates:
                ctx.probe("estimate", (sender, their_logical))

        # Algorithm 2 lines 8-10.
        self._set_clock_rate(ctx, hardware_now)

    def on_alarm(self, ctx: NodeContext, name: str) -> None:
        if name == INIT_ALARM:
            if self._needs_init_send:
                self._needs_init_send = False
                hardware_now = ctx.hardware()
                self._send(ctx, hardware_now)
                self._next_mark = self.params.h0
                self._arm_send_alarm(ctx, hardware_now)
        elif name == SEND_ALARM:
            # Algorithm 1: L^max reached the next multiple of H0.  Snap the
            # estimate to the exact multiple to avoid float drift.
            hardware_now = ctx.hardware()
            self._lmax_value = self._next_mark
            self._lmax_anchor = hardware_now
            self._send(ctx, hardware_now)
            self._next_mark += self.params.h0
            self._arm_send_alarm(ctx, hardware_now)
        elif name == RATE_RESET_ALARM:
            # Algorithm 4: the hardware clock reached H^R.
            ctx.set_rate_multiplier(1.0)

    # -- Algorithm 1-2 hooks ---------------------------------------------------

    def _receive(
        self, ctx: NodeContext, sender: NodeId, payload: Any
    ) -> Optional[Tuple[float, float]]:
        """Decode a message into ``(L_w, L_w^max)``; ``None`` if consumed."""
        return payload

    def _send(self, ctx: NodeContext, hardware_now: float) -> None:
        """Broadcast ``⟨L_v, L_v^max⟩``, the message of Algorithm 1."""
        ctx.send_all((ctx.logical(), self.l_max(hardware_now)))

    def _adopt(self, ctx: NodeContext, their_lmax: float, hardware_now: float) -> None:
        """Algorithm 2 lines 1-4: adopt the larger ``L^max`` and forward it.

        Received estimates are integer multiples of ``H0`` by construction,
        so this send accounts for that multiple (one send per multiple).
        """
        self._lmax_value = their_lmax
        self._lmax_anchor = hardware_now
        self._next_mark = their_lmax + self.params.h0
        self._send(ctx, hardware_now)
        self._arm_send_alarm(ctx, hardware_now)

    # -- internals ------------------------------------------------------------

    def _arm_send_alarm(self, ctx: NodeContext, hardware_now: float) -> None:
        gap = self._next_mark - self.l_max(hardware_now)
        ctx.set_alarm(SEND_ALARM, hardware_now + gap)

    def _set_clock_rate(self, ctx: NodeContext, hardware_now: float) -> None:
        """Algorithm 3 (*setClockRate*), the one copy of the rule.

        Variants change what feeds it through four hooks and leave the
        rule alone: :meth:`_kappa` and :meth:`_headroom` (the ``κ`` and
        the ``L^max − L`` cap of lines 1–2), :meth:`_boost` (the
        ``R_v > 0`` branch) and :meth:`_rest` (the other branch).
        """
        skews = self.skew_estimates(ctx)
        if skews is None:
            return
        lambda_up, lambda_down = skews
        headroom = self._headroom(ctx, hardware_now)
        increase = clamped_rate_increase(
            lambda_up, lambda_down, self._kappa(), headroom
        )
        if increase > _INCREASE_EPS:
            self._boost(ctx, hardware_now, increase, headroom)
        else:
            self._rest(ctx)

    def _kappa(self) -> float:
        """The skew quantum ``κ`` of Algorithm 3."""
        return self.params.kappa

    def _headroom(self, ctx: NodeContext, hardware_now: float) -> float:
        """The cap ``L^max_v − L_v`` on the increase (Algorithm 3 line 2)."""
        return self.l_max(hardware_now) - ctx.logical()

    def _boost(
        self, ctx: NodeContext, hardware_now: float, increase: float, headroom: float
    ) -> None:
        """Run at ``ρ = 1 + μ`` until ``H_v^R = H_v + R_v/μ``."""
        ctx.set_rate_multiplier(1 + self.params.mu)
        ctx.set_alarm(RATE_RESET_ALARM, hardware_now + increase / self.params.mu)

    def _rest(self, ctx: NodeContext) -> None:
        """No admissible increase: run at ``ρ = 1``."""
        ctx.set_rate_multiplier(1.0)
        ctx.cancel_alarm(RATE_RESET_ALARM)


class AoptAlgorithm(Algorithm):
    """Factory for :class:`AoptNode` state machines.

    Parameters
    ----------
    params:
        Validated :class:`~repro.core.params.SyncParams`.
    record_estimates:
        Emit a probe per adopted neighbor estimate, enabling the
        Lemma 5.4 estimate-accuracy experiment (adds trace volume).
    """

    allows_jumps = False

    def __init__(self, params: SyncParams, record_estimates: bool = False):
        self.params = params
        self.record_estimates = record_estimates
        self.name = "aopt"

    def make_node(self, node_id: NodeId, neighbors: Sequence[NodeId]) -> AoptNode:
        return AoptNode(
            node_id, neighbors, self.params, record_estimates=self.record_estimates
        )
