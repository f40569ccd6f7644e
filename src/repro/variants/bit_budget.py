"""§6.2 — constant-size messages.

Plain A^opt sends two unbounded real numbers per message.  Section 6.2
shows the same guarantees survive three encoding tricks:

1. **Logical clock as progress deltas.**  Instead of ``L_v``, send the
   progress since the last send, *discretized down to multiples of
   q = μ·H0*.  The receiver accumulates deltas onto the first (full)
   value it heard.  Rounding loses at most ``q`` per message — but since
   the reconstruction only ever *underestimates*, correctness is
   unaffected and accuracy costs one extra ``q`` absorbed into ``κ``.
2. **Capped ``L^max`` increments.**  ``L^max`` is a multiple of ``H0``;
   send the increment in units of ``H0``, capped at
   ``c = ⌈(1 + ε̂)(1 + μ)/(1 − ε̂)⌉`` per message, carrying any excess to
   subsequent messages.  Since the true maximum grows at most at rate
   ``1 + ε`` while nodes send at least every ``H0/(1 − ε)``, the capped
   stream can never fall behind permanently.
3. The first message per edge carries full values (initialization);
   this amortizes away.

``payload_bits`` charges the honest encoding sizes, so the benchmark can
verify both the *skew* claim (bounds preserved) and the *bit* claim
(``O(log 1/μ)`` bits per steady-state message).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, Sequence

from repro.core.interfaces import Algorithm, NodeContext
from repro.core.node import AoptNode
from repro.core.params import SyncParams

__all__ = ["BitBudgetAoptAlgorithm", "bit_budget_params"]

NodeId = Hashable

#: Bits for the full-value initialization message (two 64-bit floats).
_INIT_MESSAGE_BITS = 128


def bit_budget_params(epsilon: float, delay_bound: float, **overrides) -> SyncParams:
    """Parameters with ``κ`` enlarged by the discretization quantum.

    Each received logical value may be underestimated by up to
    ``q = μ·H0``; doubling it (both the ahead and the behind neighbor may
    be affected, as in Inequality (4)'s factor of two) sizes the slack.
    """
    params = SyncParams.recommended(epsilon=epsilon, delay_bound=delay_bound, **overrides)
    quantum = params.mu * params.h0
    return params.with_overrides(kappa=params.kappa + 2 * quantum)


class _BitBudgetNode(AoptNode):
    def __init__(self, node_id, neighbors, params: SyncParams):
        super().__init__(node_id, neighbors, params)
        self._quantum = params.mu * params.h0
        # Cap on the L^max increment (in units of H0) per message.
        self._cap_units = math.ceil(
            (1 + params.epsilon_hat) * (1 + params.mu) / (1 - params.epsilon_hat)
        )
        # Sending side: what we have already told the neighbors.
        self._sent_logical_base: float = None  # last announced L (quantized)
        self._announced_lmax_units: int = 0  # L^max/H0 announced so far
        self._sent_init_values = False
        # Receiving side: reconstruction state per neighbor.
        self._their_logical: Dict[NodeId, float] = {}
        self._their_lmax_units: Dict[NodeId, int] = {}

    # -- encoding ------------------------------------------------------------

    def _encode(self, ctx: NodeContext) -> Any:
        logical_now = ctx.logical()
        # Only whole multiples of H0 are ever announced (§6.2: "the
        # estimate L^max is a multiple of H0"); the fractional growth
        # between marks is local bookkeeping.
        lmax_units_now = int(
            math.floor(self.l_max(ctx.hardware()) / self.params.h0 + 1e-9)
        )
        if not self._sent_init_values:
            self._sent_init_values = True
            self._sent_logical_base = logical_now
            self._announced_lmax_units = lmax_units_now
            return ("init", logical_now, lmax_units_now)
        delta_steps = int(
            math.floor((logical_now - self._sent_logical_base) / self._quantum + 1e-9)
        )
        delta_steps = max(delta_steps, 0)
        self._sent_logical_base += delta_steps * self._quantum
        lmax_step = min(
            lmax_units_now - self._announced_lmax_units, self._cap_units
        )
        lmax_step = max(lmax_step, 0)
        self._announced_lmax_units += lmax_step
        return ("delta", delta_steps, lmax_step)

    # -- A^opt's Algorithm 1-2 hooks in the encoded wire format ---------------

    def _receive(self, ctx: NodeContext, sender: NodeId, payload: Any):
        if payload[0] == "init":
            _, their_logical, their_lmax_units = payload
            self._their_logical[sender] = their_logical
            self._their_lmax_units[sender] = their_lmax_units
        elif sender in self._their_logical:
            _, delta_steps, lmax_step = payload
            self._their_logical[sender] += delta_steps * self._quantum
            self._their_lmax_units[sender] += lmax_step
        else:  # pragma: no cover - defensive (reordered init)
            # A delta whose init was lost or overtaken cannot be decoded;
            # drop it, treating it as zero knowledge.
            return None
        return (
            self._their_logical[sender],
            self._their_lmax_units[sender] * self.params.h0,
        )

    def _send(self, ctx: NodeContext, hardware_now: float) -> None:
        ctx.send_all(self._encode(ctx))

    def _adopt(self, ctx: NodeContext, their_lmax: float, hardware_now: float) -> None:
        # Announced L^max values are whole units of H0; a lead within float
        # noise of the local estimate is not adopted.
        if their_lmax > self.l_max(hardware_now) + 1e-9:
            super()._adopt(ctx, their_lmax, hardware_now)


class BitBudgetAoptAlgorithm(Algorithm):
    """A^opt with §6.2 constant-size message encoding.

    Build params with :func:`bit_budget_params` so ``κ`` absorbs the
    quantization slack.
    """

    allows_jumps = False

    def __init__(self, params: SyncParams):
        self.params = params
        self.name = "aopt-bit-budget"
        quantum = params.mu * params.h0
        # Steady-state field widths (bits), charged honestly:
        # delta_steps ranges over the logical progress between sends,
        # at most (1+ε)(1+μ)·(H0/(1−ε)) per send period, in units of μH0.
        max_delta_steps = math.ceil(
            (1 + params.epsilon_hat)
            * (1 + params.mu)
            * params.h0
            / ((1 - params.epsilon_hat) * quantum)
        )
        cap_units = math.ceil(
            (1 + params.epsilon_hat) * (1 + params.mu) / (1 - params.epsilon_hat)
        )
        self._delta_bits = max(1, math.ceil(math.log2(max_delta_steps + 1)))
        self._lmax_bits = max(1, math.ceil(math.log2(cap_units + 1)))

    def steady_state_bits(self) -> int:
        """Bits per non-initialization message (plus a 1-bit type tag)."""
        return 1 + self._delta_bits + self._lmax_bits

    def payload_bits(self, payload: Any) -> int:
        if payload and payload[0] == "init":
            return 1 + _INIT_MESSAGE_BITS
        return self.steady_state_bits()

    def make_node(self, node_id: NodeId, neighbors: Sequence[NodeId]):
        return _BitBudgetNode(node_id, neighbors, self.params)
