"""Ablations: removing individual design choices from A^opt.

The paper motivates each ingredient of the algorithm; these ablations
make the motivations measurable:

* :class:`NoMaxCapAopt` — drops the ``L^max`` cap in Algorithm 3 line 2
  (``R := min(..., L^max − L)``): its ``_headroom`` hook returns ``∞``
  and A^opt's one *setClockRate* does the rest.  Without the cap, the
  "a skew of κ is always tolerated" rule lets neighbors bootstrap each
  other: both stay within κ of (over-extrapolated) estimates while their
  absolute values run away at rate ``(1+ε)(1+μ)``, violating the
  real-time envelope Condition (1).  This is why Corollary 5.2 needs
  ``L_v ≤ L^max_v``.

* :class:`LazyForwardAopt` — drops the immediate forwarding of larger
  ``L^max`` estimates (Algorithm 2 line 3); estimates only propagate with
  the regular mark-triggered sends.  Information then travels one hop per
  ``Θ(H0)`` instead of one hop per delay, and the global skew degrades by
  ``Θ(ε·D·H0)`` — the reason Algorithm 2 forwards eagerly.

Both are deliberately *broken* algorithms; they exist for the ablation
benchmark (``benchmarks/bench_ablations.py``) and should not be used
otherwise.
"""

from __future__ import annotations

import math
from typing import Hashable, Sequence

from repro.core.interfaces import Algorithm, NodeContext
from repro.core.node import AoptNode
from repro.core.params import SyncParams

__all__ = ["NoMaxCapAopt", "LazyForwardAopt"]

NodeId = Hashable


class _NoMaxCapNode(AoptNode):
    def _headroom(self, ctx: NodeContext, hardware_now: float) -> float:
        # Ablated: no L^max cap on the increase.
        return math.inf


class NoMaxCapAopt(Algorithm):
    """A^opt without the ``L^max − L`` cap (envelope-breaking ablation)."""

    allows_jumps = False

    def __init__(self, params: SyncParams):
        self.params = params
        self.name = "aopt-no-max-cap"

    def make_node(self, node_id: NodeId, neighbors: Sequence[NodeId]):
        return _NoMaxCapNode(node_id, neighbors, self.params)


class _LazyForwardNode(AoptNode):
    def _adopt(self, ctx: NodeContext, their_lmax: float, hardware_now: float) -> None:
        # Ablated: adopt, but do NOT forward; the next mark-triggered send
        # (possibly a full H0 away) carries it onward.
        h0 = self.params.h0
        self._lmax_value = their_lmax
        self._lmax_anchor = hardware_now
        self._next_mark = their_lmax + h0
        self._arm_send_alarm(ctx, hardware_now)
        if self._needs_init_send:
            # A node woken by this message still makes its initialization
            # send.
            self._send(ctx, hardware_now)
            self._next_mark = max(
                self._next_mark, math.floor(their_lmax / h0) * h0 + h0
            )
            self._arm_send_alarm(ctx, hardware_now)


class LazyForwardAopt(Algorithm):
    """A^opt without eager ``L^max`` forwarding (slow-information ablation)."""

    allows_jumps = False

    def __init__(self, params: SyncParams):
        self.params = params
        self.name = "aopt-lazy-forward"

    def make_node(self, node_id: NodeId, neighbors: Sequence[NodeId]):
        return _LazyForwardNode(node_id, neighbors, self.params)
