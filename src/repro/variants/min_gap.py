"""§6.1 — bounding the message frequency from above *and* below.

Plain A^opt guarantees an amortized frequency of ``Θ(1/H0)`` but no burst
bound: a node may receive (and forward) ``Θ(G/H0)`` estimates in quick
succession.  The paper's fix: a node must let its hardware clock advance
by at least ``H0`` between consecutive sends.  Forwarding a large estimate
may therefore be deferred; the price is that information travels one hop
per ``H0`` in the worst case, adding ``Θ(ε·D·H0)`` to the global skew —
the tunable trade-off of §6.1 that ``benchmarks/bench_min_gap.py``
measures.

Implementation: the ``_send`` hook, which every Algorithm 1 send and
Algorithm 2 forward of A^opt calls, is a gate that either sends
immediately or arms a ``gap-send`` alarm at
``last_send_H + H0``; a deferred send transmits the *current* values at
fire time.  Because deferred ``L^max`` values are no longer exact
multiples of ``H0``, mark bookkeeping floors to the enclosing multiple.
"""

from __future__ import annotations

import math
from typing import Hashable, Sequence

from repro.core.interfaces import Algorithm, NodeContext
from repro.core.node import AoptNode
from repro.core.params import SyncParams

__all__ = ["MinGapAoptAlgorithm"]

NodeId = Hashable

GAP_SEND_ALARM = "gap-send"


class _MinGapNode(AoptNode):
    def __init__(self, node_id, neighbors, params: SyncParams):
        super().__init__(node_id, neighbors, params)
        self._last_send_hw = -math.inf
        self._pending_send = False

    def _send(self, ctx: NodeContext, hardware_now: float) -> None:
        """Send now if the gap allows, otherwise defer to the gap alarm."""
        if hardware_now - self._last_send_hw >= self.params.h0 - 1e-12:
            self._last_send_hw = hardware_now
            self._pending_send = False
            super()._send(ctx, hardware_now)
        elif not self._pending_send:
            self._pending_send = True
            ctx.set_alarm(GAP_SEND_ALARM, self._last_send_hw + self.params.h0)

    def _adopt(self, ctx: NodeContext, their_lmax: float, hardware_now: float) -> None:
        # A deferred send announced the L^max of its fire time, which need
        # not be a multiple of H0: floor the mark to the enclosing one.
        h0 = self.params.h0
        self._lmax_value = their_lmax
        self._lmax_anchor = hardware_now
        self._next_mark = math.floor(their_lmax / h0 + 1e-9) * h0 + h0
        self._send(ctx, hardware_now)
        self._arm_send_alarm(ctx, hardware_now)

    def on_alarm(self, ctx: NodeContext, name: str) -> None:
        if name == GAP_SEND_ALARM:
            if self._pending_send:
                self._pending_send = False
                hardware_now = ctx.hardware()
                self._last_send_hw = hardware_now
                super()._send(ctx, hardware_now)
        else:
            super().on_alarm(ctx, name)


class MinGapAoptAlgorithm(Algorithm):
    """A^opt with a minimum hardware-time gap of ``H0`` between sends.

    Guarantees both directions of the message-frequency bound: at most one
    send per ``H0`` hardware time (hard) and at least one per ``H0`` of
    ``L^max`` progress (amortized, inherited from A^opt).
    """

    allows_jumps = False

    def __init__(self, params: SyncParams):
        self.params = params
        self.name = "aopt-min-gap"

    def make_node(self, node_id: NodeId, neighbors: Sequence[NodeId]):
        return _MinGapNode(node_id, neighbors, self.params)
