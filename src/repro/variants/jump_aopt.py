"""The instant-jump variant of A^opt (remark after Theorem 5.10).

The paper notes: *"this theorem also holds if each node v increases its
logical clock value by the value R_v computed in the subroutine
setClockRate at once instead of raising the logical clock rate"* — the
skew analysis (Lemmas 5.7 and 5.9) survives because jumping is a more
aggressive catch-up and the blocking case (``R_v = 0``) is unchanged.

What is lost is Condition (2)'s upper rate bound (β = ∞) and the smooth
clock behaviour motivating the rate-based design (footnote 3: clock jumps
deteriorate e.g. velocity measurements).  The benchmark compares the two:
same skew bounds, discontinuous vs smooth clocks.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.core.interfaces import Algorithm
from repro.core.node import AoptNode
from repro.core.params import SyncParams

__all__ = ["JumpAoptAlgorithm"]

NodeId = Hashable


class _JumpAoptNode(AoptNode):
    def _boost(self, ctx, hardware_now, increase, headroom) -> None:
        """Apply the Algorithm 3 increase instantaneously.

        The rate multiplier stays 1 at all times, so the inherited rest
        branch never changes it and no reset alarm is ever armed.
        """
        ctx.jump_logical(ctx.logical() + increase)


class JumpAoptAlgorithm(Algorithm):
    """A^opt with instantaneous clock increases (β = ∞)."""

    allows_jumps = True

    def __init__(self, params: SyncParams):
        self.params = params
        self.name = "aopt-jump"

    def make_node(self, node_id: NodeId, neighbors: Sequence[NodeId]):
        return _JumpAoptNode(node_id, neighbors, self.params)
