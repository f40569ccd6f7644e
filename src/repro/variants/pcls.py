"""Practically-constant-local-skew GCS (Lenzen 2025) — the PCLS rate discipline.

"Gradient Clock Synchronization with Practically Constant Local Skew"
(PAPERS.md) observes that GCS algorithms of the A^opt family leave most
of their worst-case local-skew budget unused in practice: the logarithmic
``κ·⌈log_σ(2G/κ)⌉`` term is driven by adversarial estimate timing, and a
rate rule that is re-evaluated *continuously* — rather than only at
message receipts — tracks the legal-state levels tightly enough that the
observed local skew stays practically constant in ``D``.

This variant implements the continuous-evaluation discipline on top of
the A^opt machinery: :class:`PclsNode` re-runs *setClockRate* on every
Algorithm 1 send event in addition to every message receipt, so the rate
decision is refreshed at least once per ``H0`` of ``L^max`` progress even
on a node that stops hearing from its neighbors.  By Lemma 5.1 the extra
evaluations never *worsen* a decision (between events the admissible
increase and the reset target ``H^R`` are invariant), so every A^opt
worst-case bound — Theorem 5.5 global skew, Theorem 5.10 local skew, the
``[α, β]`` rate band, and the envelope condition — carries over verbatim;
the payoff is robustness of the boost schedule against float drift in
long executions and the practically-constant observed skew the paper
documents.  The ``gcs-pcls-local-skew`` certificate holds the variant to
the Theorem 5.10 claim on fault-free executions, and the differential
harness pins its verdict-agreement with ``aopt`` there.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.core.interfaces import NodeContext
from repro.core.node import SEND_ALARM, AoptAlgorithm, AoptNode
from repro.core.params import SyncParams

__all__ = ["PclsAlgorithm", "PclsNode"]

NodeId = Hashable


class PclsNode(AoptNode):
    """A^opt node with the PCLS continuous rate-rule evaluation."""

    def on_alarm(self, ctx: NodeContext, name: str) -> None:
        super().on_alarm(ctx, name)
        if name == SEND_ALARM:
            # The PCLS discipline: refresh the rate decision on the
            # periodic send tick too, so it is re-derived from current
            # estimates at least once per H0 even without any receipt.
            self._set_clock_rate(ctx, ctx.hardware())


class PclsAlgorithm(AoptAlgorithm):
    """Factory for the PCLS variant (name ``gcs-pcls``)."""

    def __init__(self, params: SyncParams, record_estimates: bool = False):
        super().__init__(params, record_estimates=record_estimates)
        self.name = "gcs-pcls"

    def make_node(self, node_id: NodeId, neighbors: Sequence[NodeId]) -> PclsNode:
        return PclsNode(
            node_id, neighbors, self.params, record_estimates=self.record_estimates
        )
