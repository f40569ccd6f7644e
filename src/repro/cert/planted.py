"""Deliberately broken A^opt variants — the planted violations.

The certification harness's own correctness claim is "it finds real
counterexamples and shrinks them."  That claim needs positive controls:
algorithms that *look* like A^opt (same messages, same estimates, same
name-shaped interface) but carry one plausible bug each, visible only to
the certificate whose discrimination is under test.

:class:`BrokenRateRuleNode` overrides the ``_boost`` hook of Algorithm 3
to rest instead, so it never engages the fast multiplier.  Every clock
then free-runs at its hardware rate, so under a two-group drift
adversary the global skew grows like ``2εt`` without bound — past ``G``
once the horizon exceeds roughly ``G / (2ε)`` — while each clock
individually stays inside the ``[(1−ε)t, (1+ε)t]`` envelope and the
``[α, β]`` rate band.  The planted
bug is thus visible *only* to the Theorem 5.5/5.10 skew certificates,
which is exactly the discrimination the shrinker tests need.

:class:`FrozenIntegrationNode` plants the dynamic-topology analogue: a
"sanity filter" that silently discards any message whose ``L^max`` runs
more than ``(D + 2)·T + H0`` ahead of the node's own estimate — a
plausible guard, since in static operation a legitimate value is at most
one flood plus one broadcast period away (Lemma 5.4 territory), so the
filter never fires and the variant is indistinguishable from
``kllo-dynamic`` on every static certificate.  But after a partition
long enough for the components to drift past the window (duration
``≳ ((D+2)T + H0) / 2ε``), the lagging component's first contact with
the leading one carries an ``L^max`` outside it — the lagging side drops
the message, never adopts the larger value, never boosts, and the spread
stays above ``G`` forever: exactly the bug class the
``kllo-stabilization`` certificate exists to catch.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional, Sequence

from repro.core.interfaces import NodeContext
from repro.core.node import AoptAlgorithm, AoptNode
from repro.core.params import SyncParams
from repro.variants.fault_tolerant import _FaultTolerantNode
from repro.variants.ftgcs import FtgcsAlgorithm, FtgcsNode
from repro.variants.kllo_dynamic import KlloDynamicAlgorithm

__all__ = [
    "BrokenRateRuleAoptAlgorithm",
    "BrokenRateRuleNode",
    "FrozenIntegrationAlgorithm",
    "FrozenIntegrationNode",
    "REJECTION_SLACK_HOPS",
    "TrustingFtgcsAlgorithm",
    "TrustingFtgcsNode",
]

NodeId = Hashable

#: Extra hops of headroom the planted filter grants beyond the diameter.
REJECTION_SLACK_HOPS = 2


class BrokenRateRuleNode(AoptNode):
    """A^opt node whose *setClockRate* never boosts (planted bug)."""

    def _boost(self, ctx, hardware_now, increase, headroom) -> None:
        # The bug: ignore the admissible increase entirely and stay at the
        # base multiplier, as if Algorithm 3 always computed R_v = 0.
        self._rest(ctx)


class BrokenRateRuleAoptAlgorithm(AoptAlgorithm):
    """Factory for the planted-violation variant (name ``aopt-broken-rate``).

    Registered under its own algorithm name so certification reports,
    spec digests, and repro artifacts unambiguously identify planted-bug
    runs; it claims the A^opt guarantees (it is in every certificate's
    ``governs`` set) precisely so the certifier will hold it to them.
    """

    def __init__(self, params: SyncParams, record_estimates: bool = False):
        super().__init__(params, record_estimates=record_estimates)
        self.name = "aopt-broken-rate"

    def make_node(
        self, node_id: NodeId, neighbors: Sequence[NodeId]
    ) -> BrokenRateRuleNode:
        return BrokenRateRuleNode(
            node_id, neighbors, self.params, record_estimates=self.record_estimates
        )


class FrozenIntegrationNode(_FaultTolerantNode):
    """kllo-dynamic node with a planted re-integration bug.

    The "sanity filter" drops any message whose ``L^max`` leads this
    node's own estimate by more than ``rejection_window``.  In static
    operation a legitimate lead is bounded by flood latency plus one
    broadcast period, so a window of ``(D + 2)·T + H0`` never fires —
    but after a partition of duration ``≳ window / 2ε`` the re-merge
    messages are *correct* and still get dropped, so the lagging
    component never re-integrates.
    """

    def __init__(
        self,
        node_id: NodeId,
        neighbors: Sequence[NodeId],
        params: SyncParams,
        staleness_timeout: float,
        rejection_window: float,
    ):
        super().__init__(node_id, neighbors, params, staleness_timeout)
        self.rejection_window = rejection_window

    def on_message(self, ctx: NodeContext, sender: NodeId, payload: Any) -> None:
        _, their_lmax = payload
        if (
            not self._needs_init_send
            and their_lmax - self.l_max(ctx.hardware()) > self.rejection_window
        ):
            # The bug: "a value this far ahead must be corrupt."  After a
            # long partition it is merely true.  (§4.2 first-message
            # integration is exempted via _needs_init_send, which is what
            # makes the bug survive every static certificate.)
            return
        super().on_message(ctx, sender, payload)


class TrustingFtgcsNode(FtgcsNode):
    """ftgcs node that trusts every neighbor estimate (planted bug).

    The fault-tolerant filter is the *only* thing standing between a
    Byzantine neighbor's fabricated laggard estimates and the rate rule:
    an offset ``magnitude`` below the true clock drags ``Λ↓`` up past
    ``κ``, so ``clamped_rate_increase`` goes non-positive and the victim
    never boosts again — under a two-group drift adversary the honest
    fast nodes then pull away at ``2εt`` without bound.  Skipping the
    filter re-exposes exactly that channel while staying byte-identical
    to ``ftgcs`` on every fault-free execution, which is what makes the
    shrunk counterexample land on a star with a Byzantine center of
    attention and nothing else.
    """

    def skew_estimates(self, ctx: NodeContext):
        # The bug: bypass FtgcsNode's trimming filter and use the raw
        # A^opt estimate set, extremes and all.
        return AoptNode.skew_estimates(self, ctx)


class TrustingFtgcsAlgorithm(FtgcsAlgorithm):
    """Factory for the planted Byzantine-vulnerable variant (``ftgcs-trusting``).

    Registered under its own name for the same reason as
    ``aopt-broken-rate``: reports and repro artifacts must unambiguously
    identify planted-bug runs, while the certifier holds the variant to
    the full ``ftgcs`` claim set — including the Byzantine skew
    certificate it is built to fail.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.name = "ftgcs-trusting"

    def make_node(
        self, node_id: NodeId, neighbors: Sequence[NodeId]
    ) -> TrustingFtgcsNode:
        return TrustingFtgcsNode(
            node_id,
            neighbors,
            self.params,
            self.staleness_timeout,
            self.rejection_window,
            self.max_faulty,
        )


class FrozenIntegrationAlgorithm(KlloDynamicAlgorithm):
    """Factory for the planted dynamic-topology variant (``kllo-frozen``).

    Registered under its own name for the same reason as
    ``aopt-broken-rate``: certification reports and repro artifacts must
    unambiguously identify planted-bug runs, while the certifier holds
    the variant to the full ``kllo-dynamic`` claim set — including the
    stabilization certificate it is built to fail.

    The filter window is calibrated from the deployment ``diameter``
    (the bug's author "knew" legitimate ``L^max`` leads are at most one
    flood away), so the factory needs the diameter at construction time.
    """

    def __init__(
        self,
        params: SyncParams,
        diameter: int,
        staleness_timeout: Optional[float] = None,
    ):
        super().__init__(params, staleness_timeout)
        self.name = "kllo-frozen"
        self.diameter = int(diameter)
        self.rejection_window = (
            (self.diameter + REJECTION_SLACK_HOPS) * params.delay_bound + params.h0
        )

    def make_node(
        self, node_id: NodeId, neighbors: Sequence[NodeId]
    ) -> FrozenIntegrationNode:
        return FrozenIntegrationNode(
            node_id,
            neighbors,
            self.params,
            self.staleness_timeout,
            self.rejection_window,
        )
