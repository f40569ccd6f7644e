"""The oblivious gradient algorithm of Locher–Wattenhofer (DISC 2006).

The first algorithm with a sublinear local skew: ``O(√(εD))·T``.  Its rule
is *oblivious* — the rate decision depends only on current estimates:

* like A^opt, nodes flood an estimate ``L^max`` of the maximum clock value
  and keep per-neighbor estimates;
* a node runs fast (``(1 + μ)·h_v``) whenever it is behind ``L^max`` *and*
  no neighbor estimate lags more than the *blocking threshold* ``B``
  behind its own clock; otherwise it runs at ``h_v``.

This is A^opt with the multi-level rule of Algorithm 3 collapsed to a
single level ``B``: nodes chase the maximum but are blocked by any
neighbor more than ``B`` behind.  Choosing ``B ∈ Θ(√(εD)·κ)`` balances the
two sources of skew and yields the ``O(√(εD))`` local skew that the paper
improves to ``O(log D)`` — the benchmark suite reproduces that crossover.

Implementation notes: the send/forward machinery (Algorithm 1 and lines
1–7 of Algorithm 2) is inherited verbatim from :class:`AoptNode`; only
*setClockRate* is replaced.
"""

from __future__ import annotations

import math
from typing import Hashable, Sequence

from repro.core.interfaces import Algorithm, NodeContext
from repro.core.node import _INCREASE_EPS, RATE_RESET_ALARM, AoptNode
from repro.core.params import SyncParams

__all__ = ["ObliviousGradientAlgorithm", "blocking_threshold"]

NodeId = Hashable


def blocking_threshold(params: SyncParams, diameter: int) -> float:
    """The ``B ∈ Θ(√(εD))·κ``-scale threshold balancing the skew sources.

    With blocking threshold ``B``, the blocked-chain argument gives a local
    skew of ``O(B + εDT·κ/B)``; minimizing over ``B`` yields
    ``B = κ·√(max(1, εD·T/κ))``.
    """
    if diameter < 1:
        raise ValueError(f"diameter must be >= 1, got {diameter}")
    ratio = params.epsilon * diameter * max(params.delay_bound, params.h_bar_0)
    return params.kappa * math.sqrt(max(1.0, ratio / params.kappa))


class _ObliviousGradientNode(AoptNode):
    def __init__(
        self,
        node_id: NodeId,
        neighbors: Sequence[NodeId],
        params: SyncParams,
        threshold: float,
    ):
        super().__init__(node_id, neighbors, params)
        self._threshold = threshold

    def _set_clock_rate(self, ctx: NodeContext, hardware_now: float) -> None:
        """Single-level blocking rule replacing Algorithm 3."""
        skews = self.skew_estimates(ctx)
        if skews is None:
            return
        _, lambda_down = skews
        headroom = self.l_max(hardware_now) - ctx.logical()
        blocked = lambda_down >= self._threshold
        if not blocked and headroom > _INCREASE_EPS:
            ctx.set_rate_multiplier(1 + self.params.mu)
            # Run fast until the clock would reach L^max (which itself
            # advances at h_v, so the gap closes at rate mu·h_v) or until a
            # message re-evaluates the rule.
            ctx.set_alarm(
                RATE_RESET_ALARM, hardware_now + headroom / self.params.mu
            )
        else:
            ctx.set_rate_multiplier(1.0)
            ctx.cancel_alarm(RATE_RESET_ALARM)


class ObliviousGradientAlgorithm(Algorithm):
    """Locher–Wattenhofer blocking algorithm with threshold ``B``.

    Parameters
    ----------
    params:
        Model and protocol parameters (``κ``, ``μ``, ``H0`` reused).
    threshold:
        The blocking threshold ``B``; use :func:`blocking_threshold` for
        the balanced ``Θ(√(εD))`` choice.
    """

    allows_jumps = False

    def __init__(self, params: SyncParams, threshold: float):
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.params = params
        self.threshold = float(threshold)
        self.name = "oblivious-gradient"

    def make_node(self, node_id: NodeId, neighbors: Sequence[NodeId]):
        return _ObliviousGradientNode(node_id, neighbors, self.params, self.threshold)
