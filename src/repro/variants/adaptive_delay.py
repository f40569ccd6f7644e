"""§8.1 — running without prior knowledge of the delay bound ``T``.

The paper: *"Assuming that T is completely unknown to the algorithm is no
restriction.  In this case, nodes acknowledge every message, and
perpetually measure the corresponding round trip times by means of their
hardware clocks.  Multiplying the determined values by 1/(1 − ε̂) then
yields an estimate of the round trip times that is in O(T) and which
upper bounds the delays … If a larger (estimated) round trip time is
detected, it is flooded through the system and κ is adjusted accordingly
… it is not a problem if the nodes underestimate T because, until the
time when larger delays actually occur, the skew bounds hold with respect
to the smaller delays and thus the smaller κ.  In order to keep the
number of messages low, one could initially use an estimate of Θ(1/f)
and double it in every step, reducing the number of updates to at most
O(log(T·f))."*

Implementation:

* every synchronization message carries the sender's hardware send time;
  the receiver acknowledges it (acks are not themselves acknowledged);
* an ack closes the loop: ``rtt_hw/(1 − ε̂)`` upper-bounds the round trip
  in real time, hence the one-way delay;
* a node's working bound ``T̂`` is the largest *announced* estimate it
  knows; announcements are doubled (the next announcement is at least
  twice the previous), capping the number of floods at ``O(log(T/T̂₀))``;
* ``κ`` is recomputed from the current ``T̂`` via Inequality (4); ``H0``
  stays fixed (its choice only trades message frequency for skew and
  re-deriving it mid-run would disturb the mark bookkeeping).
"""

from __future__ import annotations

from typing import Any, Hashable, Sequence

from repro.core.interfaces import Algorithm, NodeContext
from repro.core.node import AoptNode
from repro.core.params import SyncParams
from repro.errors import ConfigurationError

__all__ = ["AdaptiveDelayAoptAlgorithm"]

NodeId = Hashable


class _AdaptiveDelayNode(AoptNode):
    def __init__(self, node_id, neighbors, params: SyncParams, initial_estimate: float):
        super().__init__(node_id, neighbors, params)
        # The working delay-bound estimate (starts deliberately small).
        self._delay_estimate = initial_estimate
        # Largest estimate already announced (flooded); announcements double.
        self._announced = initial_estimate

    # -- adaptive kappa ------------------------------------------------------

    def current_kappa(self) -> float:
        """Inequality (4) evaluated at the current delay estimate."""
        params = self.params
        return 2 * (
            (1 + params.epsilon_hat) * (1 + params.mu) * self._delay_estimate
            + params.h_bar_0
        )

    # Algorithm 3 runs with the measured κ, not params.kappa.
    _kappa = current_kappa

    # -- messaging with acks and estimate floods ------------------------------

    def _raise_estimate(self, ctx: NodeContext, value: float) -> None:
        """Adopt a larger delay estimate; flood if it doubles the announced."""
        if value > self._delay_estimate:
            self._delay_estimate = value
        if self._delay_estimate >= 2 * self._announced:
            self._announced = self._delay_estimate
            ctx.send_all(("that", self._announced))

    def _receive(self, ctx: NodeContext, sender: NodeId, payload: Any):
        kind = payload[0]
        if kind == "sync":
            # ⟨L_w, L_w^max⟩ plus the sender's send time, acknowledged.
            _, their_logical, their_lmax, their_send_hw = payload
            ctx.send_to(sender, ("ack", their_send_hw))
            return their_logical, their_lmax
        if kind == "ack":
            _, echoed_send_hw = payload
            rtt_hw = ctx.hardware() - echoed_send_hw
            # One-way delay <= round trip; discount the worst-case slow
            # clock to over- rather than under-estimate.
            self._raise_estimate(ctx, rtt_hw / (1 - self.params.epsilon_hat))
        else:  # "that": a flooded announcement
            _, announced = payload
            if announced > self._announced:
                self._delay_estimate = max(self._delay_estimate, announced)
                self._announced = announced
                ctx.send_all(("that", announced))
        return None

    def _send(self, ctx: NodeContext, hardware_now: float) -> None:
        # Sync messages carry their send time for the receiver's ack.
        ctx.send_all(("sync", ctx.logical(), self.l_max(hardware_now), hardware_now))


class AdaptiveDelayAoptAlgorithm(Algorithm):
    """A^opt without prior knowledge of ``T`` (§8.1).

    Parameters
    ----------
    params:
        ``params.delay_bound`` / ``delay_bound_hat`` are ignored for the
        rate rule — ``κ`` derives from the measured estimate — but still
        size ``H0`` and ``H̄0``.
    initial_estimate:
        The deliberately small starting ``T̂₀`` (the paper suggests
        ``Θ(1/f)``); it grows by measured round trips, doubling per
        announcement.
    """

    allows_jumps = False

    def __init__(self, params: SyncParams, initial_estimate: float):
        if initial_estimate <= 0:
            raise ConfigurationError(
                f"initial_estimate must be positive, got {initial_estimate}"
            )
        self.params = params
        self.initial_estimate = float(initial_estimate)
        self.name = "aopt-adaptive-delay"

    def make_node(self, node_id: NodeId, neighbors: Sequence[NodeId]):
        return _AdaptiveDelayNode(
            node_id, neighbors, self.params, self.initial_estimate
        )
