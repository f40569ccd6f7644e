"""Recovery-aware A^opt for the fault-injection subsystem.

Plain A^opt (Section 4) assumes reliable links and ever-live nodes, so
its neighbor estimates ``L_v^w`` never expire: a neighbor that crashed,
or whose messages a partition swallowed, keeps influencing *setClockRate*
through an estimate that advances at ``h_v`` while the true clock it
tracks does not.  Under long outages that stale information both
(a) holds ``Λ↑`` artificially high, making the node chase a ghost, and
(b) after the neighbor recovers far behind, drags ``Λ↓`` up and freezes
the whole neighborhood at rate 1.

This variant makes two paper-compatible amendments (they only *remove*
information, so all upper-bound arguments that tolerate message loss
still apply — see ``docs/FAULTS.md``):

* **Staleness expiry** — an estimate not refreshed within
  ``staleness_timeout`` of hardware time is discarded (together with its
  raw-value guard ``ℓ_v^w``, so the neighbor is re-learned from scratch).
  The timeout defaults to ``4·H0``: a live neighbor refreshes roughly
  every ``H0``, so four consecutive misses distinguish an outage from
  ordinary loss.  Expiry is evaluated on every message receipt and on
  every Algorithm 1 send event, i.e. at least once per ``H0``.
* **Recovery re-initialization** — :meth:`on_recover` discards all
  neighbor state, cancels a stale rate increase, re-anchors the send
  schedule to the current ``L^max`` (which kept advancing at ``h_v``
  through the outage), and immediately broadcasts, so neighbors re-learn
  this node within one message delay instead of one ``H0`` period.

``benchmarks/bench_faults.py`` measures the payoff as time-to-resync
after a cleared partition.
"""

from __future__ import annotations

import math
from typing import Any, Hashable, Optional, Sequence

from repro.core.interfaces import Algorithm, NodeContext
from repro.core.node import SEND_ALARM, AoptNode
from repro.core.params import SyncParams
from repro.errors import ConfigurationError

__all__ = ["FaultTolerantAoptAlgorithm", "DEFAULT_STALENESS_MULTIPLE"]

NodeId = Hashable

#: Default staleness timeout as a multiple of ``H0`` (four missed refreshes).
DEFAULT_STALENESS_MULTIPLE = 4.0


class _FaultTolerantNode(AoptNode):
    def __init__(self, node_id, neighbors, params: SyncParams, staleness_timeout: float):
        super().__init__(node_id, neighbors, params)
        self.staleness_timeout = staleness_timeout

    # -- staleness expiry -----------------------------------------------------

    def _expire_stale(self, ctx: NodeContext, hardware_now: float) -> None:
        """Discard estimates not refreshed within the staleness timeout.

        Clearing the raw guard alongside the estimate means a recovered
        neighbor (whose logical clock fell behind during the outage) is
        re-learned from its next message instead of being rejected as
        stale by Algorithm 2 line 5.
        """
        cutoff = hardware_now - self.staleness_timeout
        expired = [
            neighbor
            for neighbor, (_, anchor) in self._estimates.items()
            if anchor < cutoff
        ]
        if not expired:
            return
        for neighbor in expired:
            del self._estimates[neighbor]
            self._raw_received.pop(neighbor, None)
        if self._estimates:
            self._set_clock_rate(ctx, hardware_now)
        else:
            # No information left: run at the nominal rate (Algorithm 3
            # with an empty estimate set).
            self._rest(ctx)

    def on_message(self, ctx: NodeContext, sender: NodeId, payload: Any) -> None:
        # Expire before Algorithm 2 runs so a cleared raw guard lets the
        # incoming value through, and so _set_clock_rate never sees a
        # mixture of fresh and expired estimates.
        self._expire_stale(ctx, ctx.hardware())
        super().on_message(ctx, sender, payload)

    def on_alarm(self, ctx: NodeContext, name: str) -> None:
        super().on_alarm(ctx, name)
        # Algorithm 1 fires at least once per H0 of L^max progress, which
        # makes it the periodic expiry sweep: a node that stops *receiving*
        # still stops chasing ghosts within one timeout plus one period.
        if name == SEND_ALARM:
            self._expire_stale(ctx, ctx.hardware())

    # -- recovery -------------------------------------------------------------

    def on_recover(self, ctx: NodeContext) -> None:
        hardware_now = ctx.hardware()
        self._estimates.clear()
        self._raw_received.clear()
        # The engine already pinned ρ to 1 at the crash; a pending rate
        # reset from before the outage is meaningless now.
        self._rest(ctx)
        # L^max kept advancing at h_v through the outage (it is anchored to
        # the hardware clock), so only the mark schedule needs re-anchoring.
        lmax_now = self.l_max(hardware_now)
        h0 = self.params.h0
        self._next_mark = math.floor(lmax_now / h0) * h0 + h0
        # Announce immediately: neighbors whose estimate of us expired (or
        # who will reject our stale raw values) re-learn us within one
        # message delay.  Re-arming the send alarm bumps its generation,
        # superseding any alarm the engine deferred across the outage.
        self._send(ctx, hardware_now)
        self._arm_send_alarm(ctx, hardware_now)


class FaultTolerantAoptAlgorithm(Algorithm):
    """A^opt with estimate expiry and recovery re-initialization.

    Parameters
    ----------
    params:
        Validated :class:`~repro.core.params.SyncParams`.
    staleness_timeout:
        Hardware-time age beyond which a neighbor estimate is discarded;
        defaults to ``DEFAULT_STALENESS_MULTIPLE · H0``.  Must exceed
        ``H0``, otherwise estimates of healthy neighbors would routinely
        expire between refreshes.
    """

    allows_jumps = False

    def __init__(self, params: SyncParams, staleness_timeout: Optional[float] = None):
        self.params = params
        if staleness_timeout is None:
            staleness_timeout = DEFAULT_STALENESS_MULTIPLE * params.h0
        if staleness_timeout <= params.h0:
            raise ConfigurationError(
                f"staleness_timeout {staleness_timeout} must exceed H0="
                f"{params.h0}; healthy neighbors refresh once per H0"
            )
        self.staleness_timeout = float(staleness_timeout)
        self.name = "aopt-ft"

    def make_node(self, node_id: NodeId, neighbors: Sequence[NodeId]):
        return _FaultTolerantNode(
            node_id, neighbors, self.params, self.staleness_timeout
        )
