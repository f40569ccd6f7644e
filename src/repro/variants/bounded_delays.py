"""§8.3 — message delays bounded away from zero: ``[T1, T2]``.

Many systems have a large known minimum delay and a small jitter
(``T2 − T1 ≪ T1``).  The paper notes that the skew bounds then hold with
``T`` replaced by the *uncertainty* ``T2 − T1``, provided the algorithm
adds the known minimum to every received value, and that mark-triggered
sending no longer works — nodes simply send every ``H0`` of hardware time
instead.  The reaction-time penalty adds ``O(ε·D·T1)`` to the global skew.

Deviation from the paper (documented per DESIGN.md): we compensate with
``(1 − ε̂)·T1`` rather than ``T1``.  The sender's clock provably advances
at least ``(1 − ε)·T1`` while the message is in flight, so this
compensation can never overestimate a clock and Conditions (1)/(2) and
Corollary 5.2 are preserved verbatim; compensating the full ``T1`` could
overestimate ``L^max`` by up to ``ε·T1``.
"""

from __future__ import annotations

from typing import Any, Hashable, Sequence

from repro.core.interfaces import Algorithm, NodeContext
from repro.core.node import INIT_ALARM, AoptNode
from repro.core.params import SyncParams
from repro.errors import ConfigurationError

__all__ = ["BoundedDelayAoptAlgorithm", "bounded_delay_params"]

NodeId = Hashable

PERIODIC_SEND_ALARM = "periodic-send"


def bounded_delay_params(
    epsilon: float,
    min_delay: float,
    max_delay: float,
    **overrides,
) -> SyncParams:
    """Parameters for the ``[T1, T2]`` model.

    ``κ`` and ``H0`` are sized from the *uncertainty* ``T2 − T1`` (that is
    the paper's point), with an extra ``2ε·T1`` term in ``κ`` covering the
    residual error of the minimum-delay compensation.
    """
    if not (0 <= min_delay <= max_delay):
        raise ConfigurationError(
            f"need 0 <= T1 <= T2, got T1={min_delay}, T2={max_delay}"
        )
    uncertainty = max_delay - min_delay
    params = SyncParams.recommended(
        epsilon=epsilon,
        delay_bound=uncertainty if uncertainty > 0 else max_delay * 1e-3 + 1e-9,
        **overrides,
    )
    return params.with_overrides(kappa=params.kappa + 2 * epsilon * min_delay)


class _BoundedDelayNode(AoptNode):
    def __init__(self, node_id, neighbors, params: SyncParams, min_delay: float):
        super().__init__(node_id, neighbors, params)
        self._compensation = (1 - params.epsilon_hat) * min_delay

    def _receive(self, ctx: NodeContext, sender: NodeId, payload: Any):
        # The init alarm starts the periodic sends whatever woke the node,
        # so no message forces an initialization send.
        self._needs_init_send = False
        their_logical, their_lmax = payload
        return their_logical + self._compensation, their_lmax + self._compensation

    def _adopt(self, ctx: NodeContext, their_lmax: float, hardware_now: float) -> None:
        # Adopt, but do not forward: with compensation the values are no
        # longer multiples of H0 and mark-based deduplication does not
        # apply; propagation rides on the periodic sends (§8.3).
        self._lmax_value = their_lmax
        self._lmax_anchor = hardware_now

    def _send(self, ctx: NodeContext, hardware_now: float) -> None:
        super()._send(ctx, hardware_now)
        ctx.set_alarm(PERIODIC_SEND_ALARM, hardware_now + self.params.h0)

    def on_alarm(self, ctx: NodeContext, name: str) -> None:
        # Sends run every H0 of hardware time from the init alarm on; the
        # L^max marks never arm the send alarm.
        if name == PERIODIC_SEND_ALARM or name == INIT_ALARM:
            self._send(ctx, ctx.hardware())
        else:
            super().on_alarm(ctx, name)


class BoundedDelayAoptAlgorithm(Algorithm):
    """A^opt adapted to delays in ``[T1, T2]``.

    Parameters
    ----------
    params:
        Use :func:`bounded_delay_params` so that ``κ`` reflects the
        uncertainty ``T2 − T1`` plus the compensation residual.
    min_delay:
        The known minimum delay ``T1`` added (drift-discounted) to every
        received value.
    """

    allows_jumps = False

    def __init__(self, params: SyncParams, min_delay: float):
        if min_delay < 0:
            raise ConfigurationError(f"min_delay must be >= 0, got {min_delay}")
        self.params = params
        self.min_delay = float(min_delay)
        self.name = "aopt-bounded-delays"

    def make_node(self, node_id: NodeId, neighbors: Sequence[NodeId]):
        return _BoundedDelayNode(node_id, neighbors, self.params, self.min_delay)
