"""§8.5 — external synchronization to a real-time source.

One distinguished node ``v0`` has access to real time: its logical clock,
hardware clock and real time coincide.  Every other node must satisfy
``t − d(v, v0)·T − τ ≤ L_v(t) ≤ t``: never ahead of real time, and behind
by at most its information horizon.

The paper's adaptation: the source floods its clock value periodically;
all other nodes run A^opt, except that they increase ``L^max`` (and
``L_v`` whenever ``L_v = L^max_v``) at the *damped* rate ``h_v/(1 + ε̂)``.
Damping makes every logical rate at most 1 whenever the node holds the
largest clock value, which pins ``L_v(t) ≤ t``; fresh estimates from the
source keep pulling clocks up at rate ``1 + μ``.

Implementation: a follower is §8.6's damped-``L^max`` node
(:class:`repro.variants.envelope._DampedLmaxNode`) with its factor fixed
at ``1/(1 + ε̂)``.  So the headroom ``L^max − L`` closes at hardware rate
``1 + μ − 1/(1 + ε̂)`` during a boost (not ``μ``), and a node at
``ρ = 1`` *catches up to* ``L^max`` (which now grows slower than ``L``),
at which point it drops to the damped rate ``1/(1 + ε̂)`` — handled by a
``catch-lmax`` alarm.
"""

from __future__ import annotations

import math
from typing import Any, Hashable, Optional, Sequence

from repro.core.interfaces import Algorithm, AlgorithmNode, NodeContext
from repro.core.params import SyncParams
from repro.errors import ConfigurationError
from repro.variants.envelope import _DampedLmaxNode

__all__ = ["ExternalAoptAlgorithm"]

NodeId = Hashable

SOURCE_SEND_ALARM = "source-send"


class _SourceNode(AlgorithmNode):
    """The real-time reference ``v0``: ``L = H = t``; periodic floods.

    The experiment must give this node a drift-free hardware clock (rate
    exactly 1) — that is what "access to real time" means in the model.
    """

    def __init__(self, send_period: float):
        self._send_period = send_period

    def on_start(self, ctx: NodeContext) -> None:
        ctx.set_alarm(SOURCE_SEND_ALARM, 0.0)

    def on_alarm(self, ctx: NodeContext, name: str) -> None:
        if name == SOURCE_SEND_ALARM:
            ctx.send_all((ctx.logical(), ctx.logical()))
            ctx.set_alarm(SOURCE_SEND_ALARM, ctx.hardware() + self._send_period)

    def on_message(self, ctx: NodeContext, sender: NodeId, payload: Any) -> None:
        # The source ignores the network; it *is* the reference.
        pass


class _ExternalNode(_DampedLmaxNode):
    """A^opt node with damped ``L^max`` growth (rate ``h_v/(1 + ε̂)``)."""

    def __init__(self, node_id, neighbors, params: SyncParams):
        super().__init__(node_id, neighbors, params)
        self._lmax_factor = 1.0 / (1 + params.epsilon_hat)


class ExternalAoptAlgorithm(Algorithm):
    """A^opt adapted for external synchronization (§8.5).

    Parameters
    ----------
    params:
        Protocol parameters; the effective minimum rate drops to
        ``(1 − ε)/(1 + ε̂)``, which the caller should account for when
        interpreting ``α``.
    source:
        Identifier of the real-time reference node ``v0``; the experiment
        must give it hardware rate exactly 1.
    source_period:
        Hardware time between source floods (the ``Θ(τ/ε̂)`` of §8.5 —
        smaller values tighten the ``τ`` term of the guarantee).
    """

    allows_jumps = False

    def __init__(
        self, params: SyncParams, source: NodeId, source_period: Optional[float] = None
    ):
        self.params = params
        self.source = source
        if source_period is None:
            source_period = params.h0
        if not (math.isfinite(source_period) and source_period > 0):
            raise ConfigurationError(
                f"source_period must be finite and positive, got {source_period}"
            )
        self.source_period = float(source_period)
        self.name = "aopt-external"

    def make_node(self, node_id: NodeId, neighbors: Sequence[NodeId]):
        if node_id == self.source:
            return _SourceNode(self.source_period)
        return _ExternalNode(node_id, neighbors, self.params)
