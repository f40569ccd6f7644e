"""The algorithm registry: each name the CLI and the certifier accept,
keyed by the built algorithm's ``.name``, with one builder
``(params, topology) -> Algorithm`` and its traits.

Diameter-calibrated algorithms (``ftgcs``, ``oblivious-gradient``,
``kllo-frozen``) read the diameter from the topology they run on, so a
shrunk scenario rebuilds them consistently.  The traits say who holds an
algorithm to what: ``bounded`` (the CLI exit code gates it on the plain
Theorem 5.5/5.10 bounds), ``certifiable`` (``repro certify`` fuzzes it
and the execution certificates govern it), ``byzantine`` (the Byzantine
skew certificate governs it), ``differential`` (the faultless
differential harness compares it), ``planted`` (a planted-violation
control of :mod:`repro.cert.planted`) and ``cli`` (``simulate``,
``suite``, ``sweep``, ``faults`` and ``profile`` offer it).
:func:`names` lists a trait's names in registry order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.baselines import (
    FreeRunningAlgorithm,
    MaxForwardAlgorithm,
    MidpointAlgorithm,
    ObliviousGradientAlgorithm,
)
from repro.baselines.oblivious_gradient import blocking_threshold
from repro.core.interfaces import Algorithm
from repro.core.node import AoptAlgorithm
from repro.core.params import SyncParams
from repro.errors import ConfigurationError
from repro.topology.generators import Topology
from repro.topology.properties import diameter
from repro.variants import (
    AdaptiveDelayAoptAlgorithm,
    BitBudgetAoptAlgorithm,
    FaultTolerantAoptAlgorithm,
    FtgcsAlgorithm,
    JumpAoptAlgorithm,
    KlloDynamicAlgorithm,
    MinGapAoptAlgorithm,
    PclsAlgorithm,
    bit_budget_params,
    ftgcs_rejection_window,
)

__all__ = ["ALGORITHMS", "Entry", "build", "names"]


@dataclass(frozen=True)
class Entry:
    """One registered algorithm: its builder and its traits."""

    build: Callable[[SyncParams, Topology], Algorithm]
    bounded: bool = False
    certifiable: bool = False
    byzantine: bool = False
    differential: bool = False
    planted: bool = False
    cli: bool = False


def _planted():
    # repro.cert, which holds the planted controls, reads this registry,
    # so it is imported when a control is built, not when this module loads.
    from repro.cert import planted

    return planted


ALGORITHMS: Dict[str, Entry] = {
    "aopt": Entry(
        lambda p, t: AoptAlgorithm(p),
        bounded=True, certifiable=True, byzantine=True, differential=True, cli=True,
    ),
    "aopt-jump": Entry(
        lambda p, t: JumpAoptAlgorithm(p),
        bounded=True, certifiable=True, differential=True, cli=True,
    ),
    "aopt-ft": Entry(
        lambda p, t: FaultTolerantAoptAlgorithm(p),
        certifiable=True, byzantine=True, differential=True, cli=True,
    ),
    "ftgcs": Entry(
        lambda p, t: FtgcsAlgorithm(p, ftgcs_rejection_window(p, diameter(t))),
        certifiable=True, byzantine=True, cli=True,
    ),
    "gcs-pcls": Entry(lambda p, t: PclsAlgorithm(p), certifiable=True, cli=True),
    "kllo-dynamic": Entry(
        lambda p, t: KlloDynamicAlgorithm(p), certifiable=True, cli=True
    ),
    "aopt-broken-rate": Entry(
        lambda p, t: _planted().BrokenRateRuleAoptAlgorithm(p),
        certifiable=True, planted=True,
    ),
    "kllo-frozen": Entry(
        lambda p, t: _planted().FrozenIntegrationAlgorithm(p, diameter(t)),
        certifiable=True, planted=True,
    ),
    "ftgcs-trusting": Entry(
        lambda p, t: _planted().TrustingFtgcsAlgorithm(
            p, ftgcs_rejection_window(p, diameter(t))
        ),
        certifiable=True, byzantine=True, planted=True,
    ),
    "aopt-min-gap": Entry(lambda p, t: MinGapAoptAlgorithm(p), cli=True),
    "aopt-bit-budget": Entry(
        lambda p, t: BitBudgetAoptAlgorithm(
            bit_budget_params(p.epsilon, p.delay_bound)
        ),
        cli=True,
    ),
    "aopt-adaptive-delay": Entry(
        lambda p, t: AdaptiveDelayAoptAlgorithm(
            p, initial_estimate=p.delay_bound / 100
        ),
        cli=True,
    ),
    "max-forward": Entry(lambda p, t: MaxForwardAlgorithm(send_period=p.h0), cli=True),
    "midpoint": Entry(
        lambda p, t: MidpointAlgorithm(send_period=p.h0, mu=p.mu), cli=True
    ),
    "oblivious-gradient": Entry(
        lambda p, t: ObliviousGradientAlgorithm(p, blocking_threshold(p, diameter(t))),
        cli=True,
    ),
    "free-running": Entry(lambda p, t: FreeRunningAlgorithm(), cli=True),
}


def names(trait: str, exclude: str = "") -> Tuple[str, ...]:
    """The registered names with ``trait`` set (and ``exclude`` not), in
    registry order."""
    return tuple(
        name
        for name, entry in ALGORITHMS.items()
        if getattr(entry, trait) and not (exclude and getattr(entry, exclude))
    )


def build(name: str, params: SyncParams, topology: Topology) -> Algorithm:
    """Build the algorithm registered as ``name`` for ``topology``."""
    try:
        entry = ALGORITHMS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; known: {', '.join(ALGORITHMS)}"
        ) from None
    return entry.build(params, topology)
