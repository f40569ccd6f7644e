"""Fixture: R001 — numpy RNG sources in a ``sim`` layer.

Draws on ``numpy.random``'s process-global stream and argument-less RNG
constructors (OS entropy) must be flagged, whichever import form reaches
them; seeded constructions stay silent.
"""

import numpy as np
import numpy.random as npr
from numpy.random import default_rng

__all__ = ["noisy_delay", "fresh_streams", "seeded_streams"]


def noisy_delay(scale):
    return scale * np.random.rand() + npr.normal()


def fresh_streams():
    return (
        default_rng(),
        np.random.RandomState(),
        np.random.SeedSequence(),
        npr.PCG64(),
    )


def seeded_streams(seed):
    return (
        default_rng(seed),
        np.random.RandomState(seed),
        np.random.Generator(np.random.PCG64(seed)),
    )
