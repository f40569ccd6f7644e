"""Fixture: R006 — ``sim`` callers of numpy streams in another module.

``perturbed`` reaches a seeded ``default_rng(seed)``, which replays and
must stay silent; ``drifted`` reaches the global stream and is flagged.
"""

from numpy_rng.analysis.noise import jitter, wobble

__all__ = ["perturbed", "drifted"]


def perturbed(values, seed):
    return [value + jitter(seed) for value in values]


def drifted(values):
    return [value + wobble() for value in values]
