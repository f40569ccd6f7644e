"""Fixture: numpy noise helpers outside the replay layers."""

import numpy as np

__all__ = ["jitter", "wobble"]


def jitter(seed):
    return float(np.random.default_rng(seed).normal())


def wobble():
    return float(np.random.normal())
