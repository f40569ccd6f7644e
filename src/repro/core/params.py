"""Algorithm parameters for A^opt (Sections 3–5 of the paper).

The model and algorithm are governed by:

* ``ε`` — the true maximum hardware drift, ``0 < ε < 1``;
* ``T`` — the true delay uncertainty (message delays lie in ``[0, T]``);
* ``ε̂ ≥ ε`` and ``T̂ ≥ T`` — the upper bounds known to the algorithm;
* ``H0`` — nodes send whenever their estimate ``L^max`` reaches an integer
  multiple of ``H0`` (Algorithm 1), so the amortized message frequency is
  ``Θ(1/H0)``;
* ``μ`` — the logical clock may run at most ``1 + μ`` times faster than
  the hardware clock (Algorithm 3);
* ``κ`` — the skew quantum of the rate rule; must satisfy Inequality (4):
  ``κ ≥ 2((1 + ε)(1 + μ)·T + H̄0)`` with ``H̄0 = (2ε + μ)·H0`` (Eq. (5)).

The base of the local-skew logarithm is ``σ ≥ 2``, the largest integer
with ``μ ≥ 7σε/(1 − ε)`` (Inequality (6)); hence choosing
``μ ≈ 14ε/(1 − ε)`` suffices for ``σ = 2`` and larger ``μ`` buys a larger
base and thus a smaller local skew.

:class:`SyncParams` bundles these, validates the inequalities, and derives
the closed-form bound ingredients used throughout the reproduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

__all__ = ["SyncParams"]


@dataclass(frozen=True)
class SyncParams:
    """Validated parameter set for A^opt.

    Use :meth:`recommended` to derive ``μ``, ``H0`` and ``κ`` from the
    drift and delay bounds following the paper's guidance; the raw
    constructor only enforces basic sanity so that tests can explore
    deliberately non-compliant corners.
    """

    epsilon: float
    delay_bound: float
    epsilon_hat: float
    delay_bound_hat: float
    h0: float
    mu: float
    kappa: float

    def __post_init__(self):
        if not (0 < self.epsilon < 1):
            raise ConfigurationError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not (self.epsilon <= self.epsilon_hat < 1):
            raise ConfigurationError(
                f"epsilon_hat must satisfy epsilon <= epsilon_hat < 1, got "
                f"epsilon={self.epsilon}, epsilon_hat={self.epsilon_hat}"
            )
        if self.delay_bound < 0:
            raise ConfigurationError(f"delay bound T must be >= 0, got {self.delay_bound}")
        if self.delay_bound_hat < self.delay_bound:
            raise ConfigurationError(
                f"delay_bound_hat {self.delay_bound_hat} below true bound "
                f"{self.delay_bound}"
            )
        if self.h0 <= 0:
            raise ConfigurationError(f"H0 must be positive, got {self.h0}")
        if self.mu <= 0:
            raise ConfigurationError(f"mu must be positive, got {self.mu}")
        if self.kappa <= 0:
            raise ConfigurationError(f"kappa must be positive, got {self.kappa}")

    # -- factories -----------------------------------------------------------

    @classmethod
    def recommended(
        cls,
        epsilon: float,
        delay_bound: float,
        epsilon_hat: Optional[float] = None,
        delay_bound_hat: Optional[float] = None,
        mu: Optional[float] = None,
        h0: Optional[float] = None,
        kappa: Optional[float] = None,
        sigma_target: int = 2,
    ) -> "SyncParams":
        """Derive a compliant parameter set from the model bounds.

        Defaults follow the paper: exact knowledge (``ε̂ = ε``, ``T̂ = T``),
        ``μ = 7·σ_target·ε̂/(1 − ε̂)`` (the smallest value satisfying
        Inequality (6) for the requested base), ``H0 = T̂/μ`` (Section 6.1's
        suggestion, giving amortized message frequency ``Θ(ε̂/T̂)``), and
        ``κ`` set to its Inequality (4) minimum computed from the *known*
        bounds, which is conservative for the true ones.
        """
        epsilon_hat = epsilon if epsilon_hat is None else epsilon_hat
        delay_bound_hat = delay_bound if delay_bound_hat is None else delay_bound_hat
        # The derivations below divide by 1 − ε̂ and by μ: validate both
        # first, so a degenerate ε̂ is a ConfigurationError, not a
        # ZeroDivisionError.
        if not (0 < epsilon < 1):
            raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
        if not (0 < epsilon_hat < 1):
            raise ConfigurationError(
                f"epsilon_hat must be in (0, 1), got {epsilon_hat}"
            )
        if sigma_target < 2:
            raise ConfigurationError(f"sigma_target must be >= 2, got {sigma_target}")
        if mu is None:
            mu = 7 * sigma_target * epsilon_hat / (1 - epsilon_hat)
        elif mu <= 0:
            raise ConfigurationError(f"mu must be positive, got {mu}")
        if h0 is None:
            if delay_bound_hat <= 0:
                raise ConfigurationError(
                    "default H0 = T_hat/mu requires a positive delay_bound_hat; "
                    "pass h0 explicitly"
                )
            h0 = delay_bound_hat / mu
        if kappa is None:
            h_bar = (2 * epsilon_hat + mu) * h0
            kappa = 2 * ((1 + epsilon_hat) * (1 + mu) * delay_bound_hat + h_bar)
        params = cls(
            epsilon=epsilon,
            delay_bound=delay_bound,
            epsilon_hat=epsilon_hat,
            delay_bound_hat=delay_bound_hat,
            h0=h0,
            mu=mu,
            kappa=kappa,
        )
        params.check_inequalities()
        return params

    # -- derived quantities ------------------------------------------------------

    @property
    def h_bar_0(self) -> float:
        """``H̄0 = (2ε + μ)·H0`` (Equation (5), true drift)."""
        return (2 * self.epsilon + self.mu) * self.h0

    @property
    def kappa_minimum(self) -> float:
        """The Inequality (4) lower bound on κ (true model values)."""
        return 2 * ((1 + self.epsilon) * (1 + self.mu) * self.delay_bound + self.h_bar_0)

    @property
    def sigma(self) -> int:
        """The base σ ≥ 2: largest integer with ``μ ≥ 7σε/(1 − ε)``.

        Raises :class:`ConfigurationError` when even σ = 2 is infeasible
        (μ too small relative to the drift), since then Theorem 5.10 does
        not apply.
        """
        sigma = math.floor(self.mu * (1 - self.epsilon) / (7 * self.epsilon) + 1e-9)
        if sigma < 2:
            raise ConfigurationError(
                f"mu={self.mu} too small for sigma >= 2 at epsilon={self.epsilon}; "
                f"Inequality (6) requires mu >= {14 * self.epsilon / (1 - self.epsilon)}"
            )
        return sigma

    @property
    def alpha(self) -> float:
        """Minimum logical clock rate ``α = 1 − ε`` (Corollary 5.3)."""
        return 1 - self.epsilon

    @property
    def beta(self) -> float:
        """Maximum logical clock rate ``β = (1 + ε)(1 + μ)`` (Corollary 5.3)."""
        return (1 + self.epsilon) * (1 + self.mu)

    def check_inequalities(self) -> None:
        """Validate Inequalities (4) and (6) against the true model values."""
        if self.kappa < self.kappa_minimum - 1e-12:
            raise ConfigurationError(
                f"kappa={self.kappa} violates Inequality (4): needs >= "
                f"{self.kappa_minimum}"
            )
        _ = self.sigma  # raises if Inequality (6) fails for sigma = 2

    def is_compliant(self) -> bool:
        """``True`` iff Inequalities (4) and (6) hold (no exception)."""
        try:
            self.check_inequalities()
        except ConfigurationError:
            return False
        return True

    def with_overrides(self, **changes) -> "SyncParams":
        """A copy with the given fields replaced (no inequality re-check)."""
        fields = {
            "epsilon": self.epsilon,
            "delay_bound": self.delay_bound,
            "epsilon_hat": self.epsilon_hat,
            "delay_bound_hat": self.delay_bound_hat,
            "h0": self.h0,
            "mu": self.mu,
            "kappa": self.kappa,
        }
        fields.update(changes)
        return SyncParams(**fields)
