"""Fractional-order Jeffreys model of a viscoelastic hydraulic cylinder.

The force-to-displacement transfer function is

    G(s) = (lambda1 * s^beta + 1) / (mu * s^gamma * (lambda2 * s^alpha + 1)),

a four-parameter model once the physical constraints lambda2 > lambda1,
alpha = beta and gamma = 1 are imposed: ``FoJeffreysParams`` defaults beta
to alpha and gamma to 1. The dashpot (lambda1 = lambda2, alpha = beta) and
the integer-order model (alpha = beta = gamma = 1) are points of it. ``_transfer`` is the one place this algebra is written: the
frequency response and ``simulate``'s contour form G through it, each
passing its own power function p -> s^p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["FoJeffreysParams", "freq_response", "validate"]


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite number, got {value}")
    return value


def _require_order(name: str, value: float) -> float:
    # simulate's contour rule relies on every order lying in (0, 2): only then
    # is G((1 - zeta)/h) analytic in the unit disc.
    value = float(value)
    if not math.isfinite(value) or not 0.0 < value < 2.0:
        raise ValueError(f"{name} must lie in the open interval (0, 2), got {value}")
    return value


@dataclass(frozen=True)
class FoJeffreysParams:
    """Parameters of the fractional-order Jeffreys model.

    Attributes
    ----------
    mu : float
        Viscosity-like gain, > 0.
    lambda1 : float
        Relaxation-side constant multiplying s^beta (units s^beta), > 0.
    lambda2 : float
        Retardation-side constant multiplying s^alpha (units s^alpha), > 0.
    alpha : float
        Fractional order of the displacement branch, in (0, 2).
    beta : float
        Fractional order of the force branch, in (0, 2); alpha if not given.
    gamma : float
        Order of the free integrator, in (0, 2). The physical model pins
        gamma = 1; other values are admitted for unconstrained studies.
    """

    mu: float
    lambda1: float
    lambda2: float
    alpha: float
    beta: float | None = None
    gamma: float = 1.0

    def __post_init__(self) -> None:
        # Frozen, so each checked value is stored through object.__setattr__.
        if self.beta is None:
            object.__setattr__(self, "beta", self.alpha)
        for name in ("mu", "lambda1", "lambda2"):
            object.__setattr__(self, name, _require_positive(name, getattr(self, name)))
        for name in ("alpha", "beta", "gamma"):
            object.__setattr__(self, name, _require_order(name, getattr(self, name)))


def validate(params: FoJeffreysParams) -> list[str]:
    """Check the physical parameter constraints.

    The report lists every violated constraint among lambda2 > lambda1,
    alpha = beta and gamma = 1; an empty list means the parameters are
    physically admissible. Studies of other orders simply do not call it:
    every constructible parameter set can be simulated.
    """
    violations = []
    if not params.lambda2 > params.lambda1:
        violations.append(
            f"lambda2 must exceed lambda1 (lambda1={params.lambda1}, "
            f"lambda2={params.lambda2})"
        )
    if params.alpha != params.beta:
        violations.append(
            f"alpha must equal beta (alpha={params.alpha}, beta={params.beta})"
        )
    if params.gamma != 1.0:
        violations.append(f"gamma must equal 1 (gamma={params.gamma})")
    return violations


def _jw_pow(omega: np.ndarray, p: float) -> np.ndarray:
    """(j*omega)^p on the principal branch: omega^p * exp(j*p*pi/2)."""
    half_pi_p = 0.5 * math.pi * p
    return omega**p * complex(math.cos(half_pi_p), math.sin(half_pi_p))


def _transfer(params: FoJeffreysParams, power):
    """G = (lambda1 s^beta + 1) / (mu s^gamma (lambda2 s^alpha + 1)), power(p) = s^p.

    The one place G's algebra lives, with s^alpha reused as s^beta when
    beta = alpha. ``freq_response`` and ``simulate``'s contour each pass their own power.
    """
    s_alpha = power(params.alpha)
    s_beta = s_alpha if params.beta == params.alpha else power(params.beta)
    s_gamma = power(params.gamma)
    return (params.lambda1 * s_beta + 1.0) / (
        params.mu * s_gamma * (params.lambda2 * s_alpha + 1.0)
    )


def freq_response(params: FoJeffreysParams, omega):
    """Complex gain G(j*omega) of the fractional-order Jeffreys model.

    Accepts a positive scalar or array of angular frequencies in rad/s and
    returns the matching complex scalar or array.
    """
    w = np.asarray(omega, dtype=float)
    if w.size and not (w.min() > 0.0 and w.max() < math.inf):  # NaN fails both
        raise ValueError("angular frequency must be finite and positive")
    out = _transfer(params, lambda p: _jw_pow(w, p))
    return complex(out) if w.ndim == 0 else out

