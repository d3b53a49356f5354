"""Fractional-order Jeffreys model of a viscoelastic hydraulic cylinder.

The force-to-displacement transfer function is

    G(s) = (lambda1 * s^beta + 1) / (mu * s^gamma * (lambda2 * s^alpha + 1)),

a four-parameter model once the physical constraints lambda2 > lambda1,
alpha = beta and gamma = 1 are imposed. Classical reductions (dashpot,
Zener standard linear solid, integer-order Jeffreys) are provided for
comparison. ``_transfer`` is the one place this algebra is written: the
frequency response, ``simulate``'s contour and the dashpot and integer
Jeffreys reductions all form G through it, from their own powers s^p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DashpotParams",
    "FoJeffreysParams",
    "IntegerJeffreysParams",
    "ZenerParams",
    "classical_freq_response",
    "freq_response",
    "reduces_to_dashpot",
    "validate",
]


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


def _set_checked(obj, check, *names: str) -> None:
    """Replace each named field of a frozen dataclass by ``check(name, value)``."""
    for name in names:
        object.__setattr__(obj, name, check(name, getattr(obj, name)))


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
        Fractional order of the force branch, in (0, 2).
    gamma : float
        Order of the free integrator, in (0, 2). The physical model pins
        gamma = 1; other values are admitted for unconstrained studies.
    """

    mu: float
    lambda1: float
    lambda2: float
    alpha: float
    beta: float
    gamma: float = 1.0

    def __post_init__(self) -> None:
        _set_checked(self, _require_positive, "mu", "lambda1", "lambda2")
        _set_checked(self, _require_order, "alpha", "beta", "gamma")


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


def _transfer(mu, lambda1, lambda2, z_alpha, z_beta, z_gamma):
    """G = (lambda1 z_beta + 1) / (mu z_gamma (lambda2 z_alpha + 1)) from z_p = s^p.

    The one place G's algebra lives; each caller evaluates the powers its own way.
    """
    return (lambda1 * z_beta + 1.0) / (mu * z_gamma * (lambda2 * z_alpha + 1.0))


def _check_omega(omega) -> tuple[np.ndarray, bool]:
    w = np.asarray(omega, dtype=float)
    if w.size and not (w.min() > 0.0 and w.max() < math.inf):  # NaN fails both
        raise ValueError("angular frequency must be finite and positive")
    return w, w.ndim == 0


def freq_response(params: FoJeffreysParams, omega):
    """Complex gain G(j*omega) of the fractional-order Jeffreys model.

    Accepts a positive scalar or array of angular frequencies in rad/s and
    returns the matching complex scalar or array.
    """
    w, scalar = _check_omega(omega)
    z_alpha = _jw_pow(w, params.alpha)
    z_beta = z_alpha if params.beta == params.alpha else _jw_pow(w, params.beta)
    out = _transfer(
        params.mu, params.lambda1, params.lambda2, z_alpha, z_beta, _jw_pow(w, params.gamma)
    )
    return complex(out) if scalar else out


def reduces_to_dashpot(params: FoJeffreysParams) -> bool:
    """True when the numerator and denominator brackets cancel exactly.

    With lambda1 = lambda2 and alpha = beta the model collapses to
    ``1 / (mu * s^gamma)``, the plain viscous dashpot when gamma = 1.
    """
    return params.lambda1 == params.lambda2 and params.alpha == params.beta


@dataclass(frozen=True)
class DashpotParams:
    """Ideal linear dashpot: displacement = force / (viscosity * s)."""

    viscosity: float

    def __post_init__(self) -> None:
        _set_checked(self, _require_positive, "viscosity")


@dataclass(frozen=True)
class ZenerParams:
    """Standard linear solid (Zener model), strain/stress form.

    ``retardation_rate`` and ``relaxation_rate`` are the reciprocals of the
    retardation and relaxation times. Dissipative materials require
    relaxation_rate >= retardation_rate; equality degenerates to a purely
    elastic response 1/modulus.
    """

    modulus: float
    retardation_rate: float
    relaxation_rate: float

    def __post_init__(self) -> None:
        _set_checked(self, _require_positive, "modulus", "retardation_rate", "relaxation_rate")
        if self.relaxation_rate < self.retardation_rate:
            raise ValueError(
                "relaxation_rate must be >= retardation_rate "
                f"(got {self.relaxation_rate} < {self.retardation_rate})"
            )


@dataclass(frozen=True)
class IntegerJeffreysParams:
    """Integer-order Jeffreys model: Kelvin-Voigt element in series with a dashpot.

    ``stiffness`` and ``parallel_viscosity`` form the Kelvin-Voigt branch;
    ``series_viscosity`` is the free dashpot. ``parallel_viscosity = 0``
    degenerates to the Maxwell model, and the rigid-branch limit
    (stiffness -> infinity with parallel_viscosity = 0) recovers the plain
    dashpot.
    """

    stiffness: float
    parallel_viscosity: float
    series_viscosity: float

    def __post_init__(self) -> None:
        _set_checked(self, _require_positive, "stiffness")
        pv = float(self.parallel_viscosity)
        if not math.isfinite(pv) or pv < 0.0:
            raise ValueError(f"parallel_viscosity must be finite and >= 0, got {pv}")
        object.__setattr__(self, "parallel_viscosity", pv)
        _set_checked(self, _require_positive, "series_viscosity")

    @property
    def relaxation_time(self) -> float:
        return (self.parallel_viscosity + self.series_viscosity) / self.stiffness

    @property
    def retardation_time(self) -> float:
        return self.parallel_viscosity / self.stiffness


def classical_freq_response(variant, omega):
    """Complex gain of a classical reduction at angular frequency ``omega``.

    Dashpot: ``1 / (viscosity * j*omega)``, G with lambda1 = lambda2 = 0.
    Zener (strain/stress): ``(j*omega/relaxation_rate + 1) /
    (modulus * (j*omega/retardation_rate + 1))``.
    Integer Jeffreys (displacement/force): G at orders 1 with mu =
    series_viscosity, lambda1 = relaxation_time, lambda2 = retardation_time.
    """
    w, scalar = _check_omega(omega)
    jw = 1j * w
    if isinstance(variant, DashpotParams):
        out = _transfer(variant.viscosity, 0.0, 0.0, jw, jw, jw)
    elif isinstance(variant, ZenerParams):
        out = (jw / variant.relaxation_rate + 1.0) / (
            variant.modulus * (jw / variant.retardation_rate + 1.0)
        )
    elif isinstance(variant, IntegerJeffreysParams):
        out = _transfer(
            variant.series_viscosity, variant.relaxation_time, variant.retardation_time,
            jw, jw, jw,
        )
    else:
        raise TypeError(f"unknown classical variant {type(variant).__name__}")
    return complex(out) if scalar else out
