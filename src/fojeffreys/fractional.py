"""Grunwald-Letnikov fractional differintegration of uniformly sampled signals.

The differintegral operator D^a generalizes differentiation (a > 0), the
identity (a = 0) and integration (a < 0) to real order. On a uniform grid
with step h it is approximated by the sign-alternating binomial sum

    D^a f(t_k)  ~  h^(-a) * sum_{i=0..k} w_i * f(t_{k-i}),

where the weights w_i = (-1)^i * binom(a, i) follow the one-term recursion
``w_0 = 1, w_i = (1 - (a + 1)/i) * w_{i-1}``. Signal history before t = 0
is taken as zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

__all__ = [
    "GlWeightTable",
    "TimeSeries",
    "dirac_differintegral_analytic",
    "gamma_fn",
    "gl_differintegral",
    "gl_weights",
]


def gamma_fn(z: float) -> float:
    """Gamma function for real arguments, via ``math.gamma``.

    Parameters
    ----------
    z : float
        Evaluation point; must not be zero or a negative integer.

    Raises
    ------
    ValueError
        If ``z`` is non-finite or a pole of the gamma function.
    """
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"gamma_fn requires a finite argument, got {z}")
    if z <= 0.0 and z == math.floor(z):
        raise ValueError(f"gamma_fn pole at z={z}")
    return math.gamma(z)


def _read_only(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GlWeightTable:
    """Sign-alternating binomial weights w_0..w_N for one fractional order."""

    order: float
    weights: np.ndarray

    def __post_init__(self) -> None:
        if not math.isfinite(self.order):
            raise ValueError(f"weight table order must be finite, got {self.order}")
        object.__setattr__(self, "weights", _read_only(self.weights))

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real signal starting at t = 0.

    Attributes
    ----------
    step : float
        Sampling interval h in seconds, strictly positive.
    samples : np.ndarray
        Sample values at t = 0, h, 2h, ...; non-empty and finite.
    """

    step: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        step = float(self.step)
        if not math.isfinite(step) or step <= 0.0:
            raise ValueError(f"time series step must be positive, got {self.step}")
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("time series samples must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(samples)):
            raise ValueError("time series samples must all be finite")
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "samples", _read_only(samples))

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def times(self) -> np.ndarray:
        """Sample instants 0, h, 2h, ..."""
        return np.arange(len(self.samples)) * self.step

    @property
    def duration(self) -> float:
        """Time of the last sample."""
        return (len(self.samples) - 1) * self.step


def gl_weights(alpha: float, n: int) -> GlWeightTable:
    """Weights w_0..w_n of the order-``alpha`` differintegral.

    Computed by the recursion ``w_0 = 1, w_i = (1 - (alpha + 1)/i) * w_{i-1}``,
    which agrees with the direct evaluation ``(-1)^i * binom(alpha, i)`` to
    round-off. Negative ``alpha`` yields integration weights (all ones for
    alpha = -1).
    """
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"gl_weights requires a finite order, got {alpha}")
    n = int(n)
    if n < 0:
        raise ValueError(f"gl_weights requires n >= 0, got {n}")
    weights = np.empty(n + 1)
    weights[0] = 1.0
    if n > 0:
        i = np.arange(1, n + 1, dtype=float)
        weights[1:] = np.cumprod(1.0 - (alpha + 1.0) / i)
    return GlWeightTable(order=alpha, weights=weights)


def _causal_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First ``len(a)`` samples of the linear convolution ``a * b``.

    Computed by real FFTs padded past ``2*len(a) - 1``, so no circular
    wrap-around reaches the kept samples.
    """
    n = len(a)
    size = next_fast_len(2 * n - 1, real=True)
    return irfft(rfft(a, size) * rfft(b[:n], size), size)[:n]


def gl_differintegral(f: TimeSeries, alpha: float) -> TimeSeries:
    """Order-``alpha`` differintegral of a sampled signal.

    Output sample k is ``h^(-alpha) * sum_{i=0..k} w_i * f[k-i]`` with zero
    history before t = 0; the result shares step and length with the input.
    The full-history sum is one FFT convolution, O(n log n).
    ``alpha = 0`` returns the input unchanged.

    Parameters
    ----------
    f : TimeSeries
        Input signal.
    alpha : float
        Differintegration order (negative values integrate).
    """
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"gl_differintegral requires a finite order, got {alpha}")
    if not isinstance(f, TimeSeries):
        raise TypeError("gl_differintegral expects a TimeSeries input")
    if alpha == 0.0:
        return f
    weights = gl_weights(alpha, len(f) - 1).weights
    out = _causal_convolve(f.samples, weights) * f.step ** (-alpha)
    return TimeSeries(step=f.step, samples=out)


def dirac_differintegral_analytic(eta: float, t: float) -> float:
    """Closed-form order-``eta`` differintegral of the unit Dirac impulse.

    Evaluates ``t^(-eta-1) / Gamma(-eta)`` for t > 0. For eta = -1 (plain
    integration) the value is identically one; for -1 < eta < 0 it decays to
    zero and for eta < -1 it grows without bound as t increases.

    Raises
    ------
    ValueError
        If ``t <= 0`` (domain error) or ``eta`` is a non-negative integer,
        where Gamma(-eta) has a pole.
    """
    eta = float(eta)
    t = float(t)
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta}")
    if not math.isfinite(t) or t <= 0.0:
        raise ValueError(f"dirac differintegral requires t > 0, got {t}")
    if eta >= 0.0 and eta == math.floor(eta):
        raise ValueError(f"Gamma(-eta) pole at eta={eta}")
    if eta == -1.0:
        return 1.0
    return t ** (-eta - 1.0) / gamma_fn(-eta)
