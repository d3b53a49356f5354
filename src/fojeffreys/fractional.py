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
import sys
from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft

__all__ = [
    "TimeSeries",
    "dirac_differintegral_analytic",
    "gamma_fn",
    "gl_differintegral",
    "gl_weights",
]


def gamma_fn(z: float) -> float:
    """Gamma function for real arguments, via ``math.gamma``.

    Where Gamma(z) overflows, for z > 171.62... or 0 < |z| < 5.6e-309, it
    returns the infinity of its sign; below z = -171 it underflows, to a
    subnormal and then to a zero of its sign.

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
    try:
        return math.gamma(z)
    except OverflowError:  # only near z = 0, where Gamma(z) ~ 1/z, can it be negative
        return math.copysign(math.inf, z)


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
        samples = np.array(self.samples, dtype=float)  # a copy: callers keep theirs
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("time series samples must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(samples)):
            raise ValueError("time series samples must all be finite")
        samples.flags.writeable = False
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "samples", samples)

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


def gl_weights(alpha: float, n: int) -> np.ndarray:
    """Weights w_0..w_n of the order-``alpha`` differintegral, read-only.

    Computed by the recursion ``w_0 = 1, w_i = (1 - (alpha + 1)/i) * w_{i-1}``,
    which agrees with the direct evaluation ``(-1)^i * binom(alpha, i)`` to
    round-off. Negative ``alpha`` yields integration weights (all ones for
    alpha = -1).

    Raises
    ------
    ValueError
        If ``alpha`` is non-finite or ``n`` is negative.
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
    weights.flags.writeable = False
    return weights


def _fast_len(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n, as ``scipy.fft.next_fast_len(n, real=True)``."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # The least power-of-two multiple of p35 that reaches n.
            candidate = p35 << ((n - 1) // p35).bit_length()
            if candidate < best:
                best = candidate
            p35 *= 3
        p5 *= 5
    return best


def _causal_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First ``len(a)`` samples of the linear convolution ``a * b``.

    Computed by real FFTs padded past ``2*len(a) - 1``, so no circular
    wrap-around reaches the kept samples.
    """
    n = len(a)
    size = _fast_len(2 * n - 1)
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
    if not isinstance(f, TimeSeries):
        raise TypeError("gl_differintegral expects a TimeSeries input")
    if alpha == 0.0:
        return f
    weights = gl_weights(alpha, len(f) - 1)  # raises for a non-finite order
    out = _causal_convolve(f.samples, weights) * f.step ** (-alpha)
    return TimeSeries(step=f.step, samples=out)


def dirac_differintegral_analytic(eta: float, t: float) -> float:
    """Closed-form order-``eta`` differintegral of the unit Dirac impulse.

    Evaluates ``t^(-eta-1) / Gamma(-eta)`` for t > 0. For eta = -1 (plain
    integration) the value is identically one; for -1 < eta < 0 it decays to
    zero and for eta < -1 it grows without bound as t increases. Where
    Gamma(-eta) or t^(-eta-1) is not a normal double, the value is taken
    through logarithms, exp((-eta-1)*ln t - lgamma(-eta)), with Gamma(-eta)'s
    sign: the infinity of that sign where it overflows. Above -eta ~ 2.5e305,
    where lgamma itself overflows, Stirling's series gives ln Gamma(-eta).

    Raises
    ------
    ValueError
        If ``t <= 0`` (domain error), or if ``eta`` is non-finite or a
        non-negative integer, where ``gamma_fn`` rejects -eta as a pole.
    """
    eta, t = float(eta), float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise ValueError(f"dirac differintegral requires t > 0, got {t}")
    gamma = gamma_fn(-eta)  # raises at a pole before the power can overflow there
    with np.errstate(over="ignore", under="ignore"):  # past binary64: inf, or 0
        power = np.float64(t) ** (-eta - 1.0)
        if all(sys.float_info.min <= abs(v) < math.inf for v in (power, gamma)):
            return float(power / gamma)
        try:
            log_value = (-eta - 1.0) * math.log(t) - math.lgamma(-eta)
        except OverflowError:  # -eta > ~2.5e305: Stirling's ln Gamma(z), z = -eta, Gamma(z) > 0
            z, log_t = np.float64(-eta), math.log(t)
            log_value = z * (log_t - np.log(z) + 1.0) - log_t + 0.5 * np.log(z / (2.0 * math.pi))
        return math.copysign(float(np.exp(log_value)), gamma)
