"""Time-domain solution of the fractional-order Jeffreys dynamics.

The model is integrated once to isolate the displacement dynamics,

    mu*lambda2 * D^alpha x + mu * x = D^(-gamma) (lambda1 * D^beta tau + tau),

and discretized with Grunwald-Letnikov sums. GL is Lubich's convolution
quadrature with delta(zeta) = 1 - zeta: the GL weights of order a are the
power series of (1 - zeta)^a, so the sampled response x is the power series
of G(delta(zeta)/h) * T(zeta), T(zeta) = sum_k tau_k zeta^k. G at the
nodes comes from ``model._transfer``, the model's one formula for G, given
``_power``'s s^p from each block's ln|s| and arg s.
Both x and tau carry zero history before t = 0.

The first n coefficients come from the trapezoidal rule on the circle
|zeta| = rho (Lubich, Numer. Math. 52, 1988; Hairer, Lubich & Schlichte,
SIAM J. Sci. Stat. Comput. 6, 1985), one rfft/irfft pair of size L:

    x_k = rho^(-k) * irfft(rfft(rho^k * tau_k, L) * G(s_l), L)_k,   k < n,

with s_l = (1 - zeta_l)/h and zeta_l = rho * exp(-2*pi*i*l/L). Coefficient
k + L aliases onto k with weight rho^L, and rounding in the transforms is
amplified by up to rho^(-n). rho^n = eps^(1/5) holds the rounding to about
eps^(4/5); L, the least 2^a 3^b 5^c >= 5n, holds the weight rho^L to eps. The
aliased coefficients lie past the record, where every input sample moves them,
so a larger weight lets later inputs reach x_k: at a weight of eps^(4/5)
(L = 4n) they move it by up to 1.2e-11 of max |x| on random inputs.

A delta input (tau_k = 0 for k > 0) skips the rfft: its spectrum is tau_0 at
every node, which is also what the rfft gives in binary64. The nodes are
formed in blocks and dropped with them, so no call holds the whole contour,
and none keeps anything for the next: ``impulse-study`` solves each of its
orders with its own ``simulate`` call.

The rule holds for every admitted parameter set: with orders in (0, 2),
which ``model._require_order`` enforces, the poles of 1/(1 + lambda2*s^alpha)
have Re s < 0 when alpha > 1 and lie off the principal sheet when
alpha <= 1, so G(delta(zeta)/h) is analytic in |zeta| < 1. Its branch point
zeta = 1 lies outside the circle |zeta| = rho.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft

from .fractional import TimeSeries, _fast_len
from .model import FoJeffreysParams, _transfer

__all__ = [
    "SimulationDivergedError",
    "SimulationResult",
    "classify_late_trend",
    "generate_signal",
    "impulse_final_value",
    "simulate",
    "steady_state_sine_gain",
]

_SIGNAL_KINDS = ("impulse", "step", "slope", "sine")
# Contour nodes evaluated per block, so the temporaries of G stay small.
_NODE_CHUNK = 8192
# classify_late_trend's window, a share of the record, and its trend rate, 1/s.
_TREND_FRACTION = 0.2
_TREND_RATE = 0.01


class SimulationDivergedError(RuntimeError):
    """Raised when the simulated response runs away.

    ``sample_index`` is the first output sample that is not a finite double
    or, under a divergence limit, the first one beyond it.
    """

    def __init__(self, sample_index: int, message: str | None = None):
        self.sample_index = int(sample_index)
        super().__init__(
            message or f"simulation diverged at sample index {sample_index}"
        )


@dataclass(frozen=True)
class SimulationResult:
    """Input/output pair of one simulation run."""

    input: TimeSeries
    output: TimeSeries
    params: FoJeffreysParams

    def __post_init__(self) -> None:
        if len(self.input) != len(self.output) or self.input.step != self.output.step:
            raise ValueError("input and output must share step and length")


def _power(p: float, log_mod: np.ndarray, arg: np.ndarray) -> np.ndarray:
    """s^p from ln|s| and arg s, by real exp, cos and sin."""
    magnitude = np.exp(p * log_mod)
    out = np.empty(len(arg), dtype=complex)
    np.multiply(magnitude, np.cos(p * arg), out=out.real)
    np.multiply(magnitude, np.sin(p * arg), out=out.imag)
    return out


def _input_spectrum(u: np.ndarray, size: int) -> np.ndarray:
    """rfft(u, size); a delta u = (u_0, 0, ..., 0) gives u_0 at every node."""
    if u[1:].any():
        return rfft(u, size)
    return np.full(size // 2 + 1, u[0], dtype=complex)


def _node_blocks(h: float, log_rho: float, size: int) -> Iterator[tuple]:
    """Yield (start, stop, ln|s|, arg s) per block of the contour's nodes.

    s_l = (1 - zeta_l)/h, zeta_l = rho * exp(-i*phi_l) with phi_l = 2*pi*l/size.
    The nodes go in blocks of ``_NODE_CHUNK``; ln s is taken in real
    arithmetic, with |1 - zeta|^2 = (1 - rho)^2 + 4*rho*sin^2(phi/2) free of
    cancellation near phi = 0. The contour holds no model parameter.
    """
    rho = math.exp(log_rho)
    one_minus_rho = -math.expm1(log_rho)
    log_h = math.log(h)
    nodes = size // 2 + 1
    for start in range(0, nodes, _NODE_CHUNK):
        stop = min(start + _NODE_CHUNK, nodes)
        phi = np.arange(start, stop) * (2.0 * math.pi / size)
        half = np.sin(0.5 * phi)
        re = one_minus_rho + 2.0 * rho * half * half
        im = rho * np.sin(phi)
        yield start, stop, 0.5 * np.log(re * re + im * im) - log_h, np.arctan2(im, re)


def generate_signal(
    kind: str,
    duration: float,
    step: float,
    *,
    area: float | None = None,
    amplitude: float | None = None,
    rate: float | None = None,
    frequency: float | None = None,
) -> TimeSeries:
    """Sample an excitation signal on the grid t = 0, step, ...

    ``kind`` selects the shape and the values it requires:

    - ``impulse``: pulse of area ``area`` (first sample area/step)
    - ``step``: constant ``amplitude`` from t = 0
    - ``slope``: ramp ``rate * t``
    - ``sine``: ``amplitude * sin(2*pi*frequency*t)``

    The sample count is floor(duration/step) + 1. At least ten samples per
    record are recommended for simulation use. A description that cannot
    be sampled raises ValueError.
    """
    if kind not in _SIGNAL_KINDS:
        raise ValueError(f"signal kind must be one of {_SIGNAL_KINDS}, got {kind!r}")
    for name, value in (("duration", duration), ("step", step)):
        value = float(value)
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"{name} must be positive, got {value}")
    duration, step = float(duration), float(step)
    if step > duration:
        raise ValueError(f"step {step} exceeds duration {duration}")
    if not math.isfinite(duration / step):
        raise ValueError(f"duration {duration} / step {step} overflows the sample count")
    shape = {"area": area, "amplitude": amplitude, "rate": rate, "frequency": frequency}
    required = {
        "impulse": ("area",),
        "step": ("amplitude",),
        "slope": ("rate",),
        "sine": ("amplitude", "frequency"),
    }[kind]
    for name in required:
        if shape[name] is None or not math.isfinite(float(shape[name])):
            raise ValueError(f"signal kind {kind!r} requires finite {name}")
        shape[name] = float(shape[name])
    if kind == "sine" and shape["frequency"] <= 0.0:
        raise ValueError(f"sine frequency must be positive, got {shape['frequency']}")

    n = int(math.floor(duration / step + 1e-9)) + 1
    t = np.arange(n) * step
    with np.errstate(over="ignore", invalid="ignore"):  # TimeSeries refuses a non-finite sample
        if kind == "impulse":
            samples = np.zeros(n)
            samples[0] = shape["area"] / step
        elif kind == "step":
            samples = np.full(n, shape["amplitude"])
        elif kind == "slope":
            samples = shape["rate"] * t
        else:
            samples = shape["amplitude"] * np.sin(2.0 * math.pi * shape["frequency"] * t)
    return TimeSeries(step=step, samples=samples)


def simulate(
    params: FoJeffreysParams,
    input_series: TimeSeries,
    divergence_limit: float | None = None,
) -> SimulationResult:
    """Integrate the model response to a sampled force input.

    Parameters
    ----------
    params : FoJeffreysParams
        Model parameters (constrained or unconstrained).
    input_series : TimeSeries
        Force samples tau(t).
    divergence_limit : float, optional
        Absolute bound on the output, at least 0.

    Returns
    -------
    SimulationResult
        Input and output sharing the input grid.

    Raises
    ------
    SimulationDivergedError
        At the first output sample that is not a finite double, or else the
        first one beyond ``divergence_limit``.
    ValueError
        If ``divergence_limit`` is NaN or negative.
    """
    if not isinstance(input_series, TimeSeries):
        raise TypeError("simulate expects a TimeSeries input")
    if divergence_limit is not None and not divergence_limit >= 0.0:
        raise ValueError(f"divergence limit must be >= 0, got {divergence_limit}")
    tau = input_series
    h = tau.step
    n = len(tau)

    size = _fast_len(5 * n)
    log_rho = math.log(np.finfo(float).eps) / (5 * n)
    damping = np.exp(np.arange(n) * log_rho)  # rho^k

    # The transforms run on the input scaled to unit peak, so overflow can
    # only arise in the final elementwise product, at the samples it hits.
    scale = float(np.max(np.abs(tau.samples))) or 1.0
    spectrum = _input_spectrum(tau.samples / scale * damping, size)
    for start, stop, log_mod, arg in _node_blocks(h, log_rho, size):
        spectrum[start:stop] *= _transfer(params, lambda p: _power(p, log_mod, arg))
    limit = math.inf if divergence_limit is None else divergence_limit
    with np.errstate(over="ignore", invalid="ignore"):
        x = irfft(spectrum, size)[:n] / damping
        x *= scale
        bad = np.flatnonzero(~np.isfinite(x) | (np.abs(x) > limit))
    if bad.size:
        k = int(bad[0])
        if not math.isfinite(x[k]):
            raise SimulationDivergedError(k)
        raise SimulationDivergedError(
            k, f"output magnitude exceeded {divergence_limit:g} at sample index {k}"
        )

    return SimulationResult(
        input=tau, output=TimeSeries(step=h, samples=x), params=params
    )


def impulse_final_value(params: FoJeffreysParams, area: float) -> float:
    """Late-time limit of the response to an impulse of the given area.

    The integrator order decides the outcome: exactly ``area/mu`` for
    gamma = 1, zero for 0 < gamma < 1, and unbounded growth (returned as
    ``math.inf``) for gamma > 1.
    """
    area = float(area)
    if not math.isfinite(area):
        raise ValueError(f"impulse area must be finite, got {area}")
    if params.gamma == 1.0:
        return area / params.mu
    if params.gamma < 1.0:
        return 0.0
    return math.inf


def steady_state_sine_gain(
    params: FoJeffreysParams,
    frequency: float,
    cycles: int,
    step: float,
) -> tuple[float, float]:
    """Amplitude ratio and phase shift of the simulated steady-state response.

    Simulates ``cycles`` periods of a unit sine input, discards at least the
    first half of the record, and correlates the remaining whole cycles of
    both input and output against sine/cosine references at the excitation
    frequency.

    Returns
    -------
    (magnitude, phase_deg)
        Fundamental amplitude ratio and phase shift in degrees.
    """
    frequency = float(frequency)
    if not math.isfinite(frequency) or frequency <= 0.0:
        raise ValueError(f"frequency must be positive, got {frequency}")
    cycles = int(cycles)
    if cycles < 4:
        raise ValueError(f"at least 4 excitation cycles are required, got {cycles}")
    # Generated first, so the step is checked before it divides anything.
    signal = generate_signal("sine", cycles / frequency, step, amplitude=1.0, frequency=frequency)
    samples_per_cycle = 1.0 / (frequency * signal.step)
    if samples_per_cycle < 100.0 - 1e-9:
        raise ValueError(
            "step too coarse: need at least 100 samples per cycle, got "
            f"{samples_per_cycle:.1f}"
        )
    result = simulate(params, signal)

    window_cycles = cycles // 2
    window = int(round(window_cycles * samples_per_cycle))
    t = result.output.times[-window:]
    ref_sin = np.sin(2.0 * math.pi * frequency * t)
    ref_cos = np.cos(2.0 * math.pi * frequency * t)

    def _fundamental(samples: np.ndarray) -> tuple[float, float]:
        tail = samples[-window:]
        in_phase = 2.0 / window * float(tail @ ref_sin)
        quadrature = 2.0 / window * float(tail @ ref_cos)
        return math.hypot(in_phase, quadrature), math.atan2(quadrature, in_phase)

    amp_in, phase_in = _fundamental(result.input.samples)
    amp_out, phase_out = _fundamental(result.output.samples)
    phase = math.degrees(phase_out - phase_in)
    # Wrap into (-270, 90]: the model's phase lives below zero and may pass -180.
    phase -= 360.0 * round((phase + 90.0) / 360.0)
    return amp_out / amp_in, phase


def classify_late_trend(series: TimeSeries) -> str:
    """Classify the late-time behaviour of a response magnitude.

    Fits a straight line to |x| over the last fifth of the record (at least
    two samples) and compares the slope, normalized by the window mean and
    expressed per second, against 0.01/s. Returns one of ``"decaying"``,
    ``"constant"`` or ``"growing"``; a one-sample record, which has no
    measurable slope, is ``"constant"``.
    """
    n = len(series)
    start = max(0, n - max(2, round(_TREND_FRACTION * n)))
    magnitude = np.abs(series.samples[start:])
    # Scaled exactly, by a power of two, so that neither the mean nor the fit
    # overflows near the top of binary64; the rate does not depend on it.
    magnitude = np.ldexp(magnitude, -np.frexp(magnitude.max())[1])
    scale = float(np.mean(magnitude))
    if n < 2 or scale == 0.0:
        return "constant"
    # Least-squares slope per sample, on the centred index: no time axis to overflow.
    k = np.arange(len(magnitude)) - 0.5 * (len(magnitude) - 1)
    rate = float(k @ magnitude) / float(k @ k) / scale / series.step
    if rate > _TREND_RATE:
        return "growing"
    if rate < -_TREND_RATE:
        return "decaying"
    return "constant"
