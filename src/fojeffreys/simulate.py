"""Time-domain solution of the fractional-order Jeffreys dynamics.

The model is integrated once to isolate the displacement dynamics,

    mu*lambda2 * D^alpha x + mu * x = D^(-gamma) (lambda1 * D^beta tau + tau),

and discretized with Grunwald-Letnikov sums. GL is Lubich's convolution
quadrature with delta(zeta) = 1 - zeta: the GL weights of order a are the
power series of (1 - zeta)^a, so the sampled response x is the power series
of G(delta(zeta)/h) * T(zeta), T(zeta) = sum_k tau_k zeta^k, where G at
complex s comes from ``model._transfer``, the model's one formula for G.
Both x and tau carry zero history before t = 0.

The first n coefficients come from the trapezoidal rule on the circle
|zeta| = rho (Lubich, Numer. Math. 52, 1988; Hairer, Lubich & Schlichte,
SIAM J. Sci. Stat. Comput. 6, 1985), one rfft/irfft pair of size L:

    x_k = rho^(-k) * irfft(rfft(rho^k * tau_k, L) * G(s_l), L)_k,   k < n,

with s_l = (1 - zeta_l)/h and zeta_l = rho * exp(-2*pi*i*l/L). Coefficient
k + L aliases onto k with weight rho^L, and rounding in the transforms is
amplified by up to rho^(-n). L = next_fast_len(4n) and rho^n = eps^(1/5)
balance the two at about eps^(4/5).

The rule holds for every admitted parameter set: with orders in (0, 2),
which ``model._require_order`` enforces, the poles of 1/(1 + lambda2*s^alpha)
have Re s < 0 when alpha > 1 and lie off the principal sheet when
alpha <= 1, so G(delta(zeta)/h) is analytic in |zeta| < 1. Its branch point
zeta = 1 lies outside the circle |zeta| = rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .fractional import TimeSeries
from .model import FoJeffreysParams, _transfer

__all__ = [
    "SignalSpec",
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
class SignalSpec:
    """Description of a sampled excitation signal.

    ``kind`` selects the shape:

    - ``impulse``: unit-area pulse of area ``area`` (first sample area/step)
    - ``step``: constant ``amplitude`` from t = 0
    - ``slope``: ramp ``rate * t``
    - ``sine``: ``amplitude * sin(2*pi*frequency*t)``

    ``duration`` and ``step`` fix the grid t = 0, h, ..., so the sample
    count is floor(duration/step) + 1. At least ten samples per record are
    recommended for simulation use.
    """

    kind: str
    duration: float
    step: float
    area: float | None = None
    amplitude: float | None = None
    rate: float | None = None
    frequency: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _SIGNAL_KINDS:
            raise ValueError(
                f"signal kind must be one of {_SIGNAL_KINDS}, got {self.kind!r}"
            )
        for name in ("duration", "step"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, value)
        if self.step > self.duration:
            raise ValueError(
                f"step {self.step} exceeds duration {self.duration}"
            )
        required = {
            "impulse": ("area",),
            "step": ("amplitude",),
            "slope": ("rate",),
            "sine": ("amplitude", "frequency"),
        }[self.kind]
        for name in required:
            value = getattr(self, name)
            if value is None or not math.isfinite(float(value)):
                raise ValueError(f"signal kind {self.kind!r} requires finite {name}")
            object.__setattr__(self, name, float(value))
        if self.kind == "sine" and self.frequency <= 0.0:
            raise ValueError(f"sine frequency must be positive, got {self.frequency}")

    @property
    def n_samples(self) -> int:
        return int(math.floor(self.duration / self.step + 1e-9)) + 1


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


def _times_transfer(
    spectrum: np.ndarray, params: FoJeffreysParams, h: float, log_rho: float, size: int
) -> None:
    """Multiply ``spectrum[l]`` in place by G(s_l), s_l = (1 - zeta_l)/h.

    zeta_l = rho * exp(-i*phi_l) with phi_l = 2*pi*l/size. The nodes go in
    blocks of ``_NODE_CHUNK``; ln s is taken in real arithmetic, with
    |1 - zeta|^2 = (1 - rho)^2 + 4*rho*sin^2(phi/2) free of cancellation
    near phi = 0.
    """
    rho = math.exp(log_rho)
    one_minus_rho = -math.expm1(log_rho)
    log_h = math.log(h)
    for start in range(0, len(spectrum), _NODE_CHUNK):
        stop = min(start + _NODE_CHUNK, len(spectrum))
        phi = np.arange(start, stop) * (2.0 * math.pi / size)
        half = np.sin(0.5 * phi)
        re = one_minus_rho + 2.0 * rho * half * half
        im = rho * np.sin(phi)
        log_mod = 0.5 * np.log(re * re + im * im) - log_h
        arg = np.arctan2(im, re)
        s_alpha = _power(params.alpha, log_mod, arg)
        s_beta = s_alpha if params.beta == params.alpha else _power(params.beta, log_mod, arg)
        s_gamma = _power(params.gamma, log_mod, arg)
        spectrum[start:stop] *= _transfer(
            params.mu, params.lambda1, params.lambda2, s_alpha, s_beta, s_gamma
        )


def generate_signal(spec: SignalSpec) -> TimeSeries:
    """Sample the excitation described by ``spec`` on its grid."""
    n = spec.n_samples
    t = np.arange(n) * spec.step
    if spec.kind == "impulse":
        samples = np.zeros(n)
        samples[0] = spec.area / spec.step
    elif spec.kind == "step":
        samples = np.full(n, spec.amplitude)
    elif spec.kind == "slope":
        samples = spec.rate * t
    else:
        samples = spec.amplitude * np.sin(2.0 * math.pi * spec.frequency * t)
    return TimeSeries(step=spec.step, samples=samples)


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
        Absolute bound on the output.

    Returns
    -------
    SimulationResult
        Input and output sharing the input grid.

    Raises
    ------
    SimulationDivergedError
        At the first output sample that is not a finite double, or else the
        first one beyond ``divergence_limit``.
    """
    if not isinstance(input_series, TimeSeries):
        raise TypeError("simulate expects a TimeSeries input")
    tau = input_series
    h = tau.step
    n = len(tau)

    size = next_fast_len(4 * n, real=True)
    log_rho = math.log(np.finfo(float).eps) / (5 * n)
    damping = np.exp(np.arange(n) * log_rho)  # rho^k

    # The transforms run on the input scaled to unit peak, so overflow can
    # only arise in the final elementwise product, at the samples it hits.
    scale = float(np.max(np.abs(tau.samples))) or 1.0
    spectrum = rfft(tau.samples / scale * damping, size)
    _times_transfer(spectrum, params, h, log_rho, size)
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
    step = float(step)
    samples_per_cycle = 1.0 / (frequency * step)
    if samples_per_cycle < 100.0 - 1e-9:
        raise ValueError(
            "step too coarse: need at least 100 samples per cycle, got "
            f"{samples_per_cycle:.1f}"
        )

    spec = SignalSpec(
        kind="sine",
        duration=cycles / frequency,
        step=step,
        amplitude=1.0,
        frequency=frequency,
    )
    result = simulate(params, generate_signal(spec))

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


def classify_late_trend(
    series: TimeSeries,
    fraction: float = 0.2,
    rate_threshold: float = 0.01,
) -> str:
    """Classify the late-time behaviour of a response magnitude.

    Fits a straight line to |x| over the trailing ``fraction`` of the record
    and compares the slope, normalized by the window mean and expressed per
    second, against ``rate_threshold``. Returns one of ``"decaying"``,
    ``"constant"`` or ``"growing"``.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    n = len(series)
    start = max(0, n - max(2, int(round(fraction * n))))
    t = series.times[start:]
    magnitude = np.abs(series.samples[start:])
    scale = float(np.mean(magnitude))
    if scale == 0.0:
        return "constant"
    slope = float(np.polyfit(t, magnitude, 1)[0])
    rate = slope / scale
    if rate > rate_threshold:
        return "growing"
    if rate < -rate_threshold:
        return "decaying"
    return "constant"
