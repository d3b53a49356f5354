"""Fractional-order Jeffreys model of a viscoelastic hydraulic cylinder.

Numerical toolkit covering Grunwald-Letnikov fractional differintegration,
frequency-response evaluation, time-domain simulation and least-squares
identification of the model parameters from measured frequency-response
data.
"""

from .fractional import (
    TimeSeries,
    dirac_differintegral_analytic,
    gl_differintegral,
    gl_weights,
)
from .identify import (
    FitNonConvergenceError,
    FitResult,
    FrfDataset,
    ResidualReport,
    fit,
    residual_report,
)
from .model import FoJeffreysParams, freq_response, validate
from .simulate import (
    SimulationDivergedError,
    SimulationResult,
    classify_late_trend,
    generate_signal,
    impulse_final_value,
    simulate,
    steady_state_sine_gain,
)

__version__ = "0.1.0"

__all__ = [
    "FitNonConvergenceError",
    "FitResult",
    "FoJeffreysParams",
    "FrfDataset",
    "ResidualReport",
    "SimulationDivergedError",
    "SimulationResult",
    "TimeSeries",
    "classify_late_trend",
    "dirac_differintegral_analytic",
    "fit",
    "freq_response",
    "generate_signal",
    "gl_differintegral",
    "gl_weights",
    "impulse_final_value",
    "residual_report",
    "simulate",
    "steady_state_sine_gain",
    "validate",
]
