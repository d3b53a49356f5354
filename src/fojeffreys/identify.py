"""Least-squares identification of Jeffreys-model parameters from FRF data.

One residual vector r = [dB residuals, degree residuals] compares model and
data, with both phase curves continuous across the sweep (the data's by
np.unwrap, the model's by its closed-form branch) before differencing. The
objective is ||r||^2 (dB^2 and deg^2 with equal weight), and the residual
report tabulates r point by point. mu only shifts the dB residuals, so the fit
projects it out (Golub & Pereyra 1973) and runs MINPACK's Levenberg-Marquardt
lmder (Moré 1978) through leastsq, with residual and Jacobian from one ln G per
theta = [log lambda2, logit(lambda1 / lambda2), logit(alpha / 2)] (FO only the
last), where 0 < lambda1 < lambda2 and 0 < alpha < 2 hold by construction.
``fit`` takes two choices: the model class and an optional initial guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .model import FoJeffreysParams, freq_response, validate

__all__ = [
    "FitNonConvergenceError",
    "FitResult",
    "FrfDataset",
    "ResidualReport",
    "fit",
    "residual_report",
]

# Clipping every coordinate makes the map from theta to parameters total: a
# log within +-300 keeps freq_response finite for 1e-6 <= omega <= 1e6 rad/s,
# and logits within +-30 keep the sigmoid strictly inside (0, 1).
_LOG_CLIP = 300.0
_LOGIT_CLIP = 30.0
_TOLERANCE = 1.0e-12  # relative; on the objective, the step and the gradient
_LM_SUCCESS = (1, 2, 3, 4)  # MINPACK's ier when a tolerance was met
_MAX_EVALUATIONS = 5000  # residual evaluations per start; the Jacobian costs none
# d(20 log10|G|) / d Re(ln G) and d(degrees arg G) / d Im(ln G).
_DB_PER_NEPER = 20.0 / math.log(10.0)
_DEG_PER_RAD = 180.0 / math.pi
# The free theta coordinates of each model class: FO also estimates alpha, IO pins it to 1.
_MODEL_CLASSES = {"FO": 3, "IO": 2}


class FitNonConvergenceError(RuntimeError):
    """Raised when the returned start did not converge; carries that incumbent."""

    def __init__(self, result: "FitResult"):
        self.result = result
        super().__init__(
            "the lowest-cost start met no tolerance within its evaluation budget "
            f"(objective {result.objective:.6g})"
        )


@dataclass(frozen=True)
class FrfDataset:
    """Measured or synthetic frequency-response points.

    Attributes
    ----------
    frequencies_hz : np.ndarray
        Strictly increasing positive frequencies, at least four points.
    gains : np.ndarray
        Complex gains, finite and non-zero.
    """

    frequencies_hz: np.ndarray
    gains: np.ndarray

    def __post_init__(self) -> None:
        freqs = np.asarray(self.frequencies_hz, dtype=float)
        gains = np.asarray(self.gains, dtype=complex)
        if freqs.ndim != 1 or gains.shape != freqs.shape:
            raise ValueError("frequencies and gains must be matching 1-d arrays")
        if freqs.size < 4:
            raise ValueError(f"at least 4 FRF points are required, got {freqs.size}")
        if not np.all(np.isfinite(freqs)) or np.any(freqs <= 0.0):
            raise ValueError("frequencies must be finite and positive")
        if np.any(np.diff(freqs) <= 0.0):
            raise ValueError("frequencies must be strictly increasing")
        if not np.all(np.isfinite(gains)) or np.any(gains == 0.0):
            raise ValueError("gains must be finite and non-zero")
        freqs = freqs.copy()
        gains = gains.copy()
        freqs.flags.writeable = False
        gains.flags.writeable = False
        object.__setattr__(self, "frequencies_hz", freqs)
        object.__setattr__(self, "gains", gains)

    def __len__(self) -> int:
        return len(self.frequencies_hz)

    # Computed once and read-only: every residual report shares them.
    @cached_property
    def omega(self) -> np.ndarray:
        """Angular frequencies in rad/s."""
        omega = 2.0 * math.pi * self.frequencies_hz
        omega.flags.writeable = False
        return omega

    @cached_property
    def magnitude_db(self) -> np.ndarray:
        db = 20.0 * np.log10(np.abs(self.gains))
        db.flags.writeable = False
        return db

    @cached_property
    def phase_deg_unwrapped(self) -> np.ndarray:
        """Phase in degrees, unwrapped continuously across the sweep."""
        deg = np.degrees(np.unwrap(np.angle(self.gains)))
        deg.flags.writeable = False
        return deg


@dataclass(frozen=True)
class FitResult:
    """Identified parameters, convergence diagnostics and residual report.

    ``report`` is the ``residual_report`` of the fitted parameters on the
    fit's data, and ``objective`` its sum of squared residuals (dB^2 +
    deg^2). ``iterations`` counts the residual evaluations of the winning
    start (Jacobian evaluations, which are closed form, are not counted),
    and ``converged`` reports whether that start met a tolerance before
    exhausting its budget.
    """

    params: FoJeffreysParams
    iterations: int
    converged: bool
    report: ResidualReport = field(repr=False)

    @property
    def objective(self) -> float:
        return self.report.sum_squared


@dataclass(frozen=True)
class ResidualReport:
    """Per-frequency comparison of measured and modeled response."""

    frequency_hz: np.ndarray
    measured_db: np.ndarray
    measured_deg: np.ndarray
    model_db: np.ndarray
    model_deg: np.ndarray
    residual_db: np.ndarray
    residual_deg: np.ndarray

    @property
    def sum_squared(self) -> float:
        return float(np.sum(self.residual_db**2) + np.sum(self.residual_deg**2))


def residual_report(params: FoJeffreysParams, data: FrfDataset) -> ResidualReport:
    """Tabulate measured vs modeled response for every frequency.

    The one model-versus-data comparison behind every objective, fit result
    and report file. Every column is read-only; the measured and frequency
    columns are the dataset's own arrays. For orders in (0, 2), arg G =
    arg(1 + lambda1 s^beta) - 90 gamma - arg(1 + lambda2 s^alpha) lies in
    (-180 - 90 gamma, 180 - 90 gamma) degrees, so the model phase takes its
    continuous branch in closed form, not by np.unwrap.
    """
    gains = freq_response(params, data.omega)
    model_db = 20.0 * np.log10(np.abs(gains))
    model_deg = np.degrees(np.angle(gains))
    model_deg[model_deg > 180.0 - 90.0 * params.gamma] -= 360.0
    data_db, data_deg = data.magnitude_db, data.phase_deg_unwrapped
    # Align the 360-degree branch at the first point, so the difference of
    # the two continuous phases is branch-independent.
    model_deg = model_deg - 360.0 * round((model_deg[0] - data_deg[0]) / 360.0)
    computed = [model_db, model_deg, model_db - data_db, model_deg - data_deg]
    for column in computed:
        column.flags.writeable = False
    return ResidualReport(data.frequencies_hz, data_db, data_deg, *computed)


def _logit(x: float) -> float:
    x = min(max(x, 1.0e-6), 1.0 - 1.0e-6)  # an initial guess may violate (0, 1)
    return math.log(x / (1.0 - x))


def _sigmoid(v: float) -> float:
    return 1.0 / (1.0 + np.exp(-min(max(v, -_LOGIT_CLIP), _LOGIT_CLIP)))


def _pack(params: FoJeffreysParams) -> np.ndarray:
    """All three coordinates of theta; a class with fewer takes the leading ones."""
    ratio = params.lambda1 / params.lambda2
    return np.array([math.log(params.lambda2), _logit(ratio), _logit(params.alpha / 2.0)])


def _shape(theta: np.ndarray) -> tuple[float, float, float]:
    lambda2 = math.exp(min(max(theta[0], -_LOG_CLIP), _LOG_CLIP))
    alpha = 2.0 * _sigmoid(theta[2]) if len(theta) > 2 else 1.0
    return lambda2 * _sigmoid(theta[1]), lambda2, alpha


def _unpack(theta: np.ndarray) -> FoJeffreysParams:
    lambda1, lambda2, alpha = _shape(theta)
    return FoJeffreysParams(mu=1.0, lambda1=lambda1, lambda2=lambda2, alpha=alpha)


def _lm_problem(data: FrfDataset):
    """The reduced residual r(theta) and its closed-form Jacobian, for LM.

    r = [dB residual minus its mean, degree residual] of ``residual_report``
    at mu = 1; the centring projects out log mu. Both come from one ln G =
    log1p(w1) - log1p(w2) - ln(j omega) per theta, w_i = lambda_i (j omega)^alpha,
    the logarithm of ``model._transfer`` at beta = alpha, gamma = 1, mu = 1,
    kept for the Jacobian that MINPACK takes where it has just taken r. For
    0 < alpha < 2, Im ln G lies in ``residual_report``'s branch, (-270, 90)
    degrees. With q_i = w_i / (1 + w_i), ln G has the derivatives q1 - q2,
    (1 - rho) q1 and alpha (1 - alpha/2) ln(j omega) (q1 - q2) in theta,
    rho = lambda1 / lambda2; the dB rows are 20/ln 10 times their real parts,
    centred, the degree rows 180/pi times their imaginary parts. A clipped
    coordinate has a zero column.
    """
    log_jomega = np.log(data.omega) + 0.5j * math.pi
    n, bounds = len(data), np.array([_LOG_CLIP, _LOGIT_CLIP, _LOGIT_CLIP])
    data_db, data_deg = data.magnitude_db, data.phase_deg_unwrapped
    cache: dict[bytes, tuple] = {}

    def evaluate(theta: np.ndarray) -> tuple:
        key = theta.tobytes()
        if key not in cache:
            lambda1, lambda2, alpha = _shape(theta)
            z = np.exp(alpha * log_jomega)
            w1, w2 = lambda1 * z, lambda2 * z
            cache.clear()
            cache[key] = alpha, w1, w2, np.log1p(w1) - np.log1p(w2) - log_jomega
        return cache[key]

    def residuals(theta: np.ndarray) -> np.ndarray:
        log_g = evaluate(theta)[3]
        db = _DB_PER_NEPER * log_g.real - data_db
        deg = _DEG_PER_RAD * log_g.imag
        deg -= 360.0 * round((deg[0] - data_deg[0]) / 360.0)  # as residual_report aligns it
        return np.concatenate([db - db.sum() / n, deg - data_deg])

    def jacobian(theta: np.ndarray) -> np.ndarray:
        alpha, w1, w2, _ = evaluate(theta)
        q1 = w1 / (1.0 + w1)
        dq = q1 - w2 / (1.0 + w2)
        columns = [dq, _sigmoid(-theta[1]) * q1]
        if len(theta) > 2:
            columns.append((alpha * _sigmoid(-theta[2])) * log_jomega * dq)
        d = np.column_stack(columns) * (np.abs(theta) <= bounds[: len(theta)])
        db = _DB_PER_NEPER * d.real
        return np.concatenate([db - db.sum(axis=0) / n, _DEG_PER_RAD * d.imag])

    return residuals, jacobian


def _grid(data: FrfDataset, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid points in theta and their reduced costs ||r||^2, in closed form.

    The corner lambda2^(-1/alpha) spans the band +-1 decade (16 values), logit
    rho [-3, 3] (7) and, for theta of ``size`` 3 (FO), logit(alpha/2)
    [-2.5, 2.5] (9). Costs are taken at most at 24 log-spaced points: on all
    200 points of a sweep, the ranking costs more than the start saves.
    ln G = ln((1 + rho w) / (1 + w)) - ln(j omega), the logarithm of
    ``model._transfer`` at beta = alpha, gamma = 1, mu = 1, with
    w = lambda2 (j omega)^alpha = x + jy formed once for all rho, is taken in
    real arithmetic. For 0 < alpha < 2 both brackets lie
    in the upper half plane, so the argument of their quotient is continuous
    and needs no unwrapping; its branch is aligned at the first point.
    """
    log_w = np.log(data.omega)
    keep = np.unique(np.searchsorted(log_w, np.linspace(log_w[0], log_w[-1], 24)))
    log_w = log_w[keep]
    corner = np.linspace(log_w[0] - math.log(10.0), log_w[-1] + math.log(10.0), 16)
    logit_rho = np.linspace(-3.0, 3.0, 7)
    logit_half_alpha = np.linspace(-2.5, 2.5, 9) if size > 2 else np.zeros(1)
    alpha = 2.0 / (1.0 + np.exp(-logit_half_alpha))  # 1 for IO; no clip needed
    c, r, a = np.meshgrid(corner, logit_rho, logit_half_alpha, indexing="ij")
    theta = np.stack([-alpha * c, r, a][:size], axis=-1)
    # Axes (rho, corner, alpha, point), so each rho scales one contiguous block.
    rho = (1.0 / (1.0 + np.exp(-logit_rho))).reshape(-1, 1, 1, 1)
    alpha = alpha[:, None]
    m = np.exp(alpha * (log_w - corner[:, None, None]))  # |w|
    x, y, m2 = m * np.cos(0.5 * math.pi * alpha), m * np.sin(0.5 * math.pi * alpha), m * m
    # |1 + rho w|^2 - |1 + w|^2 = (rho - 1)(2x + (rho + 1)|w|^2), and
    # (1 + rho w) conj(1 + w) = 1 + x + rho (x + |w|^2) + j (rho - 1) y.
    ln_mag = 0.5 * np.log1p((rho - 1.0) * (2.0 * x + (rho + 1.0) * m2) / (1.0 + 2.0 * x + m2))
    arg = np.arctan2((rho - 1.0) * y, (1.0 + x) + rho * (x + m2))
    # Residuals in nepers and radians; the cost scales them to dB and degrees.
    r_mag = ln_mag.reshape(-1, keep.size) - (log_w + data.magnitude_db[keep] / _DB_PER_NEPER)
    r_arg = arg.reshape(-1, keep.size) - np.radians(data.phase_deg_unwrapped[keep] + 90.0)
    r_mag -= r_mag.mean(axis=1, keepdims=True)
    r_arg -= (2.0 * math.pi) * np.round(r_arg[:, :1] / (2.0 * math.pi))
    costs = _DB_PER_NEPER**2 * np.einsum("ij,ij->i", r_mag, r_mag)
    costs += _DEG_PER_RAD**2 * np.einsum("ij,ij->i", r_arg, r_arg)
    return theta.reshape(-1, size), costs.reshape(7, 16, -1).transpose(1, 0, 2).ravel()


def leastsq(*args, **kwargs):
    """``scipy.optimize.leastsq``, imported on the first fit: not at CLI start-up."""
    from scipy.optimize import leastsq as solve
    return solve(*args, **kwargs)


def fit(
    data: FrfDataset,
    *,
    model_class: str = "FO",
    initial_guess: FoJeffreysParams | None = None,
) -> FitResult:
    """Identify model parameters from an FRF dataset.

    ``model_class`` selects the fractional-order fit ("FO": shared order
    alpha = beta estimated, gamma pinned to 1) or the integer-order
    comparison ("IO": alpha = beta = gamma = 1). Levenberg-Marquardt runs on
    the reduced residual from the best point of ``_grid`` and, if given, from
    ``initial_guess``, whose mu, beta and gamma are not read; the start that
    ends at the lower cost is kept, the grid's on ties. Each solve stops at a
    relative tolerance of 1e-12 on the objective, the step or the gradient,
    or after ``_MAX_EVALUATIONS`` (5000) residual evaluations; mu is then the
    mean dB offset. Returned parameters always satisfy the constrained-mode
    validation of the FO class.

    Raises
    ------
    FitNonConvergenceError
        Exactly when the kept start did not converge, that is when the
        result's ``converged`` is false; the exception carries that
        incumbent ``FitResult``.
    ValueError
        If ``model_class`` is not "FO" or "IO", or if the data's gain level
        puts mu outside the floating-point range.
    """
    if model_class not in _MODEL_CLASSES:
        raise ValueError(f"model_class must be 'FO' or 'IO', got {model_class!r}")
    size = _MODEL_CLASSES[model_class]
    theta, costs = _grid(data, size)
    starts = [theta[np.argmin(costs)]]
    if initial_guess is not None:
        starts.append(_pack(initial_guess)[:size])

    residuals, jacobian = _lm_problem(data)
    # No diag: MINPACK scales each coordinate by its Jacobian column's norm.
    solutions = [  # each is (x, cov_x, info, message, ier)
        leastsq(
            residuals, start, Dfun=jacobian, full_output=True, ftol=_TOLERANCE,
            xtol=_TOLERANCE, gtol=_TOLERANCE, maxfev=_MAX_EVALUATIONS,
        )
        for start in starts
    ]
    x, _, info, _, ier = min(solutions, key=lambda sol: sol[2]["fvec"] @ sol[2]["fvec"])
    shape = _unpack(x)
    log10_mu = float(np.mean(residual_report(shape, data).residual_db)) / 20.0
    if abs(log10_mu) > 307.0:  # 10^-307 <= mu <= 10^307 are normal floats
        raise ValueError(f"the FRF gain level needs mu = 10^{log10_mu:.1f}, out of range")
    params = replace(shape, mu=10.0**log10_mu)
    result = FitResult(
        params=params,
        iterations=int(info["nfev"]),
        converged=ier in _LM_SUCCESS,
        report=residual_report(params, data),
    )
    assert not validate(result.params)
    if not result.converged:
        raise FitNonConvergenceError(result)
    return result
