import contextlib
import math
import warnings

import numpy as np
import pytest

from fojeffreys import FoJeffreysParams, FrfDataset, freq_response, identify

# Hypothesis's pytest plugin imports this module when a property test fails,
# and its libcst import raises a DeprecationWarning from mypy_extensions. With
# warnings as errors, that ends the whole run in an INTERNALERROR instead of
# reporting the failure. Importing it here first, with that warning ignored,
# leaves the plugin an import that is already done. An ini filter would not
# do: a command-line -W error overrides it. Without libcst the plugin skips
# the import, and so does this.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

# Parameter set identified for the laboratory hydraulic cylinder; used as the
# reference operating point throughout the suite.
CYLINDER = {
    "mu": 171e3,
    "lambda1": 0.013,
    "lambda2": 0.047,
    "alpha": 1.571,
    "beta": 1.571,
    "gamma": 1.0,
}

# Measured excitation band of the rig, Hz.
BAND = (0.005, 1.6)


@pytest.fixture
def cylinder_params() -> FoJeffreysParams:
    return FoJeffreysParams(**CYLINDER)


def make_synthetic_frf(
    params: FoJeffreysParams,
    f_lo: float = BAND[0],
    f_hi: float = BAND[1],
    n_points: int = 20,
) -> FrfDataset:
    """Noiseless FRF dataset generated from the model itself."""
    freqs = np.geomspace(f_lo, f_hi, n_points)
    gains = freq_response(params, 2.0 * math.pi * freqs)
    return FrfDataset(frequencies_hz=freqs, gains=gains)


def add_frf_noise(
    data: FrfDataset, db_sigma: float, deg_sigma: float, seed: int
) -> FrfDataset:
    """Perturb magnitude (dB) and phase (deg) with seeded Gaussian noise."""
    rng = np.random.default_rng(seed)
    db = 20.0 * np.log10(np.abs(data.gains)) + rng.normal(0.0, db_sigma, len(data))
    deg = np.degrees(np.angle(data.gains)) + rng.normal(0.0, deg_sigma, len(data))
    gains = 10.0 ** (db / 20.0) * np.exp(1j * np.radians(deg))
    return FrfDataset(frequencies_hz=data.frequencies_hz, gains=gains)


def perturbed_guess(params: FoJeffreysParams, seed: int) -> FoJeffreysParams:
    """Initial guess: truth scaled by uniform +-30 percent factors.

    The order is clipped to stay inside its (0, 2) domain.
    """
    rng = np.random.default_rng(seed)
    factors = rng.uniform(0.7, 1.3, size=4)
    alpha = min(max(params.alpha * factors[3], 0.05), 1.95)
    return FoJeffreysParams(
        mu=params.mu * factors[0],
        lambda1=params.lambda1 * factors[1],
        lambda2=params.lambda2 * factors[2],
        alpha=alpha,
        beta=alpha,
        gamma=1.0,
    )


def grid_start_wins_unconverged(monkeypatch) -> None:
    """Patch fit's solver so that the kept start did not converge, the other did.

    The grid start (solved first) is really solved but reports MINPACK status
    5, an exhausted budget, at the lower cost; the guess start returns itself
    unsolved, at a higher cost, with status 1, a tolerance met.
    """
    solve, starts = identify.leastsq, []

    def leastsq(fun, x0, **kwargs):
        starts.append(x0)
        if len(starts) == 1:
            x, cov_x, info, message, _ = solve(fun, x0, **kwargs)
            return x, cov_x, info, message, 5
        return x0, None, {"fvec": fun(x0), "nfev": 1}, "", 1

    monkeypatch.setattr(identify, "leastsq", leastsq)
