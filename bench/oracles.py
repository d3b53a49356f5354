"""Independent reference results for the benchmark's correctness checks.

Nothing here calls into fojeffreys: the transfer function, the FRF residual,
the CSV parsing and the analytic time-domain limits are written out again, so
a wrong result from the package cannot also make its own check pass.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares
from scipy.special import gamma

# Laboratory cylinder operating point, the centre of every parameter draw.
CYLINDER = {"mu": 171e3, "lambda1": 0.013, "lambda2": 0.047, "alpha": 1.571}
BAND_HZ = (0.005, 1.6)
FRF_HEADER = "frequency_hz,magnitude_db,phase_deg"


class OracleMiss(AssertionError):
    """An operation's output disagrees with its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleMiss(message)


def transfer(p: dict, omega: np.ndarray) -> np.ndarray:
    """G(jw) = (l1 (jw)^a + 1) / (mu jw (l2 (jw)^a + 1)), principal branch."""
    s = 1j * np.asarray(omega, dtype=float)
    a = p["alpha"]
    return (p["lambda1"] * s**a + 1.0) / (p["mu"] * s * (p["lambda2"] * s**a + 1.0))


def write_frf_file(path: Path, freqs, gains: np.ndarray) -> None:
    """FRF rows in the package's file format, phase wrapped to (-360, 0]."""
    db = 20.0 * np.log10(np.abs(gains))
    deg = np.degrees(np.angle(gains))
    deg = deg - 360.0 * np.ceil(deg / 360.0)
    rows = [FRF_HEADER] + [
        f"{float(f)!r},{float(m)!r},{float(d)!r}" for f, m, d in zip(freqs, db, deg)
    ]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def read_columns(path) -> np.ndarray:
    """Numeric columns of a header-plus-rows CSV file, one row per sample."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _frf_residual(p: dict, omega, data_db, data_deg) -> np.ndarray:
    g = transfer(p, omega)
    model_deg = np.degrees(np.unwrap(np.angle(g)))
    model_deg -= 360.0 * round((model_deg[0] - data_deg[0]) / 360.0)
    return np.concatenate([20.0 * np.log10(np.abs(g)) - data_db, model_deg - data_deg])


class FrfReference:
    """Optimum of the FO objective on one FRF data set, found without the package.

    Levenberg-Marquardt on the dB/degree residual vector, started from the
    generating parameters. On noiseless data the optimum is the truth; on
    noisy data it is where the noise moved the optimum, which for lambda1 is
    often more than 10 % from the truth.
    """

    def __init__(self, truth: dict, freqs, gains: np.ndarray):
        omega = 2.0 * math.pi * np.asarray(freqs)
        data_db = 20.0 * np.log10(np.abs(gains))
        data_deg = np.degrees(np.unwrap(np.angle(gains)))

        def residual(x):
            p = {"mu": math.exp(x[0]), "lambda1": math.exp(x[1]),
                 "lambda2": math.exp(x[2]), "alpha": x[3]}
            return _frf_residual(p, omega, data_db, data_deg)

        x0 = [math.log(truth["mu"]), math.log(truth["lambda1"]),
              math.log(truth["lambda2"]), truth["alpha"]]
        sol = least_squares(residual, x0, method="lm", xtol=1e-14, ftol=1e-14, gtol=1e-14)
        self.params = {"mu": math.exp(sol.x[0]), "lambda1": math.exp(sol.x[1]),
                       "lambda2": math.exp(sol.x[2]), "alpha": float(sol.x[3])}
        self.objective = float(np.sum(sol.fun**2))


def check_recovery(summary: dict, ref: FrfReference, rel_tol: float = 0.02) -> None:
    """FO fit reaches the reference optimum: parameters and objective."""
    for name, want in ref.params.items():
        err = abs(summary[name] / want - 1.0)
        require(err <= rel_tol, f"{name} {summary[name]:.6g} vs reference {want:.6g} ({err:.2%})")
    require(
        summary["objective"] <= ref.objective * (1.0 + 1e-6) + 1e-9,
        f"objective {summary['objective']:.6g} above reference {ref.objective:.6g}",
    )


def impulse_plateau(area: float, mu: float, t, x, t_from: float) -> None:
    """gamma = 1 impulse response settles at area/mu within 2 %."""
    target = area / mu
    plateau = float(np.mean(x[t >= t_from]))
    dev = abs(plateau - target) / target
    require(dev <= 0.02, f"impulse plateau {plateau:.6g} vs area/mu {target:.6g} ({dev:.2%})")


def _lag_asymptote(p: dict, t, k: int):
    # Ratio of the response to the dashpot's for a force ~ t^(k-1):
    # 1 - Gamma(k+1) (l2 - l1) t^-a / Gamma(k+1-a) + O(t^-2a).
    a = p["alpha"]
    return 1.0 - gamma(k + 1) * (p["lambda2"] - p["lambda1"]) * t ** (-a) / gamma(k + 1 - a)


def slope_asymptote(p: dict, rate: float, t, x, tol: float = 5e-4) -> None:
    """Ramp response over the dashpot's r t^2/(2 mu) follows the two-term asymptote at t >= 2 s."""
    m = t >= 2.0
    ratio = x[m] / (rate * t[m] ** 2 / (2.0 * p["mu"]))
    err = float(np.max(np.abs(ratio - _lag_asymptote(p, t[m], 2))))
    require(err <= tol, f"slope ratio off the two-term asymptote by {err:.2e} (tol {tol:.0e})")


def power_rule(coeffs, order: float, t):
    """D^order of sum_k c_k t^k: sum_k c_k Gamma(k+1)/Gamma(k+1-order) t^(k-order)."""
    with np.errstate(divide="ignore"):
        return sum(c * gamma(k + 1) / gamma(k + 1 - order) * t ** (k - order)
                   for k, c in enumerate(coeffs, start=1))


def gl_power_rule(coeffs, order: float, t, out, tol: float = 2e-3) -> None:
    m = t >= 0.1
    exact = power_rule(coeffs, order, t[m])
    err = float(np.max(np.abs(out[m] / exact - 1.0)))
    require(err <= tol, f"D^{order:+.4f} off the power rule by {err:.2e} relative")


def late_direction(t, x, expected: str) -> None:
    """Direction of |x| between 80 % and 100 % of the record."""
    late = abs(float(x[-1]))
    earlier = abs(float(np.interp(0.8 * t[-1], t, x)))
    seen = "growing" if late > earlier else "decaying"
    require(seen == expected, f"late response {seen}, expected {expected}")
