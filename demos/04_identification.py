#!/usr/bin/env python3
"""Parameter identification from frequency-response data.

Generates a noisy 20-point synthetic FRF over the measured band, fits both
the fractional-order (FO) and integer-order (IO) model classes with the
equal-weight dB/degree least-squares objective, and compares them. No
initial guess is given: each fit starts from the best point of a fixed grid.
"""

import numpy as np

from fojeffreys import (
    FoJeffreysParams,
    FrfDataset,
    fit,
    freq_response,
)

truth = FoJeffreysParams(
    mu=171e3, lambda1=0.013, lambda2=0.047, alpha=1.571, beta=1.571, gamma=1.0
)

rng = np.random.default_rng(0)
freqs = np.geomspace(0.005, 1.6, 20)
clean = freq_response(truth, 2.0 * np.pi * freqs)
db = 20.0 * np.log10(np.abs(clean)) + rng.normal(0.0, 0.5, freqs.size)
deg = np.degrees(np.angle(clean)) + rng.normal(0.0, 2.0, freqs.size)
data = FrfDataset(
    frequencies_hz=freqs, gains=10.0 ** (db / 20.0) * np.exp(1j * np.radians(deg))
)
print("synthetic data: 20 points, 0.005 - 1.6 Hz, 0.5 dB / 2 deg noise\n")

fo = fit(data, model_class="FO")
io = fit(data, model_class="IO")

print("=== fitted parameters ===")
print(f"{'':>8} {'truth':>12} {'FO fit':>12} {'IO fit':>12}")
for name in ("mu", "lambda1", "lambda2", "alpha"):
    print(
        f"{name:>8} {getattr(truth, name):12.5g} "
        f"{getattr(fo.params, name):12.5g} {getattr(io.params, name):12.5g}"
    )
print(f"\nobjective: FO {fo.objective:.2f}  vs  IO {io.objective:.2f} (dB^2 + deg^2)")
print(f"converged: FO {fo.converged}, IO {io.converged}")

report = io.report  # the fit's own residual table, built once by fit
print("\n=== where the IO fit misses (phase residuals, deg) ===")
for i in (0, 10, 16, 18, 19):
    print(
        f"f={report.frequency_hz[i]:7.4f} Hz: measured {report.measured_deg[i]:8.2f}, "
        f"IO model {report.model_deg[i]:8.2f}, residual {report.residual_deg[i]:+7.2f}"
    )
print(
    "\nThe IO class pays a large phase penalty at the top of the band: its\n"
    "rational structure pins the high-frequency phase to -180 deg, while\n"
    "the data (and the FO fit) return toward -90 deg."
)
