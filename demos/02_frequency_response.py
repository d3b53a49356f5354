#!/usr/bin/env python3
"""Frequency response of the fractional-order Jeffreys cylinder model.

Prints a Bode table over the measured band of the laboratory rig
(0.005 to 1.6 Hz) at three points of the one model: the identified
fractional-order (FO) cylinder, the integer-order (IO) point alpha = beta = 1
and the dashpot point lambda1 = lambda2. Then it maps the classical
integer-order Jeffreys model (a Kelvin-Voigt element in series with a
dashpot) onto the model's parameters and shows that `validate` rejects it.
"""

import numpy as np

from fojeffreys import FoJeffreysParams, freq_response, validate

mu, lambda1, lambda2 = 171e3, 0.013, 0.047
points = {
    "FO cylinder": FoJeffreysParams(mu, lambda1, lambda2, alpha=1.571, beta=1.571),
    "IO (alpha=1)": FoJeffreysParams(mu, lambda1, lambda2, alpha=1.0, beta=1.0),
    "dashpot": FoJeffreysParams(mu, lambda2, lambda2, alpha=1.571, beta=1.571),
}

print("=== three points of the model, 0.005 - 1.6 Hz: |G| [dB] / phase [deg] ===")
freqs = np.geomspace(0.005, 1.6, 13)
gains = {name: freq_response(p, 2.0 * np.pi * freqs) for name, p in points.items()}
print(f"{'f [Hz]':>9}" + "".join(f"{name:>22}" for name in points))
for i, f in enumerate(freqs):
    cells = (f"{20*np.log10(abs(g[i])):10.2f} / {np.degrees(np.angle(g[i])):7.2f}"
             for g in gains.values())
    print(f"{f:9.4f}" + "".join(f"{c:>22}" for c in cells))
print(
    "\nThe FO phase starts at -90 deg (free integrator), dives toward -180 deg\n"
    "inside the lag band and returns to -90 deg far above it. The IO point\n"
    "dips less deep, and at lambda1 = lambda2 the brackets cancel: the plain\n"
    "dashpot 1/(mu s), -90 deg at every frequency.\n"
)

print("=== the classical Jeffreys model is not an admissible point ===")
stiffness, parallel_viscosity, series_viscosity = 1.0, 0.5, 1.0
# 1/(c_s s) + 1/(k + c_p s) = (1 + tau_relax s) / (c_s s (1 + tau_retard s))
relaxation = (parallel_viscosity + series_viscosity) / stiffness
retardation = parallel_viscosity / stiffness
classical = FoJeffreysParams(
    mu=series_viscosity, lambda1=relaxation, lambda2=retardation, alpha=1.0, beta=1.0
)
print(f"Kelvin-Voigt + dashpot: relaxation time {relaxation} > retardation time {retardation}")
print("maps to lambda1 > lambda2; validate:", validate(classical))
io = points["IO (alpha=1)"]
for f in (1e-3, 1e3):
    w = 2.0 * np.pi * f
    impedance = 1.0 / (1j * w * freq_response(io, w))
    print(f"IO point at {f:g} Hz: |1/(sG)| / mu = {abs(impedance) / mu:.4f}")
print(
    "With lambda2 > lambda1 the impedance 1/(sG) = mu(1 + lambda2 s)/(1 + lambda1 s)\n"
    "rises with frequency, from mu to mu*lambda2/lambda1; springs and dashpots\n"
    "alone cannot do that."
)
