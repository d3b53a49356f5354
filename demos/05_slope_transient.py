#!/usr/bin/env python3
"""Transient response to a slope (ramp) force input.

The viscoelastic model lags the pure dashpot during the transient: the
displacement ratio starts near lambda1/lambda2 and creeps back to one with
an algebraic tail, much slower than an exponential settling would.
"""

import numpy as np

from fojeffreys import FoJeffreysParams, generate_signal, simulate

cylinder = FoJeffreysParams(
    mu=171e3, lambda1=0.013, lambda2=0.047, alpha=1.571, beta=1.571, gamma=1.0
)
rate = 1000.0

signal = generate_signal("slope", duration=3.0, step=2e-4, rate=rate)
output = simulate(cylinder, signal).output
t = output.times
dashpot = rate * t**2 / (2.0 * cylinder.mu)

print("=== x(t) / x_dashpot(t) for a slope input ===")
print(f"short-time limit lambda1/lambda2 = {cylinder.lambda1 / cylinder.lambda2:.4f}\n")
print(f"{'t [s]':>7} {'ratio':>8}")
for tt in (0.01, 0.05, 0.1, 0.235, 0.5, 1.0, 1.5, 2.0, 3.0):
    k = int(round(tt / signal.step))
    print(f"{tt:7.3f} {output.samples[k] / dashpot[k]:8.4f}")

ratio = output.samples[1:] / dashpot[1:]
outside = np.abs(ratio - 1.0) > 0.05
t_band = t[1:][outside][-1] if outside.any() else 0.0
print(
    f"\nthe response stays below the dashpot throughout the transient and\n"
    f"enters the 5 percent band at t ~ {t_band:.2f} s "
    f"(~{t_band / cylinder.lambda2:.0f} * lambda2): the fractional tail\n"
    f"decays like t^-alpha, so settling is far slower than the exponential\n"
    f"rule of thumb of a few time constants."
)
