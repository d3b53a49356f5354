#!/usr/bin/env python3
"""Impulse response and the integrator-order trichotomy.

A force impulse of area B must leave a constant displacement B/mu behind:
that happens only for integrator order gamma = 1. Below one the response
decays back to zero, above one it grows without bound.
"""

import numpy as np

from fojeffreys import (
    FoJeffreysParams,
    classify_late_trend,
    dirac_differintegral_analytic,
    generate_signal,
    impulse_final_value,
    simulate,
)

BASE = dict(mu=171e3, lambda1=0.013, lambda2=0.047, alpha=1.571, beta=1.571)

print("=== analytic impulse differintegral t^(-eta-1)/Gamma(-eta) ===")
for eta in (-0.9, -1.0, -1.1):
    values = [dirac_differintegral_analytic(eta, t) for t in (1.0, 10.0, 100.0)]
    print(
        f"eta={eta:+.1f}: value at t=1,10,100 -> "
        + ", ".join(f"{v:.4f}" for v in values)
    )
print("only eta = -1 stays constant; that forces gamma = 1 in the model.\n")

signal = generate_signal("impulse", duration=2.5, step=1e-3, area=1.0)

print("=== simulated impulse responses, area B = 1 ===")
print(f"{'gamma':>6} {'x(T)':>12} {'predicted limit':>16} {'late trend':>11}")
for gamma in (0.9, 1.0, 1.1):
    params = FoJeffreysParams(gamma=gamma, **BASE)
    output = simulate(params, signal).output
    limit = impulse_final_value(params, 1.0)
    print(
        f"{gamma:6.1f} {output.samples[-1]:12.4e} {limit:16.4e} "
        f"{classify_late_trend(output):>11}"
    )

params = FoJeffreysParams(gamma=1.0, **BASE)
output = simulate(params, signal).output
plateau = impulse_final_value(params, 1.0)
tail = output.samples[output.times >= 2.0]
print(
    f"\ngamma=1 plateau: mean over t in [2.0, 2.5] = {np.mean(tail):.4e}, "
    f"target B/mu = {plateau:.4e}, deviation "
    f"{abs(np.mean(tail) - plateau) / plateau:.3%}"
)
print("The early response rings before settling: the order 1.571 pair is")
print("underdamped, so the displacement overshoots its final value once.")
