#!/usr/bin/env python3
"""Grunwald-Letnikov differintegration basics.

Shows the sign-alternating binomial weights, fractional derivatives of a
ramp checked against the analytic power rule, and the exact semigroup
property of the discrete integrators.
"""

import numpy as np
from scipy.special import gamma as sp_gamma

from fojeffreys import TimeSeries, gl_differintegral, gl_weights

print("=== GL weights ===")
for order in (1.0, -1.0, 0.5, 1.571):
    w = gl_weights(order, 6)
    print(f"order {order:+.3f}: {np.array2string(w, precision=5)}")
print("order 1 gives first-difference coefficients, order -1 a running sum.\n")

h = 1e-3
t = np.arange(0, 1.0 + h / 2, h)
ramp = TimeSeries(step=h, samples=t)

print("=== half-derivative of f(t) = t ===")
half = gl_differintegral(ramp, 0.5).samples
exact = 2.0 * np.sqrt(t / np.pi)
for tt in (0.1, 0.25, 0.5, 1.0):
    k = int(round(tt / h))
    print(
        f"t={tt:4.2f}: GL={half[k]:.6f}  analytic 2*sqrt(t/pi)={exact[k]:.6f}  "
        f"rel err={abs(half[k] - exact[k]) / exact[k]:.2e}"
    )

print("\n=== power rule for f(t) = t^2, order 1.5 ===")
quad = TimeSeries(step=h, samples=t**2)
d15 = gl_differintegral(quad, 1.5).samples
exact15 = sp_gamma(3.0) / sp_gamma(1.5) * t**0.5
k = int(round(0.5 / h))
print(f"t=0.5: GL={d15[k]:.6f}  analytic={exact15[k]:.6f}")

print("\n=== integrator semigroup ===")
signal = TimeSeries(step=h, samples=np.sin(3.0 * t))
stacked = gl_differintegral(gl_differintegral(signal, -0.4), -0.8).samples
direct = gl_differintegral(signal, -1.2).samples
print(
    "max |D^-0.8 D^-0.4 f - D^-1.2 f| =",
    f"{np.max(np.abs(stacked - direct)):.3e}",
    "(exact up to round-off: the weight sequences compose exactly)",
)
