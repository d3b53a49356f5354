"""simulate against two test-only oracles.

``reference_simulate`` is the earlier O(n^2) solver, kept here verbatim: it
differintegrates the force with direct convolutions and then solves for each
displacement sample in closed form. It shares the Grunwald-Letnikov
discretisation, so it cannot see the O(h) error of the scheme.

``talbot_response`` is the exact response x = L^-1[G(s) tau_hat(s)] at one
t > 0, by Talbot inversion on the Weideman-Trefethen contour (Math. Comp. 76,
2007), independent of every discretisation in time.
"""

import math
import sys

import numpy as np
import pytest

from fojeffreys import (
    FoJeffreysParams,
    SignalSpec,
    SimulationDivergedError,
    TimeSeries,
    generate_signal,
    gl_weights,
    simulate,
)
from fojeffreys.model import _transfer

from conftest import CYLINDER

# Weideman-Trefethen cotangent contour
# z(theta) = (N/t) (SIGMA + MU theta cot(A theta) + i NU theta), -pi < theta < pi.
TALBOT_SIGMA, TALBOT_MU, TALBOT_A, TALBOT_NU = -0.6122, 0.5017, 0.6407, 0.2645
TALBOT_NODES = 48
UNCONSTRAINED = FoJeffreysParams(
    mu=2.0, lambda1=0.3, lambda2=0.05, alpha=0.7, beta=1.4, gamma=1.3
)


def _gl_apply(samples: np.ndarray, order: float, step: float) -> np.ndarray:
    """Array-level differintegral without container validation."""
    if order == 0.0:
        return samples
    weights = gl_weights(order, len(samples) - 1)
    return np.convolve(samples, weights)[: len(samples)] * step ** (-order)


def reference_simulate(params, tau, divergence_limit=None):
    h = tau.step
    n = len(tau)

    with np.errstate(over="ignore", invalid="ignore"):
        d_beta = _gl_apply(tau.samples, params.beta, h)
        forcing = params.lambda1 * d_beta + tau.samples
        y = _gl_apply(forcing, -params.gamma, h)
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise SimulationDivergedError(int(bad[0]))

    weights = gl_weights(params.alpha, n - 1)
    weights_rev = np.ascontiguousarray(weights[::-1])
    a = params.mu * params.lambda2 * h ** (-params.alpha)
    denom = a + params.mu

    x = np.empty(n)
    for k in range(n):
        # sum_{i=1..k} w_i * x[k-i] as a contiguous dot product
        history = weights_rev[n - 1 - k : n - 1] @ x[:k] if k else 0.0
        value = (y[k] - a * history) / denom
        if not math.isfinite(value):
            raise SimulationDivergedError(k)
        if divergence_limit is not None and abs(value) > divergence_limit:
            raise SimulationDivergedError(
                k,
                f"output magnitude exceeded {divergence_limit:g} "
                f"at sample index {k}",
            )
        x[k] = value
    return x


def _params(**overrides) -> FoJeffreysParams:
    return FoJeffreysParams(**{**CYLINDER, **overrides})


def _signal(kind: str, duration: float, step: float) -> TimeSeries:
    magnitude = {"impulse": "area", "step": "amplitude", "slope": "rate"}[kind]
    return generate_signal(
        SignalSpec(kind=kind, duration=duration, step=step, **{magnitude: 1.0})
    )


def _normwise_error(params, signal) -> float:
    got = simulate(params, signal).output.samples
    want = reference_simulate(params, signal)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize(
    "params, kind, duration, step",
    [
        (_params(), "impulse", 2.5, 1e-3),
        (_params(), "impulse", 15.0, 1e-3),
        (_params(), "slope", 3.0, 2e-4),
        (_params(gamma=0.9), "impulse", 10.0, 1e-3),
        (_params(gamma=1.1), "impulse", 10.0, 1e-3),
        (
            FoJeffreysParams(
                mu=2.0, lambda1=0.3, lambda2=0.05, alpha=0.7, beta=1.4, gamma=1.3
            ),
            "step",
            2.0,
            1e-3,
        ),
    ],
    ids=["impulse-2.5k", "impulse-15k", "slope-15k", "gamma-0.9", "gamma-1.1",
         "unconstrained-step"],
)
def test_matches_reference_recursion(params, kind, duration, step):
    assert _normwise_error(params, _signal(kind, duration, step)) <= 1e-10


@pytest.mark.parametrize("samples", [[1.0], [1.0, -0.5]], ids=["n1", "n2"])
def test_shortest_records_match_reference(samples):
    signal = TimeSeries(step=1e-3, samples=samples)
    assert _normwise_error(_params(), signal) <= 1e-10


@pytest.mark.parametrize("limit, index", [(3e-6, 92), (5e-6, 184)])
def test_divergence_limit_index_matches_reference(limit, index):
    signal = _signal("impulse", 0.5, 1e-3)
    indices = []
    for solver in (
        lambda: simulate(_params(), signal, divergence_limit=limit),
        lambda: reference_simulate(_params(), signal, divergence_limit=limit),
    ):
        with pytest.raises(SimulationDivergedError, match="exceeded") as excinfo:
            solver()
        indices.append(excinfo.value.sample_index)
    assert indices == [index, index]


def test_overflow_index_is_first_non_finite_output_sample():
    # The D^beta stage of the old recursion overflowed at sample 0 although
    # the response stays finite up to sample 22; the reported index is now
    # the first output sample that is not a finite double.
    params = FoJeffreysParams(
        mu=1e-3, lambda1=0.01, lambda2=0.05, alpha=1.2, beta=1.2, gamma=1.0
    )
    amplitude = 1e306
    unit = generate_signal(
        SignalSpec(kind="step", duration=3.0, step=0.01, amplitude=1.0)
    )
    x_unit = simulate(params, unit).output.samples
    # By linearity the response to the large step is x_unit * amplitude.
    with np.errstate(over="ignore"):
        overflowed = np.abs(x_unit) * amplitude > sys.float_info.max
    expected = int(np.flatnonzero(overflowed)[0])
    big = TimeSeries(step=unit.step, samples=unit.samples * amplitude)
    with pytest.raises(SimulationDivergedError) as excinfo:
        simulate(params, big)
    assert excinfo.value.sample_index == expected == 23
    with pytest.raises(SimulationDivergedError) as excinfo:
        reference_simulate(params, big)
    assert excinfo.value.sample_index == 0


def _talbot_contour(t: float):
    """Contour points z and dz/dtheta at the midpoints of N equal theta panels."""
    theta = -math.pi + (np.arange(TALBOT_NODES) + 0.5) * (2.0 * math.pi / TALBOT_NODES)
    cot = 1.0 / np.tan(TALBOT_A * theta)
    scale = TALBOT_NODES / t
    z = scale * (TALBOT_SIGMA + TALBOT_MU * theta * cot + 1j * TALBOT_NU * theta)
    dz = scale * (
        TALBOT_MU * (cot - TALBOT_A * theta / np.sin(TALBOT_A * theta) ** 2)
        + 1j * TALBOT_NU
    )
    return z, dz


def encloses_poles(params: FoJeffreysParams, t: float) -> bool:
    """True unless G has poles right of the contour for this t.

    For alpha > 1 the poles of 1/(1 + lambda2 s^alpha) sit on the principal
    sheet at lambda2^(-1/alpha) exp(+-i pi/alpha); the contour must pass to
    their right at their height. For alpha <= 1 they are off the sheet.
    """
    if params.alpha <= 1.0:
        return True
    angle = math.pi / params.alpha
    radius = params.lambda2 ** (-1.0 / params.alpha)
    theta = radius * math.sin(angle) * t / (TALBOT_NODES * TALBOT_NU)
    if theta >= math.pi:  # the contour never reaches the poles' height
        return False
    re = (TALBOT_NODES / t) * (TALBOT_SIGMA + TALBOT_MU * theta / math.tan(TALBOT_A * theta))
    return re > radius * math.cos(angle)


def talbot_response(params: FoJeffreysParams, input_power: int, t: float) -> float:
    """x(t) = L^-1[G(s) / s^input_power](t): impulse 0, unit step 1, unit ramp 2.

    Midpoint rule in theta on the contour, with G from the model's one
    formula and principal-branch powers exp(p ln s).
    """
    z, dz = _talbot_contour(t)
    log_z = np.log(z)
    z_alpha, z_beta, z_gamma = (
        np.exp(p * log_z) for p in (params.alpha, params.beta, params.gamma)
    )
    gain = _transfer(params.mu, params.lambda1, params.lambda2, z_alpha, z_beta, z_gamma)
    integrand = np.exp(z * t - input_power * log_z) * gain * dz
    # (1 / 2 pi i) * sum * (2 pi / N); conjugate nodes make the sum real.
    return float(np.sum(integrand).imag / TALBOT_NODES)


def test_talbot_oracle_matches_reference_values():
    # mu * x of the cylinder's unit-impulse response, from an arbitrary-
    # precision de Hoog inversion (mpmath invertlaplace) of G.
    params = _params()
    expected = [1.0572215129, 1.2368650381, 0.9588861134, 1.0004174097]
    for t, value in zip([0.25, 0.5, 1.0, 2.0], expected):
        assert encloses_poles(params, t)
        assert abs(params.mu * talbot_response(params, 0, t) - value) <= 1e-9


def test_talbot_contour_misses_cylinder_poles_late():
    # At N = 48 the contour crosses the poles' height (Im s = 6.37) at
    # Re s = 1.4 for t = 2 s but at about -3.8, left of Re s = -2.91, for
    # t = 4 s, where the oracle is off by about 8e-6.
    assert encloses_poles(_params(), 2.0)
    assert not encloses_poles(_params(), 4.0)


@pytest.mark.parametrize("params", [_params(), UNCONSTRAINED], ids=["cylinder", "unconstrained"])
@pytest.mark.parametrize(
    "kind, magnitude, input_power",
    [("impulse", "area", 0), ("step", "amplitude", 1), ("slope", "rate", 2)],
)
def test_first_order_error_against_talbot(params, kind, magnitude, input_power):
    # GL is first order: at fixed t the error is below 5e-3 of the response
    # at h = 1e-3 and halves with h. The scale is the oracle's peak over the
    # checked times: the unconstrained impulse response is singular at
    # t = 0, so the record's own peak grows as h shrinks.
    times = np.array([0.25, 0.5, 1.0, 1.5, 2.0])
    assert all(encloses_poles(params, t) for t in times)
    exact = np.array([talbot_response(params, input_power, t) for t in times])
    errors = []
    for h in (1e-3, 5e-4):
        signal = generate_signal(
            SignalSpec(kind=kind, duration=2.0, step=h, **{magnitude: 1.0})
        )
        x = simulate(params, signal).output.samples
        errors.append(np.max(np.abs(x[np.rint(times / h).astype(int)] - exact)))
    assert errors[0] < 5e-3 * np.max(np.abs(exact)), errors
    assert 1.8 <= errors[0] / errors[1] <= 2.2, errors


def test_slope_response_meets_two_term_ramp_asymptote():
    # For large t the ramp response r*t of the cylinder is the dashpot's
    # r*t^2/(2 mu) lagged by the fractional term of G's expansion about
    # s = 0: x_a = r/mu [t^2/2 - (lambda2 - lambda1) t^(2 - alpha)/Gamma(3 - alpha)].
    # Over t in [2, 4] s the solver meets it to 2e-4 at h = 2e-4, and the
    # error falls as h halves (toward the asymptote's own next term).
    params = _params()
    rate = 1000.0
    errors = []
    for h in (4e-4, 2e-4):
        signal = generate_signal(SignalSpec(kind="slope", duration=4.0, step=h, rate=rate))
        output = simulate(params, signal).output
        t = output.times
        late = t >= 2.0
        lag = (params.lambda2 - params.lambda1) * t[late] ** (2.0 - params.alpha)
        asymptote = rate / params.mu * (0.5 * t[late] ** 2 - lag / math.gamma(3.0 - params.alpha))
        errors.append(float(np.max(np.abs(output.samples[late] / asymptote - 1.0))))
    assert errors[1] <= 2e-4, errors
    assert errors[1] < errors[0], errors
