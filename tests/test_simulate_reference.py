"""simulate against two test-only oracles.

``reference_simulate`` is the earlier O(n^2) solver, kept here verbatim: it
differintegrates the force with direct convolutions and then solves for each
displacement sample in closed form. It shares the Grunwald-Letnikov
discretisation, so it cannot see the O(h) error of the scheme.

``talbot_response`` is the exact response x = L^-1[G(s) tau_hat(s)] at one
t > 0, by Talbot inversion on the Weideman-Trefethen contour (Math. Comp. 76,
2007), independent of every discretisation in time. Its contour misses the
cylinder's poles after about 2 s.

``mittag_leffler_response`` is the exact response for alpha = beta and
gamma = 1 at any t > 0, in closed form through the Mittag-Leffler function,
evaluated on the real line.
"""

import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from fojeffreys import (
    FoJeffreysParams,
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
    return generate_signal(kind, duration, step, **{magnitude: 1.0})


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
    unit = generate_signal("step", 3.0, 0.01, amplitude=1.0)
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
    gain = _transfer(params, lambda p: np.exp(p * log_z))
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
        signal = generate_signal(kind, 2.0, h, **{magnitude: 1.0})
        x = simulate(params, signal).output.samples
        errors.append(np.max(np.abs(x[np.rint(times / h).astype(int)] - exact)))
    assert errors[0] < 5e-3 * np.max(np.abs(exact)), errors
    assert 1.8 <= errors[0] / errors[1] <= 2.2, errors


def _decay_integral(r: float, t: float, k: int) -> float:
    """The k-fold integral of e^(-r u) from 0 to t, k = 0, 1, 2, without cancellation."""
    x = r * t
    if k == 0:
        return math.exp(-x)
    if k == 1:
        return -math.expm1(-x) / r if x > 0.0 else t
    if x < 1e-3:  # (x - 1 + e^-x) / r^2 by its series
        return t * t * (0.5 - x / 6.0 + x * x / 24.0 - x**3 / 120.0)
    return (x + math.expm1(-x)) / (r * r)


def mittag_leffler_response(params: FoJeffreysParams, input_power: int, t: float) -> float:
    """x(t) for alpha = beta, gamma = 1: impulse 0, unit step 1, unit ramp 2.

    With a = 1/lambda2 and c = 1 - lambda1/lambda2, G = (1/s - c a /
    (s (s^alpha + a))) / mu, so the impulse response is (1 - c E(t)) / mu
    with E(t) = E_alpha(-a t^alpha); a step or ramp integrates E once or
    twice. For 0 < alpha < 2, E(t) = int_0^inf e^(-r t) K(r) dr + P(t)
    (Gorenflo & Mainardi 1997), K(r) = a r^(alpha - 1) sin(alpha pi) /
    (pi (r^(2 alpha) + 2 a r^alpha cos(alpha pi) + a^2)), and P, the residue
    of the poles s = a^(1/alpha) e^(+-i pi/alpha), is 0 for alpha <= 1. K
    peaks at r = a^(1/alpha), sharply near alpha = 1, so quad splits there.
    At alpha = 1, E(t) = e^(-a t).
    """
    alpha, a = params.alpha, 1.0 / params.lambda2
    c = 1.0 - params.lambda1 / params.lambda2
    peak = a ** (1.0 / alpha)
    if alpha == 1.0:
        e = _decay_integral(a, t, input_power)
    else:
        sin, cos = math.sin(alpha * math.pi), math.cos(alpha * math.pi)

        def integrand(r):
            ra = r**alpha
            kernel = a * ra / r * sin / (math.pi * (ra * ra + 2.0 * a * ra * cos + a * a))
            return kernel * _decay_integral(r, t, input_power)

        e = sum(
            quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            for lo, hi in ((0.0, peak), (peak, math.inf))
        )
    if alpha > 1.0:
        z = peak * complex(math.cos(math.pi / alpha), math.sin(math.pi / alpha))
        ezt = np.exp(z * t)
        pole = (ezt, (ezt - 1.0) / z, (ezt - 1.0 - z * t) / z**2)[input_power]
        e += 2.0 / alpha * pole.real
    return (t**input_power / math.factorial(input_power) - c * e) / params.mu


def test_mittag_leffler_oracle_matches_reference_values():
    # The de Hoog values pinned for the Talbot oracle, to their 10 decimals.
    params = _params()
    expected = [1.0572215129, 1.2368650381, 0.9588861134, 1.0004174097]
    for t, value in zip([0.25, 0.5, 1.0, 2.0], expected):
        assert abs(params.mu * mittag_leffler_response(params, 0, t) - value) <= 5e-11


@pytest.mark.parametrize("alpha", [0.5, 0.99, 1.01, 1.3, 1.571])
@pytest.mark.parametrize("input_power", [0, 1, 2])
def test_mittag_leffler_oracle_matches_talbot(alpha, input_power):
    # Two independent inversions of one G agree wherever the Talbot contour
    # encloses the poles; 0.99 and 1.01 put K's peak next to a near-pole.
    params = _params(alpha=alpha, beta=alpha)
    times = [0.05, 0.25, 0.5, 1.0, 1.5, 2.0]
    assert all(encloses_poles(params, t) for t in times)
    oracle = np.array([mittag_leffler_response(params, input_power, t) for t in times])
    talbot = np.array([talbot_response(params, input_power, t) for t in times])
    assert np.max(np.abs(oracle - talbot)) <= 1e-10 * np.max(np.abs(oracle))


@pytest.mark.parametrize("alpha", [0.5, 0.9, 1.0, 1.3, 1.571, 1.9])
@pytest.mark.parametrize(
    "kind, magnitude, input_power",
    [("impulse", "area", 0), ("step", "amplitude", 1), ("slope", "rate", 2)],
)
def test_first_order_error_against_mittag_leffler(alpha, kind, magnitude, input_power):
    # Over a 20 s record, past where the Talbot contour holds: the GL error
    # stays below 1e-2 of the response's peak at h = 1e-3, and it halves
    # with h at every checked t where it is above rounding (1e-12 of the
    # peak; the alpha = 1 impulse response settles by t = 2 s). At alpha =
    # 1.9 the poles decay as e^(-0.56 t), so their ringing lasts the record.
    params = _params(alpha=alpha, beta=alpha)
    times = np.array([0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.5, 10.0, 15.0, 20.0])
    exact = np.array([mittag_leffler_response(params, input_power, t) for t in times])
    errors = []
    for h in (1e-3, 5e-4):
        signal = generate_signal(kind, 20.0, h, **{magnitude: 1.0})
        x = simulate(params, signal).output.samples
        errors.append(np.abs(x[np.rint(times / h).astype(int)] - exact))
    scale = np.max(np.abs(exact))
    assert np.max(errors[0]) < 1e-2 * scale, errors[0]
    above_rounding = errors[0] > 1e-12 * scale
    assert above_rounding[:3].all()
    ratios = errors[0][above_rounding] / errors[1][above_rounding]
    assert np.all((1.8 <= ratios) & (ratios <= 2.2)), ratios


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
        signal = generate_signal("slope", 4.0, h, rate=rate)
        output = simulate(params, signal).output
        t = output.times
        late = t >= 2.0
        lag = (params.lambda2 - params.lambda1) * t[late] ** (2.0 - params.alpha)
        asymptote = rate / params.mu * (0.5 * t[late] ** 2 - lag / math.gamma(3.0 - params.alpha))
        errors.append(float(np.max(np.abs(output.samples[late] / asymptote - 1.0))))
    assert errors[1] <= 2e-4, errors
    assert errors[1] < errors[0], errors
