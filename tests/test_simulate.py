import gc
import importlib
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg import solve_triangular, toeplitz

from fojeffreys import (
    FoJeffreysParams,
    SimulationDivergedError,
    SimulationResult,
    TimeSeries,
    classify_late_trend,
    freq_response,
    generate_signal,
    impulse_final_value,
    gl_weights,
    simulate,
    steady_state_sine_gain,
)
from fojeffreys.fractional import _causal_convolve

from conftest import CYLINDER

# The package exports the function under the module's name.
simulate_module = importlib.import_module("fojeffreys.simulate")


def cylinder_with_gamma(gamma: float) -> FoJeffreysParams:
    values = dict(CYLINDER)
    values["gamma"] = gamma
    return FoJeffreysParams(**values)


def unit_dashpot() -> FoJeffreysParams:
    return FoJeffreysParams(
        mu=1.0, lambda1=0.1, lambda2=0.1, alpha=1.0, beta=1.0, gamma=1.0
    )


class TestGenerateSignal:
    def test_impulse_is_unit_area_first_sample(self):
        signal = generate_signal("impulse", 1.0, 0.01, area=1.0)
        assert signal.samples[0] == 100.0
        np.testing.assert_array_equal(signal.samples[1:], 0.0)
        assert len(signal) == 101

    def test_slope_ramp(self):
        signal = generate_signal("slope", 1.5, 0.5, rate=2.0)
        np.testing.assert_array_equal(signal.samples, [0.0, 1.0, 2.0, 3.0])

    def test_step_constant_from_zero(self):
        signal = generate_signal("step", 1.0, 0.5, amplitude=3.0)
        np.testing.assert_array_equal(signal.samples, [3.0, 3.0, 3.0])

    def test_sine_shape(self):
        signal = generate_signal("sine", 1.0, 0.125, amplitude=2.0, frequency=1.0)
        t = signal.times
        np.testing.assert_allclose(
            signal.samples, 2.0 * np.sin(2.0 * math.pi * t), atol=1e-12
        )

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (
                {"kind": "pulse", "duration": 1.0, "step": 0.1, "area": 1.0},
                "signal kind must be one of ('impulse', 'step', 'slope', 'sine'), got 'pulse'",
            ),
            (
                {"kind": "impulse", "duration": 1.0, "step": 0.1},
                "signal kind 'impulse' requires finite area",
            ),
            (
                {"kind": "impulse", "duration": 0.0, "step": 0.1, "area": 1.0},
                "duration must be positive, got 0.0",
            ),
            (
                {"kind": "step", "duration": 1.0, "step": -0.1, "amplitude": 1.0},
                "step must be positive, got -0.1",
            ),
            (
                {"kind": "step", "duration": 0.05, "step": 0.1, "amplitude": 1.0},
                "step 0.1 exceeds duration 0.05",
            ),
            (
                {"kind": "sine", "duration": 1.0, "step": 0.1, "amplitude": 1.0},
                "signal kind 'sine' requires finite frequency",
            ),
            (
                {
                    "kind": "sine",
                    "duration": 1.0,
                    "step": 0.1,
                    "amplitude": 1.0,
                    "frequency": -2.0,
                },
                "sine frequency must be positive, got -2.0",
            ),
            (
                {"kind": "slope", "duration": 1.0, "step": 0.1, "rate": math.nan},
                "signal kind 'slope' requires finite rate",
            ),
            # duration/step overflows the sample count
            (
                {"kind": "impulse", "duration": 2.5, "step": 1e-310, "area": 1.0},
                "duration 2.5 / step 1e-310 overflows the sample count",
            ),
            (
                {"kind": "step", "duration": 1e300, "step": 1e-10, "amplitude": 1.0},
                "duration 1e+300 / step 1e-10 overflows the sample count",
            ),
        ],
        ids=[f"kwargs{i}" for i in range(10)],
    )
    def test_invalid_specs(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_signal(**kwargs)


class TestSimulate:
    def test_dashpot_reduction_integrates_unit_step(self):
        signal = generate_signal("step", 2.0, 1e-3, amplitude=1.0)
        result = simulate(unit_dashpot(), signal)
        t = result.output.times
        k = np.argmin(np.abs(t - 1.0))
        assert abs(result.output.samples[k] - 1.0) <= 0.01

    def test_impulse_plateau_at_cylinder_params(self, cylinder_params):
        signal = generate_signal("impulse", 2.5, 1e-3, area=1.0)
        result = simulate(cylinder_params, signal)
        plateau = impulse_final_value(cylinder_params, 1.0)
        t = result.output.times
        # the fractional pair rings; the response stays inside the 2 percent
        # band from about t = 1.2 s on and the tail settles well inside it
        late = t >= 1.2
        deviation = np.abs(result.output.samples[late] - plateau) / plateau
        assert np.max(deviation) <= 0.02
        assert abs(result.output.samples[-1] - plateau) / plateau <= 0.005

    def test_grid_refinement_keeps_plateau(self, cylinder_params):
        finals = []
        for step in (1e-3, 5e-4):
            signal = generate_signal("impulse", 2.0, step, area=1.0)
            finals.append(simulate(cylinder_params, signal).output.samples[-1])
        plateau = impulse_final_value(cylinder_params, 1.0)
        assert abs(finals[1] - finals[0]) / plateau <= 0.01

    def test_integrator_order_trichotomy(self):
        signal = generate_signal("impulse", 2.5, 1e-3, area=1.0)
        trends = {
            gamma: classify_late_trend(
                simulate(cylinder_with_gamma(gamma), signal).output
            )
            for gamma in (0.9, 1.0, 1.1)
        }
        assert trends == {0.9: "decaying", 1.0: "constant", 1.1: "growing"}

    def test_linearity_and_superposition(self, cylinder_params):
        step_sig = generate_signal("step", 0.5, 1e-3, amplitude=1.0)
        slope_sig = generate_signal("slope", 0.5, 1e-3, rate=2.0)
        scaled = TimeSeries(step=1e-3, samples=3.0 * step_sig.samples)
        combo = TimeSeries(
            step=1e-3, samples=step_sig.samples + 0.5 * slope_sig.samples
        )
        out_step = simulate(cylinder_params, step_sig).output.samples
        out_slope = simulate(cylinder_params, slope_sig).output.samples
        out_scaled = simulate(cylinder_params, scaled).output.samples
        out_combo = simulate(cylinder_params, combo).output.samples
        scale = np.max(np.abs(out_step))
        np.testing.assert_allclose(out_scaled, 3.0 * out_step, atol=1e-12 * scale)
        np.testing.assert_allclose(
            out_combo, out_step + 0.5 * out_slope, atol=1e-12 * scale
        )

    def test_divergence_reports_sample_index(self):
        params = FoJeffreysParams(
            mu=1e-3, lambda1=0.01, lambda2=0.05, alpha=1.2, beta=1.2, gamma=1.0
        )
        signal = generate_signal("step", 1.0, 0.01, amplitude=1e308)
        with pytest.raises(SimulationDivergedError) as excinfo:
            simulate(params, signal)
        assert excinfo.value.sample_index == 0

    def test_divergence_limit_enforced(self, cylinder_params):
        signal = generate_signal("impulse", 0.5, 1e-3, area=1.0)
        with pytest.raises(SimulationDivergedError) as excinfo:
            simulate(cylinder_params, signal, divergence_limit=1e-9)
        assert 0 <= excinfo.value.sample_index < len(signal)

    @pytest.mark.parametrize("limit", [math.nan, -1.0, -math.inf])
    def test_divergence_limit_must_be_non_negative(self, cylinder_params, limit):
        # NaN would switch the check off, and -1 would report sample 0.
        signal = TimeSeries(step=1e-3, samples=np.ones(10))
        with pytest.raises(ValueError, match="divergence limit"):
            simulate(cylinder_params, signal, divergence_limit=limit)

    def test_zero_and_infinite_limits_are_admitted(self, cylinder_params):
        # A zero input stays within a zero limit; no output passes inf.
        zero = TimeSeries(step=1e-3, samples=np.zeros(10))
        assert not simulate(cylinder_params, zero, divergence_limit=0.0).output.samples.any()
        signal = TimeSeries(step=1e-3, samples=np.ones(10))
        got = simulate(cylinder_params, signal, divergence_limit=math.inf).output.samples
        assert got.tobytes() == simulate(cylinder_params, signal).output.samples.tobytes()

    def test_slope_input_lags_dashpot_with_algebraic_settling(self, cylinder_params):
        # The ratio to the pure dashpot starts near lambda1/lambda2 and creeps
        # back to one with a t^-alpha tail; the 5 percent band is reached
        # around t ~ 1.3 s (roughly 28 * lambda2), far later than a few
        # exponential time constants would suggest.
        rate = 1000.0
        signal = generate_signal("slope", 3.0, 2e-4, rate=rate)
        output = simulate(cylinder_params, signal).output
        t = output.times[1:]
        ratio = output.samples[1:] / (rate * t**2 / (2.0 * cylinder_params.mu))
        assert np.all(ratio < 1.0)
        early = t <= 5.0 * cylinder_params.lambda2
        assert np.max(ratio[early]) < 0.6
        settled = t >= 1.5
        assert np.max(np.abs(ratio[settled] - 1.0)) <= 0.05

    def test_plain_array_rejected(self, cylinder_params):
        with pytest.raises(TypeError, match="simulate expects a TimeSeries"):
            simulate(cylinder_params, np.ones(10))

    def test_result_refuses_mismatched_lengths(self, cylinder_params):
        signal = TimeSeries(step=1e-3, samples=np.ones(10))
        shorter = TimeSeries(step=1e-3, samples=np.ones(9))
        with pytest.raises(ValueError, match="share step and length"):
            SimulationResult(input=signal, output=shorter, params=cylinder_params)

    def test_result_grid_consistency(self, cylinder_params):
        signal = generate_signal("step", 0.2, 1e-3, amplitude=1.0)
        result = simulate(cylinder_params, signal)
        assert len(result.input) == len(result.output)
        assert result.input.step == result.output.step
        assert result.params is cylinder_params


@st.composite
def constrained_case(draw):
    """Random constrained parameters, step and a seeded force record."""
    lambda2 = 10.0 ** draw(st.floats(-3.0, 0.0))
    alpha = draw(st.floats(0.1, 1.9))
    params = FoJeffreysParams(
        mu=10.0 ** draw(st.floats(-3.0, 6.0)),
        lambda1=lambda2 * draw(st.floats(0.01, 0.99)),
        lambda2=lambda2,
        alpha=alpha,
        beta=alpha,
        gamma=1.0,
    )
    n = draw(st.integers(2, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = 10.0 ** draw(st.floats(-4.0, -1.0))
    return params, TimeSeries(step=step, samples=rng.normal(size=n)), rng


def random_params(rng, constrained: bool = True) -> FoJeffreysParams:
    """Seeded parameters with gamma = 1, from ``constrained_case``'s ranges;
    unconstrained: beta != alpha and lambda1 up to 3 * lambda2."""
    lambda2 = 10.0 ** rng.uniform(-3.0, 0.0)
    alpha = rng.uniform(0.1, 1.9)
    if constrained:
        lambda1, beta = lambda2 * rng.uniform(0.01, 0.99), alpha
    else:
        lambda1, beta = lambda2 * rng.uniform(0.01, 3.0), rng.uniform(0.1, 1.9)
    return FoJeffreysParams(
        mu=10.0 ** rng.uniform(-3.0, 6.0),
        lambda1=lambda1,
        lambda2=lambda2,
        alpha=alpha,
        beta=beta,
        gamma=1.0,
    )


class TestCausality:
    """The response at sample k depends only on tau[0..k], shifted with it.

    Both properties fail if the contour transforms wrap around or are padded
    too little.
    """

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(constrained_case(), st.integers(1, 500))
    def test_prepended_zeros_delay_the_response(self, case, k):
        params, tau, _ = case
        x = simulate(params, tau).output.samples
        delayed = TimeSeries(
            step=tau.step, samples=np.concatenate([np.zeros(k), tau.samples])
        )
        got = simulate(params, delayed).output.samples
        # The longer record is solved on another contour, and the rounding
        # grows with the stiffness lambda2 * h^-alpha (the ratio of the two
        # terms of G's denominator at s = 1/h).
        stiffness = params.lambda2 * tau.step ** (-params.alpha)
        tol = 1e-12 * max(1.0, stiffness / 10.0) * np.max(np.abs(x))
        np.testing.assert_allclose(got[:k], 0.0, rtol=0, atol=tol)
        np.testing.assert_allclose(got[k:], x, rtol=0, atol=tol)

    def test_prepended_zeros_seeded_sweep(self):
        # The property above on seeded draws from the same ranges, which do
        # not move when the package's literals change Hypothesis's draws.
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(150):
            params = random_params(rng)
            n, k = int(rng.integers(2, 2001)), int(rng.integers(1, 501))
            tau = TimeSeries(step=10.0 ** rng.uniform(-4.0, -1.0), samples=rng.normal(size=n))
            x = simulate(params, tau).output.samples
            delayed = TimeSeries(
                step=tau.step, samples=np.concatenate([np.zeros(k), tau.samples])
            )
            got = simulate(params, delayed).output.samples
            stiffness = params.lambda2 * tau.step ** (-params.alpha)
            tol = 1e-12 * max(1.0, stiffness / 10.0) * np.max(np.abs(x))
            error = max(np.max(np.abs(got[:k])), np.max(np.abs(got[k:] - x)))
            worst = max(worst, error / tol)
        assert worst <= 1.0, worst

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(constrained_case(), st.floats(0.0, 1.0))
    def test_later_input_leaves_earlier_output(self, case, fraction):
        params, tau, rng = case
        j = int(fraction * (len(tau) - 1))
        changed = tau.samples.copy()
        changed[j:] = rng.normal(size=len(tau) - j)
        x = simulate(params, tau).output.samples
        got = simulate(params, TimeSeries(step=tau.step, samples=changed)).output.samples
        np.testing.assert_allclose(
            got[:j], x[:j], rtol=0, atol=1e-12 * np.max(np.abs(x))
        )


class TestSharedNodes:
    """Each block of nodes takes ln s once, for s^alpha, s^beta and s^gamma."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_simulate_bit_for_bit(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        # Even seeds constrained, odd ones not; 1-4 sets; every third input
        # an impulse. n < 3000 keeps every node in one default block.
        base = random_params(rng, constrained=seed % 2 == 0)
        param_sets = [replace(base, gamma=g) for g in rng.uniform(0.05, 1.95, 1 + seed % 4)]
        n = int(rng.integers(2, 3000))
        samples = rng.normal(size=n)
        if seed % 3 == 0:
            samples[1:] = 0.0
        tau = TimeSeries(step=10.0 ** rng.uniform(-4.0, -1.0), samples=samples)
        whole = [simulate(params, tau).output.samples for params in param_sets]

        powers = []
        power = simulate_module._power
        monkeypatch.setattr(
            simulate_module, "_power", lambda p, *a: powers.append(p) or power(p, *a)
        )
        monkeypatch.setattr(simulate_module, "_NODE_CHUNK", 257)
        blocked = [simulate(params, tau).output.samples for params in param_sets]
        assert [x.tobytes() for x in blocked] == [x.tobytes() for x in whole]
        # Per call and block: s^alpha, s^beta unless it is s^alpha, s^gamma.
        blocks = -(-(next_fast_len(5 * n, real=True) // 2 + 1) // 257)
        per_call = 1 + len({base.alpha, base.beta})
        assert len(powers) == blocks * len(param_sets) * per_call
        assert set(powers) == {base.alpha, base.beta} | {p.gamma for p in param_sets}

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 2501])
    @pytest.mark.parametrize(
        "first, later",
        [(2.5, 0.0), (-0.75, 0.0), (0.0, 0.0), (3.0, -0.0)],
        ids=["delta", "negative", "all-zero", "minus-zero-tail"],
    )
    def test_delta_spectrum_is_the_rfft(self, monkeypatch, cylinder_params, n, first, later):
        samples = np.full(n, later)
        samples[0] = first
        u = samples / (abs(first) or 1.0)
        size = next_fast_len(5 * n, real=True)
        np.testing.assert_array_equal(simulate_module._input_spectrum(u, size), rfft(u, size))

        def no_rfft(*args):
            raise AssertionError("a delta input needs no rfft")

        tau = TimeSeries(step=1e-3, samples=samples)
        monkeypatch.setattr(simulate_module, "rfft", no_rfft)
        got = simulate(cylinder_params, tau).output.samples
        monkeypatch.setattr(simulate_module, "_input_spectrum", rfft)
        assert got.tobytes() == simulate(cylinder_params, tau).output.samples.tobytes()


class TestTransforms:
    """numpy.fft gives the bits the solve had with scipy.fft's transforms."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["impulse", "slope"])
    def test_same_bits_as_scipy_fft(self, monkeypatch, kind, seed):
        # An impulse takes the delta shortcut and a slope goes through rfft.
        rng = np.random.default_rng(seed)
        params = random_params(rng, constrained=seed % 2 == 0)
        step = 10.0 ** rng.uniform(-4.0, -2.0)
        n = int(rng.integers(2, 40_001))
        value = {"area" if kind == "impulse" else "rate": rng.uniform(0.1, 10.0)}
        tau = generate_signal(kind, (n - 1) * step, step, **value)
        got = simulate(params, tau).output.samples
        monkeypatch.setattr(simulate_module, "rfft", rfft)
        monkeypatch.setattr(simulate_module, "irfft", irfft)
        assert got.tobytes() == simulate(params, tau).output.samples.tobytes()


class TestImpulseFinalValue:
    def test_unit_integrator_gives_area_over_gain(self, cylinder_params):
        assert impulse_final_value(cylinder_params, 1.0) == 1.0 / 171e3
        assert impulse_final_value(cylinder_params, 2.5) == 2.5 / 171e3

    def test_sub_unit_order_decays_to_zero(self):
        assert impulse_final_value(cylinder_with_gamma(0.5), 1.0) == 0.0

    def test_super_unit_order_diverges(self):
        assert impulse_final_value(cylinder_with_gamma(1.5), 1.0) == math.inf

    def test_long_horizon_simulation_oracle(self, cylinder_params):
        signal = generate_signal("impulse", 2.5, 1e-3, area=1.0)
        final = simulate(cylinder_params, signal).output.samples[-1]
        assert abs(final - impulse_final_value(cylinder_params, 1.0)) <= 0.02 / 171e3

    def test_invalid_area(self, cylinder_params):
        with pytest.raises(ValueError):
            impulse_final_value(cylinder_params, math.nan)


class TestSteadyStateSineGain:
    def test_dashpot_matches_quadrature(self):
        frequency = 1.0 / (2.0 * math.pi)
        magnitude, phase = steady_state_sine_gain(
            unit_dashpot(), frequency, cycles=8, step=1.0 / (800.0 * frequency)
        )
        assert abs(magnitude - 1.0) <= 0.01
        assert abs(phase + 90.0) <= 1.0

    @pytest.mark.parametrize("frequency", [0.1, 1.6])
    def test_matches_freq_response(self, cylinder_params, frequency):
        magnitude, phase = steady_state_sine_gain(
            cylinder_params, frequency, cycles=8, step=1.0 / (800.0 * frequency)
        )
        gain = freq_response(cylinder_params, 2.0 * math.pi * frequency)
        assert abs(magnitude - abs(gain)) / abs(gain) <= 0.02
        assert abs(phase - math.degrees(np.angle(gain))) <= 2.0

    def test_zero_frequency_rejected(self, cylinder_params):
        with pytest.raises(ValueError, match="frequency must be positive, got 0.0"):
            steady_state_sine_gain(cylinder_params, 0.0, cycles=8, step=1e-3)

    def test_too_few_cycles_rejected(self, cylinder_params):
        with pytest.raises(ValueError):
            steady_state_sine_gain(cylinder_params, 1.0, cycles=3, step=1e-3)

    def test_too_coarse_step_rejected(self, cylinder_params):
        with pytest.raises(ValueError):
            steady_state_sine_gain(cylinder_params, 1.0, cycles=8, step=0.02)

    @pytest.mark.parametrize("step", [0.0, -1e-3, math.inf, math.nan])
    def test_invalid_step_rejected(self, cylinder_params, step):
        # The step is checked before samples per cycle are counted from it.
        with pytest.raises(ValueError, match="step must be positive"):
            steady_state_sine_gain(cylinder_params, 1.0, cycles=8, step=step)


def kernel_system(alpha: float, n: int, h: float = 1e-3):
    """Denominator and numerator GL power series of the cylinder kernel.

    The kernel g solves lhs * g = rhs as power series in the unit delay.
    """
    params = FoJeffreysParams(**{**CYLINDER, "alpha": alpha, "beta": alpha})

    def gl_operator(order, coefficient):
        return coefficient * h ** (-order) * gl_weights(order, n - 1)

    forcing = gl_operator(params.beta, params.lambda1)
    forcing[0] += 1.0
    lhs = gl_operator(params.alpha, params.mu * params.lambda2)
    lhs[0] += params.mu
    return lhs, _causal_convolve(forcing, gl_operator(-params.gamma, 1.0))


class TestToeplitzSolve:
    """The unit-impulse response against a dense triangular Toeplitz solve.

    ``solve_triangular(toeplitz(lhs), rhs)`` divides the GL series directly,
    without the contour. n = 4097 gives an odd transform size. A longer
    record puts more nodes on a wider circle and must leave its first n
    samples unchanged.
    """

    @pytest.mark.parametrize("alpha", [0.7, 1.571, 1.95])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 1000, 4097])
    @pytest.mark.parametrize("longer_record", [False, True])
    def test_matches_dense_triangular_solve(self, alpha, n, longer_record):
        h = 1e-3
        c, y = kernel_system(alpha, n, h)
        dense = solve_triangular(toeplitz(c, np.zeros(n)), y, lower=True)
        impulse = np.zeros(2 * n + 3 if longer_record else n)
        impulse[0] = 1.0 / h
        params = FoJeffreysParams(**{**CYLINDER, "alpha": alpha, "beta": alpha})
        x = simulate(params, TimeSeries(step=h, samples=impulse)).output.samples
        x = h * x[:n]
        assert np.linalg.norm(x - dense) <= 1e-9 * np.linalg.norm(dense)


@pytest.mark.parametrize(
    "params",
    [
        FoJeffreysParams(**CYLINDER),
        FoJeffreysParams(
            mu=2.0, lambda1=0.3, lambda2=0.05, alpha=0.7, beta=1.4, gamma=1.3
        ),
    ],
    ids=["cylinder", "unconstrained"],
)
@pytest.mark.parametrize(
    "kind, magnitude", [("impulse", {"area": 1.0}), ("step", {"amplitude": 1.0})]
)
def test_first_order_convergence_in_step(params, kind, magnitude):
    # GL is a first-order scheme: halving h halves the change at fixed t.
    times = np.array([0.25, 0.5, 1.0, 2.0])
    values = []
    for h in (2e-3, 1e-3, 5e-4, 2.5e-4):
        signal = generate_signal(kind, 2.0, h, **magnitude)
        output = simulate(params, signal).output.samples
        values.append(output[np.rint(times / h).astype(int)])
    changes = [np.max(np.abs(a - b)) for a, b in zip(values, values[1:])]
    ratios = np.array(changes[:-1]) / np.array(changes[1:])
    assert np.all((1.8 <= ratios) & (ratios <= 2.2)), ratios


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    constrained_case(),
    st.floats(-1e3, 1e3, allow_subnormal=False),
    st.floats(-1e3, 1e3, allow_subnormal=False),
)
def test_response_is_linear_in_the_input(case, a, b):
    params, u, rng = case
    v = TimeSeries(step=u.step, samples=rng.normal(size=len(u)))
    x_u = simulate(params, u).output.samples
    x_v = simulate(params, v).output.samples
    combo = TimeSeries(step=u.step, samples=a * u.samples + b * v.samples)
    got = simulate(params, combo).output.samples
    scale = abs(a) * np.max(np.abs(x_u)) + abs(b) * np.max(np.abs(x_v))
    np.testing.assert_allclose(got, a * x_u + b * x_v, rtol=0, atol=1e-12 * scale)


def test_long_simulation_peak_memory(cylinder_params):
    # G at all L/2 + 1 = 81k contour nodes at once would hold several complex
    # temporaries of that length: an 11 MiB peak instead of about 3 MiB.
    signal = generate_signal("impulse", 40.0, 1e-3, area=1.0)
    simulate(cylinder_params, signal)
    tracemalloc.start()
    try:
        simulate(cylinder_params, signal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20


def test_shared_nodes_peak_memory_does_not_grow_with_the_calls(cylinder_params):
    # Each call forms its nodes block by block and keeps none for the next,
    # so 12 calls peak where 3 do: one call's own peak next to the output
    # of the call before it, which the loop drops only on the next result.
    signal = generate_signal("impulse", 40.0, 1e-3, area=1.0)

    def peak(calls: int) -> int:
        tracemalloc.start()
        try:
            for g in np.linspace(0.5, 1.5, calls):
                result = simulate(replace(cylinder_params, gamma=g), signal)
            del result
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(3)
    three, twelve = peak(3), peak(12)
    assert three <= 7.5 * 2**20
    assert twelve <= three + 2**16


def test_long_simulation_leaves_no_reference_cycles(cylinder_params):
    # A recursion that closed over itself would leave garbage for the
    # cycle collector on every call.
    signal = generate_signal("impulse", 40.0, 1e-3, area=1.0)
    simulate(cylinder_params, signal)
    gc.collect()
    gc.disable()
    try:
        simulate(cylinder_params, signal)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestLateTrend:
    def test_zero_series_is_constant(self):
        series = TimeSeries(step=0.1, samples=np.zeros(50))
        assert classify_late_trend(series) == "constant"

    def test_one_sample_is_constant(self):
        # No slope is measurable from one sample.
        assert classify_late_trend(TimeSeries(step=1.0, samples=[1.0])) == "constant"

    @pytest.mark.parametrize(
        ("samples", "trend"),
        [
            ([1.0, 2.0], "growing"),
            ([2.0, 1.0], "decaying"),
            ([1.0, 1.001], "constant"),
            ([-3.0, 1.0], "decaying"),  # the magnitude falls
        ],
    )
    def test_two_samples_fit_one_line(self, samples, trend):
        assert classify_late_trend(TimeSeries(step=1.0, samples=samples)) == trend

    @pytest.mark.parametrize(
        ("slope", "trend"), [(1.0, "growing"), (0.0, "constant"), (-1.0, "decaying")]
    )
    def test_records_near_the_top_of_binary64(self, slope, trend):
        # The window's sum of |x| passes the largest double; the rate, which
        # does not depend on the scale, must not read 0. Warnings are errors.
        t = np.arange(5001) * 1e-3
        samples = 1e306 * (6.0 + slope * t)
        assert classify_late_trend(TimeSeries(step=1e-3, samples=samples)) == trend
        assert classify_late_trend(TimeSeries(step=1e-3, samples=-samples)) == trend

    @pytest.mark.parametrize(
        ("slope", "trend"), [(1.0, "growing"), (0.0, "constant"), (-1.0, "decaying")]
    )
    def test_steps_near_the_top_of_binary64(self, slope, trend):
        # The fit takes no time axis, so t near 1e300 cannot overflow it; per
        # second, the same samples change by about 1e-300 and read "constant".
        samples = 20.0 + slope * np.arange(11)
        assert classify_late_trend(TimeSeries(step=1.0, samples=samples)) == trend
        assert classify_late_trend(TimeSeries(step=1e299, samples=samples)) == "constant"
