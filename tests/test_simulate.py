import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fojeffreys import (
    FoJeffreysParams,
    SignalSpec,
    SimulationDivergedError,
    TimeSeries,
    classify_late_trend,
    freq_response,
    generate_signal,
    impulse_final_value,
    simulate,
    steady_state_sine_gain,
)

from conftest import CYLINDER


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
        spec = SignalSpec(kind="impulse", duration=1.0, step=0.01, area=1.0)
        signal = generate_signal(spec)
        assert signal.samples[0] == 100.0
        np.testing.assert_array_equal(signal.samples[1:], 0.0)
        assert len(signal) == 101

    def test_slope_ramp(self):
        spec = SignalSpec(kind="slope", duration=1.5, step=0.5, rate=2.0)
        np.testing.assert_array_equal(generate_signal(spec).samples, [0.0, 1.0, 2.0, 3.0])

    def test_step_constant_from_zero(self):
        spec = SignalSpec(kind="step", duration=1.0, step=0.5, amplitude=3.0)
        np.testing.assert_array_equal(generate_signal(spec).samples, [3.0, 3.0, 3.0])

    def test_sine_shape(self):
        spec = SignalSpec(
            kind="sine", duration=1.0, step=0.125, amplitude=2.0, frequency=1.0
        )
        signal = generate_signal(spec)
        t = signal.times
        np.testing.assert_allclose(
            signal.samples, 2.0 * np.sin(2.0 * math.pi * t), atol=1e-12
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "pulse", "duration": 1.0, "step": 0.1, "area": 1.0},
            {"kind": "impulse", "duration": 1.0, "step": 0.1},
            {"kind": "impulse", "duration": 0.0, "step": 0.1, "area": 1.0},
            {"kind": "step", "duration": 1.0, "step": -0.1, "amplitude": 1.0},
            {"kind": "step", "duration": 0.05, "step": 0.1, "amplitude": 1.0},
            {"kind": "sine", "duration": 1.0, "step": 0.1, "amplitude": 1.0},
            {
                "kind": "sine",
                "duration": 1.0,
                "step": 0.1,
                "amplitude": 1.0,
                "frequency": -2.0,
            },
            {"kind": "slope", "duration": 1.0, "step": 0.1, "rate": math.nan},
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            SignalSpec(**kwargs)


class TestSimulate:
    def test_dashpot_reduction_integrates_unit_step(self):
        signal = generate_signal(
            SignalSpec(kind="step", duration=2.0, step=1e-3, amplitude=1.0)
        )
        result = simulate(unit_dashpot(), signal)
        t = result.output.times
        k = np.argmin(np.abs(t - 1.0))
        assert abs(result.output.samples[k] - 1.0) <= 0.01

    def test_impulse_plateau_at_cylinder_params(self, cylinder_params):
        signal = generate_signal(
            SignalSpec(kind="impulse", duration=2.5, step=1e-3, area=1.0)
        )
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
            signal = generate_signal(
                SignalSpec(kind="impulse", duration=2.0, step=step, area=1.0)
            )
            finals.append(simulate(cylinder_params, signal).output.samples[-1])
        plateau = impulse_final_value(cylinder_params, 1.0)
        assert abs(finals[1] - finals[0]) / plateau <= 0.01

    def test_integrator_order_trichotomy(self):
        signal = generate_signal(
            SignalSpec(kind="impulse", duration=2.5, step=1e-3, area=1.0)
        )
        trends = {
            gamma: classify_late_trend(
                simulate(cylinder_with_gamma(gamma), signal).output
            )
            for gamma in (0.9, 1.0, 1.1)
        }
        assert trends == {0.9: "decaying", 1.0: "constant", 1.1: "growing"}

    def test_linearity_and_superposition(self, cylinder_params):
        step_sig = generate_signal(
            SignalSpec(kind="step", duration=0.5, step=1e-3, amplitude=1.0)
        )
        slope_sig = generate_signal(
            SignalSpec(kind="slope", duration=0.5, step=1e-3, rate=2.0)
        )
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
        signal = generate_signal(
            SignalSpec(kind="step", duration=1.0, step=0.01, amplitude=1e308)
        )
        with pytest.raises(SimulationDivergedError) as excinfo:
            simulate(params, signal)
        assert excinfo.value.sample_index == 0

    def test_divergence_limit_enforced(self, cylinder_params):
        signal = generate_signal(
            SignalSpec(kind="impulse", duration=0.5, step=1e-3, area=1.0)
        )
        with pytest.raises(SimulationDivergedError) as excinfo:
            simulate(cylinder_params, signal, divergence_limit=1e-9)
        assert 0 <= excinfo.value.sample_index < len(signal)

    def test_slope_input_lags_dashpot_with_algebraic_settling(self, cylinder_params):
        # The ratio to the pure dashpot starts near lambda1/lambda2 and creeps
        # back to one with a t^-alpha tail; the 5 percent band is reached
        # around t ~ 1.3 s (roughly 28 * lambda2), far later than a few
        # exponential time constants would suggest.
        rate = 1000.0
        signal = generate_signal(
            SignalSpec(kind="slope", duration=3.0, step=2e-4, rate=rate)
        )
        output = simulate(cylinder_params, signal).output
        t = output.times[1:]
        ratio = output.samples[1:] / (rate * t**2 / (2.0 * cylinder_params.mu))
        assert np.all(ratio < 1.0)
        early = t <= 5.0 * cylinder_params.lambda2
        assert np.max(ratio[early]) < 0.6
        settled = t >= 1.5
        assert np.max(np.abs(ratio[settled] - 1.0)) <= 0.05

    def test_result_grid_consistency(self, cylinder_params):
        signal = generate_signal(
            SignalSpec(kind="step", duration=0.2, step=1e-3, amplitude=1.0)
        )
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


class TestCausality:
    """The response at sample k depends only on tau[0..k], shifted with it.

    Both properties fail if the FFT convolution wraps around or is padded
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
        # The kernel is recomputed for the longer record, and its rounding is
        # amplified by the stiffness lambda2 * h^-alpha of the displacement
        # solve (the ratio of the two terms on its diagonal).
        stiffness = params.lambda2 * tau.step ** (-params.alpha)
        tol = 1e-12 * max(1.0, stiffness / 10.0) * np.max(np.abs(x))
        np.testing.assert_allclose(got[:k], 0.0, rtol=0, atol=tol)
        np.testing.assert_allclose(got[k:], x, rtol=0, atol=tol)

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


class TestImpulseFinalValue:
    def test_unit_integrator_gives_area_over_gain(self, cylinder_params):
        assert impulse_final_value(cylinder_params, 1.0) == 1.0 / 171e3
        assert impulse_final_value(cylinder_params, 2.5) == 2.5 / 171e3

    def test_sub_unit_order_decays_to_zero(self):
        assert impulse_final_value(cylinder_with_gamma(0.5), 1.0) == 0.0

    def test_super_unit_order_diverges(self):
        assert impulse_final_value(cylinder_with_gamma(1.5), 1.0) == math.inf

    def test_long_horizon_simulation_oracle(self, cylinder_params):
        signal = generate_signal(
            SignalSpec(kind="impulse", duration=2.5, step=1e-3, area=1.0)
        )
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

    def test_too_few_cycles_rejected(self, cylinder_params):
        with pytest.raises(ValueError):
            steady_state_sine_gain(cylinder_params, 1.0, cycles=3, step=1e-3)

    def test_too_coarse_step_rejected(self, cylinder_params):
        with pytest.raises(ValueError):
            steady_state_sine_gain(cylinder_params, 1.0, cycles=8, step=0.02)


class TestLateTrend:
    def test_zero_series_is_constant(self):
        series = TimeSeries(step=0.1, samples=np.zeros(50))
        assert classify_late_trend(series) == "constant"

    def test_bad_fraction(self):
        series = TimeSeries(step=0.1, samples=np.ones(50))
        with pytest.raises(ValueError):
            classify_late_trend(series, fraction=0.0)
