import math

import numpy as np
import pytest
import scipy.special as sp

from fojeffreys import (
    TimeSeries,
    dirac_differintegral_analytic,
    gamma_fn,
    gl_differintegral,
    gl_weights,
)


def weights_direct(order: float, i: np.ndarray) -> np.ndarray:
    """Independent weight oracle: (-1)^i * binom(order, i) via scipy.

    For negative orders the reflection binom(a, i) = (-1)^i binom(i-a-1, i)
    avoids the gamma poles at non-positive integer arguments.
    """
    i = np.asarray(i)
    if order < 0:
        return sp.binom(i - order - 1.0, i)
    return (-1.0) ** i * sp.binom(order, i)


def power_rule(k: int, order: float, t: np.ndarray) -> np.ndarray:
    """Analytic differintegral of t^k: Gamma(k+1)/Gamma(k+1-order) * t^(k-order)."""
    with np.errstate(divide="ignore"):  # t = 0 with k < order; masked by callers
        return sp.gamma(k + 1) / sp.gamma(k + 1 - order) * t ** (k - order)


class TestGammaFn:
    def test_classical_identities(self):
        assert math.isclose(gamma_fn(1.0), 1.0, rel_tol=1e-12)
        assert math.isclose(gamma_fn(0.5), math.sqrt(math.pi), rel_tol=1e-12)
        assert math.isclose(gamma_fn(5.0), 24.0, rel_tol=1e-12)

    def test_reference_accuracy_over_domain(self):
        zs = np.concatenate(
            [np.linspace(-9.97, -0.03, 331), np.linspace(0.03, 30.0, 443)]
        )
        zs = zs[np.abs(zs - np.round(zs)) > 1e-3]
        for z in zs:
            assert abs(gamma_fn(z) - sp.gamma(z)) <= 1e-10 * abs(sp.gamma(z))

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0])
    def test_pole_error(self, z):
        with pytest.raises(ValueError):
            gamma_fn(z)

    def test_non_finite_error(self):
        with pytest.raises(ValueError):
            gamma_fn(math.nan)


class TestGlWeights:
    def test_first_difference(self):
        np.testing.assert_array_equal(gl_weights(1.0, 3).weights, [1.0, -1.0, 0.0, 0.0])

    def test_integration_all_ones(self):
        np.testing.assert_array_equal(gl_weights(-1.0, 3).weights, [1.0, 1.0, 1.0, 1.0])

    def test_half_order_sequence(self):
        expected = [1.0, -0.5, -0.125, -0.0625]
        got = gl_weights(0.5, 3).weights
        np.testing.assert_allclose(got, expected, rtol=1e-15)
        np.testing.assert_allclose(got, weights_direct(0.5, np.arange(4)), rtol=1e-14)

    @pytest.mark.parametrize("order", [-1.0, -0.5, 0.5, 1.0, 1.571])
    def test_recursion_matches_direct_binomial(self, order):
        table = gl_weights(order, 50)
        oracle = weights_direct(order, np.arange(51))
        nonzero = np.abs(oracle) > 0.0
        rel = np.abs(table.weights[nonzero] - oracle[nonzero]) / np.abs(oracle[nonzero])
        assert np.max(rel) <= 1e-12
        np.testing.assert_array_equal(table.weights[~nonzero], 0.0)

    def test_leading_weight_is_one(self):
        rng = np.random.default_rng(3)
        for order in rng.uniform(-2.0, 2.0, size=20):
            assert gl_weights(order, 5).weights[0] == 1.0

    @pytest.mark.parametrize("order", [0.1, 0.37, 0.5, 0.93])
    def test_unit_interval_orders_negative_and_increasing(self, order):
        w = gl_weights(order, 40).weights
        assert np.all(w[1:] < 0.0)
        assert np.all(np.diff(w[1:]) > 0.0)

    def test_partial_sum_identity(self):
        # sum_{i<=n} w_i equals (-1)^n * binom(order-1, n)
        rng = np.random.default_rng(7)
        for _ in range(60):
            order = float(rng.uniform(-2.0, 2.0))
            n = int(rng.integers(1, 60))
            lhs = gl_weights(order, n).weights.sum()
            rhs = float(weights_direct(order - 1.0, np.array([n]))[0])
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            gl_weights(math.inf, 3)
        with pytest.raises(ValueError):
            gl_weights(math.nan, 3)
        with pytest.raises(ValueError):
            gl_weights(0.5, -1)


class TestTimeSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeries(step=0.0, samples=[1.0])
        with pytest.raises(ValueError):
            TimeSeries(step=0.1, samples=[])
        with pytest.raises(ValueError):
            TimeSeries(step=0.1, samples=[1.0, math.inf])

    def test_times_and_duration(self):
        series = TimeSeries(step=0.5, samples=[0.0, 1.0, 2.0])
        np.testing.assert_allclose(series.times, [0.0, 0.5, 1.0])
        assert series.duration == 1.0

    def test_samples_are_read_only(self):
        series = TimeSeries(step=0.5, samples=[0.0, 1.0])
        with pytest.raises(ValueError):
            series.samples[0] = 5.0


class TestGlDifferintegral:
    def test_identity_order(self):
        series = TimeSeries(step=0.01, samples=np.full(50, 3.7))
        out = gl_differintegral(series, 0.0)
        np.testing.assert_array_equal(out.samples, series.samples)

    def test_classical_derivative_of_ramp(self):
        h = 1e-3
        t = np.arange(0, 1.0 + h / 2, h)
        out = gl_differintegral(TimeSeries(step=h, samples=t), 1.0)
        np.testing.assert_allclose(out.samples[1:], 1.0, rtol=1e-10)

    def test_half_derivative_of_ramp(self):
        h = 1e-3
        t = np.arange(0, 1.0 + h / 2, h)
        out = gl_differintegral(TimeSeries(step=h, samples=t), 0.5).samples
        exact = 2.0 * np.sqrt(t / math.pi)
        mask = t >= 0.1
        rel = np.abs(out[mask] - exact[mask]) / exact[mask]
        assert np.max(rel) <= 0.01

    @pytest.mark.parametrize("order", [0.3, 0.5, 1.5])
    def test_convergence_order_on_quadratic(self, order):
        errors = []
        for h in (1e-3, 5e-4):
            t = np.arange(0, 1.0 + h / 2, h)
            out = gl_differintegral(TimeSeries(step=h, samples=t**2), order).samples
            exact = power_rule(2, order, t)
            mask = t >= 0.1
            errors.append(np.max(np.abs(out[mask] - exact[mask])))
        ratio = errors[1] / errors[0]
        assert 0.4 <= ratio <= 0.6

    def test_linearity_to_round_off(self):
        h = 1e-3
        t = np.arange(0, 1.0 + h / 2, h)
        f = np.sin(3.0 * t) + t**2
        g = np.cos(2.0 * t)
        combined = gl_differintegral(
            TimeSeries(step=h, samples=2.5 * f - 1.5 * g), 0.7
        ).samples
        separate = (
            2.5 * gl_differintegral(TimeSeries(step=h, samples=f), 0.7).samples
            - 1.5 * gl_differintegral(TimeSeries(step=h, samples=g), 0.7).samples
        )
        np.testing.assert_allclose(combined, separate, atol=1e-10)

    def test_integrator_semigroup(self):
        h = 1e-3
        t = np.arange(0, 1.0 + h / 2, h)
        series = TimeSeries(step=h, samples=np.sin(3.0 * t) + t**2)
        stacked = gl_differintegral(gl_differintegral(series, -0.4), -0.8).samples
        direct = gl_differintegral(series, -1.2).samples
        assert np.max(np.abs(stacked - direct)) <= 1e-10

    @pytest.mark.parametrize("order", [-1.3, -0.5, 0.5, 1.571])
    def test_matches_direct_history_sum(self, order):
        # The FFT convolution reproduces the full-history sum, with no
        # wrap-around into early samples.
        h = 1e-3
        rng = np.random.default_rng(3)
        series = TimeSeries(step=h, samples=rng.normal(size=5001))
        weights = gl_weights(order, len(series) - 1).weights
        direct = np.convolve(series.samples, weights)[: len(series)] * h ** (-order)
        got = gl_differintegral(series, order).samples
        assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_invalid_order(self):
        series = TimeSeries(step=0.1, samples=[1.0, 2.0])
        with pytest.raises(ValueError):
            gl_differintegral(series, math.nan)


class TestDiracAnalytic:
    def test_unit_integration_is_one(self):
        for t in (1e-6, 0.5, 5.0, 1e6):
            assert dirac_differintegral_analytic(-1.0, t) == 1.0

    def test_fractional_values_match_formula(self):
        got = dirac_differintegral_analytic(-0.9, 100.0)
        assert math.isclose(got, 100.0 ** (-0.1) / sp.gamma(0.9), rel_tol=1e-12)
        got = dirac_differintegral_analytic(-1.1, 100.0)
        assert math.isclose(got, 100.0**0.1 / sp.gamma(1.1), rel_tol=1e-12)

    def test_decay_and_growth_with_time(self):
        # -1 < eta < 0 decays toward zero; eta < -1 grows without bound
        assert dirac_differintegral_analytic(-0.5, 1e4) < dirac_differintegral_analytic(
            -0.5, 1.0
        )
        assert dirac_differintegral_analytic(-1.5, 1e4) > dirac_differintegral_analytic(
            -1.5, 1.0
        )

    @pytest.mark.parametrize("eta", [0.0, 1.0, 2.0])
    def test_pole_orders_rejected(self, eta):
        with pytest.raises(ValueError):
            dirac_differintegral_analytic(eta, 1.0)

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_domain_error(self, t):
        with pytest.raises(ValueError):
            dirac_differintegral_analytic(-1.0, t)
