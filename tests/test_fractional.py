import math

import numpy as np
import pytest
import scipy.fft
import scipy.special as sp

from fojeffreys import (
    TimeSeries,
    dirac_differintegral_analytic,
    gl_differintegral,
    gl_weights,
)
from fojeffreys import fractional


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


class TestGlWeights:
    def test_first_difference(self):
        np.testing.assert_array_equal(gl_weights(1.0, 3), [1.0, -1.0, 0.0, 0.0])

    def test_integration_all_ones(self):
        np.testing.assert_array_equal(gl_weights(-1.0, 3), [1.0, 1.0, 1.0, 1.0])

    def test_half_order_sequence(self):
        expected = [1.0, -0.5, -0.125, -0.0625]
        got = gl_weights(0.5, 3)
        np.testing.assert_allclose(got, expected, rtol=1e-15)
        np.testing.assert_allclose(got, weights_direct(0.5, np.arange(4)), rtol=1e-14)

    @pytest.mark.parametrize("order", [-1.0, -0.5, 0.5, 1.0, 1.571])
    def test_recursion_matches_direct_binomial(self, order):
        weights = gl_weights(order, 50)
        oracle = weights_direct(order, np.arange(51))
        nonzero = np.abs(oracle) > 0.0
        rel = np.abs(weights[nonzero] - oracle[nonzero]) / np.abs(oracle[nonzero])
        assert np.max(rel) <= 1e-12
        np.testing.assert_array_equal(weights[~nonzero], 0.0)

    def test_leading_weight_is_one(self):
        rng = np.random.default_rng(3)
        for order in rng.uniform(-2.0, 2.0, size=20):
            assert gl_weights(order, 5)[0] == 1.0

    @pytest.mark.parametrize("order", [0.1, 0.37, 0.5, 0.93])
    def test_unit_interval_orders_negative_and_increasing(self, order):
        w = gl_weights(order, 40)
        assert np.all(w[1:] < 0.0)
        assert np.all(np.diff(w[1:]) > 0.0)

    def test_partial_sum_identity(self):
        # sum_{i<=n} w_i equals (-1)^n * binom(order-1, n)
        rng = np.random.default_rng(7)
        for _ in range(60):
            order = float(rng.uniform(-2.0, 2.0))
            n = int(rng.integers(1, 60))
            lhs = gl_weights(order, n).sum()
            rhs = float(weights_direct(order - 1.0, np.array([n]))[0])
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_weights_are_read_only(self):
        with pytest.raises(ValueError):
            gl_weights(0.5, 3)[1] = 0.0

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

    def test_caller_array_is_copied_not_frozen(self):
        # Freezing happens in place, so only a copy keeps the caller's
        # array writable and out of the series' reach.
        samples = np.array([0.0, 1.0, 2.0])
        series = TimeSeries(step=0.5, samples=samples)
        assert samples.flags.writeable
        samples[0] = 5.0
        assert series.samples.tolist() == [0.0, 1.0, 2.0]


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
        weights = gl_weights(order, len(series) - 1)
        direct = np.convolve(series.samples, weights)[: len(series)] * h ** (-order)
        got = gl_differintegral(series, order).samples
        assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_invalid_order(self):
        series = TimeSeries(step=0.1, samples=[1.0, 2.0])
        with pytest.raises(ValueError):
            gl_differintegral(series, math.nan)

    def test_plain_array_rejected(self):
        with pytest.raises(TypeError, match="gl_differintegral expects a TimeSeries"):
            gl_differintegral(np.ones(4), 0.5)


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

    @pytest.mark.parametrize(
        ("eta", "t", "expected"),
        [(-3.0, 1e300, math.inf), (0.5, 1e-300, -math.inf), (1.5, 1e-300, math.inf)],
    )
    def test_overflow_gives_the_signed_infinity(self, eta, t, expected):
        # t^(-eta-1) passes the largest double; the sign is Gamma(-eta)'s.
        assert dirac_differintegral_analytic(eta, t) == expected

    @pytest.mark.parametrize(
        ("eta", "t"),
        [(-200.0, 1.0), (-200.0, 40.0), (-172.0, 0.5), (-180.0, 1e3),
         (180.5, 100.0), (180.5, 1.0), (-170.5, 100.0), (150.5, 1e3), (175.5, 10.0),
         (-171.7, 10.0), (181.5, 1.0), (5e-324, 1e-300), (-5e-324, 1e-200)],
    )
    def test_orders_where_gamma_or_the_power_leaves_binary64(self, eta, t):
        # Gamma(-eta) is inf (eta <= -171.7), a zero of its sign (eta = 180.5,
        # 181.5), subnormal (175.5) or an infinity of its sign (eta = +-5e-324,
        # where it is about -1/eta), or t^(-eta-1) overflows (-170.5) or
        # underflows (150.5).
        # The oracle: for an integer n = -eta the product of t/k over
        # k = 1 .. n - 1; otherwise exp((-eta-1) ln t - ln|Gamma(-eta)|)
        # with Gamma's sign, from scipy, where ln|Gamma(-eta)| is taken as
        # ln|Gamma(1 - eta)| - ln|eta| (gammaln itself overflows at 5e-324).
        got = dirac_differintegral_analytic(eta, t)
        if eta == round(eta):
            expected = math.prod(t / k for k in range(1, round(-eta)))
        else:
            log_gamma = sp.gammaln(1.0 - eta) - math.log(abs(eta))
            log_value = (-eta - 1.0) * math.log(t) - log_gamma
            magnitude = math.exp(log_value) if log_value < 709.0 else math.inf
            expected = sp.gammasgn(-eta) * magnitude
        assert got == expected or math.isclose(got, expected, rel_tol=1e-12)

    @pytest.mark.parametrize(
        ("eta", "t"),
        [(-1e308, 2.0), (-1e306, 0.5), (-3e305, 2.0), (-1e306, 1e308), (-3e305, 1e306),
         (-2e305, 2.0), (-2e305, 1e300)],
    )
    def test_orders_where_lgamma_overflows(self, eta, t):
        # From -eta ~ 2.5e305 on, ln Gamma(-eta) itself passes the largest
        # double (the last two cases stay just below it). The oracle is
        # mpmath's log value at 50 digits, whose exponential is 0 or inf.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            z = -mpmath.mpf(eta)
            log_value = (z - 1) * mpmath.log(t) - mpmath.loggamma(z)
        assert abs(log_value) > 746
        expected = math.inf if log_value > 0 else 0.0
        assert dirac_differintegral_analytic(eta, t) == expected

    @pytest.mark.parametrize("eta", [0.0, -0.0, 1.0, 2.0, 1e300, math.nan, math.inf, -math.inf])
    def test_pole_orders_rejected(self, eta):
        with pytest.raises(ValueError):
            dirac_differintegral_analytic(eta, 1.0)

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_domain_error(self, t):
        with pytest.raises(ValueError):
            dirac_differintegral_analytic(-1.0, t)


class TestTransforms:
    """numpy.fft at the sizes scipy.fft chose, which stays a test-only oracle."""

    def test_fast_len_matches_scipy(self):
        mismatched = [
            n for n in range(1, 300_001)
            if fractional._fast_len(n) != scipy.fft.next_fast_len(n, real=True)
        ]
        assert mismatched == []

    @pytest.mark.parametrize("seed", range(8))
    def test_gl_differintegral_keeps_scipy_bits(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 50_000))
        f = TimeSeries(step=10.0 ** rng.uniform(-4.0, -1.0), samples=rng.normal(size=n))
        order = rng.uniform(-2.0, 2.0)
        got = gl_differintegral(f, order).samples
        monkeypatch.setattr(fractional, "rfft", scipy.fft.rfft)
        monkeypatch.setattr(fractional, "irfft", scipy.fft.irfft)
        assert got.tobytes() == gl_differintegral(f, order).samples.tobytes()
