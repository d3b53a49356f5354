import cmath
import math

import numpy as np
import pytest

from fojeffreys import FoJeffreysParams, freq_response, validate

from conftest import CYLINDER


def reference_response(params: FoJeffreysParams, omega: float) -> complex:
    """Independent complex-arithmetic oracle using principal-branch powers."""
    s = 1j * omega
    return (params.lambda1 * s**params.beta + 1.0) / (
        params.mu * s**params.gamma * (params.lambda2 * s**params.alpha + 1.0)
    )


class TestParamsAndValidation:
    def test_cylinder_parameters_are_valid(self, cylinder_params):
        assert validate(cylinder_params) == []

    def test_lambda_ordering_violation(self):
        params = FoJeffreysParams(
            mu=1.0, lambda1=0.05, lambda2=0.01, alpha=1.0, beta=1.0, gamma=1.0
        )
        report = validate(params)
        assert len(report) == 1 and "lambda2" in report[0]

    def test_order_mismatch_violation(self):
        params = FoJeffreysParams(
            mu=1.0, lambda1=0.01, lambda2=0.05, alpha=1.2, beta=1.0, gamma=1.0
        )
        report = validate(params)
        assert len(report) == 1 and "alpha" in report[0]

    def test_gamma_violation_only_in_constrained_mode(self):
        params = FoJeffreysParams(
            mu=1.0, lambda1=0.01, lambda2=0.05, alpha=1.2, beta=1.2, gamma=0.9
        )
        assert any("gamma" in v for v in validate(params))

    def test_four_parameters_default_beta_and_gamma(self):
        params = FoJeffreysParams(mu=171e3, lambda1=0.013, lambda2=0.047, alpha=1.571)
        assert (params.beta, params.gamma) == (1.571, 1.0)
        assert params == FoJeffreysParams(**CYLINDER) and validate(params) == []
        explicit = FoJeffreysParams(mu=1.0, lambda1=0.1, lambda2=0.2, alpha=1.2, beta=0.8)
        assert (explicit.alpha, explicit.beta) == (1.2, 0.8)
        with pytest.raises(ValueError, match="alpha must lie"):
            FoJeffreysParams(mu=1.0, lambda1=0.1, lambda2=0.2, alpha=2.5)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"mu": 0.0},
            {"mu": -2.0},
            {"lambda1": 0.0},
            {"lambda2": math.inf},
            {"alpha": 0.0},
            {"alpha": 2.0},
            {"beta": -0.3},
            {"gamma": 2.5},
        ],
    )
    def test_construction_bounds(self, overrides):
        values = dict(CYLINDER)
        values.update(overrides)
        with pytest.raises(ValueError):
            FoJeffreysParams(**values)


class TestFreqResponse:
    def test_dashpot_reduction_unit_case(self):
        params = FoJeffreysParams(
            mu=1.0, lambda1=0.1, lambda2=0.1, alpha=1.0, beta=1.0, gamma=1.0
        )
        gain = freq_response(params, 1.0)
        assert abs(gain - (-1j)) <= 1e-14
        assert math.isclose(abs(gain), 1.0, rel_tol=1e-14)

    def test_low_frequency_asymptote_at_cylinder_params(self, cylinder_params):
        omega = 2.0 * math.pi * 0.005
        gain = freq_response(cylinder_params, omega)
        assert math.isclose(abs(gain), 1.0 / (cylinder_params.mu * omega), rel_tol=1e-3)
        assert abs(math.degrees(cmath.phase(gain)) + 90.0) <= 0.5

    def test_matches_independent_oracle(self, cylinder_params):
        for freq in (0.005, 0.1, 1.6, 40.0):
            omega = 2.0 * math.pi * freq
            got = freq_response(cylinder_params, omega)
            want = reference_response(cylinder_params, omega)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_lag_below_quadrature_at_band_top(self, cylinder_params):
        gain = freq_response(cylinder_params, 2.0 * math.pi * 1.6)
        assert math.degrees(cmath.phase(gain)) < -90.0

    def test_vectorized_evaluation(self, cylinder_params):
        omega = np.array([0.1, 1.0, 10.0])
        gains = freq_response(cylinder_params, omega)
        assert gains.shape == (3,)
        for w, g in zip(omega, gains):
            assert g == freq_response(cylinder_params, float(w))

    def test_unconstrained_values_pinned(self):
        # Exact bits of G beyond alpha = beta, gamma = 1, where the report
        # bytes pin nothing: a reordered evaluation of the formula shows here.
        params = FoJeffreysParams(
            mu=171e3, lambda1=0.05, lambda2=0.02, alpha=0.7, beta=1.4, gamma=1.3
        )
        assert freq_response(params, 3.0) == -3.519360501460906e-07 - 1.161839641242296e-06j
        gains = freq_response(params, np.array([0.1, 1.0, 10.0, 100.0]))
        assert gains.tolist() == [
            -5.301526444067717e-05 - 0.00010355199458815815j,
            -2.4344565774593304e-06 - 5.075357779131148e-06j,
            2.0237134395852438e-07 - 2.119895013818554e-07j,
            3.3977013482764954e-07 - 7.546938633082235e-08j,
        ]

    @pytest.mark.parametrize(
        "omega",
        [0.0, -1.0, math.nan, math.inf, -math.inf]
        + [
            pytest.param(np.array([0.1, 1.0, bad, 10.0]), id=f"array-{bad}")
            for bad in (math.nan, math.inf, 0.0, -1.0)
        ],
    )
    def test_domain_error(self, cylinder_params, omega):
        with pytest.raises(ValueError):
            freq_response(cylinder_params, omega)


class TestDashpotPoint:
    # lambda1 = lambda2 with alpha = beta cancels G's brackets: 1 / (mu s^gamma).
    OMEGA = np.geomspace(1e-3, 1e3, 40)

    def test_equal_constants_and_orders(self):
        params = FoJeffreysParams(
            mu=2.0, lambda1=0.1, lambda2=0.1, alpha=1.3, beta=1.3, gamma=1.0
        )
        dashpot = 1.0 / (params.mu * 1j * self.OMEGA)
        np.testing.assert_allclose(freq_response(params, self.OMEGA), dashpot, rtol=1e-15)

    def test_cylinder_params_do_not_reduce(self, cylinder_params):
        dashpot = 1.0 / (cylinder_params.mu * 1j * self.OMEGA)
        assert np.abs(freq_response(cylinder_params, self.OMEGA) / dashpot - 1.0).max() > 0.5

    def test_order_mismatch_does_not_reduce(self):
        params = FoJeffreysParams(
            mu=1.0, lambda1=0.1, lambda2=0.1, alpha=1.2, beta=1.3, gamma=1.0
        )
        dashpot = 1.0 / (params.mu * 1j * self.OMEGA)
        assert np.abs(freq_response(params, self.OMEGA) / dashpot - 1.0).max() > 0.5

    @pytest.mark.parametrize("gamma", [0.7, 1.0, 1.3])
    def test_reduced_response_equals_fractional_integrator(self, gamma):
        params = FoJeffreysParams(
            mu=3.0, lambda1=0.2, lambda2=0.2, alpha=1.4, beta=1.4, gamma=gamma
        )
        omega = self.OMEGA
        gains = freq_response(params, omega)
        ideal = 1.0 / (params.mu * (1j * omega) ** gamma)
        np.testing.assert_allclose(gains, ideal, rtol=1e-12)
        if gamma == 1.0:
            np.testing.assert_allclose(np.abs(gains), 1.0 / (params.mu * omega), rtol=1e-12)
            np.testing.assert_allclose(
                np.degrees(np.angle(gains)), -90.0, atol=1e-10
            )


class TestAsymptotesAndLag:
    def test_phase_and_slope_at_extremes(self, cylinder_params):
        for omega in (1e-4, 1e4):
            phase = math.degrees(cmath.phase(freq_response(cylinder_params, omega)))
            assert abs(phase + 90.0) <= 1.0
            db_here = 20.0 * math.log10(abs(freq_response(cylinder_params, omega)))
            db_decade = 20.0 * math.log10(abs(freq_response(cylinder_params, 10 * omega)))
            assert abs((db_decade - db_here) + 20.0) <= 0.5

    def test_lag_region_phase_never_above_quadrature(self, cylinder_params):
        omega = np.geomspace(1e-3, 1e3, 600)
        phase = np.degrees(np.angle(freq_response(cylinder_params, omega)))
        assert np.all(phase <= -90.0 * cylinder_params.gamma + 1e-6)

