import cmath
import math

import numpy as np
import pytest

from fojeffreys import (
    DashpotParams,
    FoJeffreysParams,
    IntegerJeffreysParams,
    ZenerParams,
    classical_freq_response,
    freq_response,
    reduces_to_dashpot,
    validate,
)

from conftest import CYLINDER


def reference_response(params: FoJeffreysParams, omega: float) -> complex:
    """Independent complex-arithmetic oracle using principal-branch powers."""
    s = 1j * omega
    return (params.lambda1 * s**params.beta + 1.0) / (
        params.mu * s**params.gamma * (params.lambda2 * s**params.alpha + 1.0)
    )


class TestParamsAndValidation:
    def test_cylinder_parameters_are_valid(self, cylinder_params):
        assert validate(cylinder_params, "constrained") == []

    def test_lambda_ordering_violation(self):
        params = FoJeffreysParams(
            mu=1.0, lambda1=0.05, lambda2=0.01, alpha=1.0, beta=1.0, gamma=1.0
        )
        report = validate(params, "constrained")
        assert len(report) == 1 and "lambda2" in report[0]

    def test_order_mismatch_violation(self):
        params = FoJeffreysParams(
            mu=1.0, lambda1=0.01, lambda2=0.05, alpha=1.2, beta=1.0, gamma=1.0
        )
        report = validate(params, "constrained")
        assert len(report) == 1 and "alpha" in report[0]

    def test_gamma_violation_only_in_constrained_mode(self):
        params = FoJeffreysParams(
            mu=1.0, lambda1=0.01, lambda2=0.05, alpha=1.2, beta=1.2, gamma=0.9
        )
        assert any("gamma" in v for v in validate(params, "constrained"))
        assert validate(params, "unconstrained") == []

    def test_unknown_mode_rejected(self, cylinder_params):
        with pytest.raises(ValueError):
            validate(cylinder_params, "strict")

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
        # One bad entry anywhere is enough, for the model and for every
        # classical reduction alike.
        with pytest.raises(ValueError):
            freq_response(cylinder_params, omega)
        for variant in (
            DashpotParams(viscosity=1.0),
            ZenerParams(modulus=1.0, retardation_rate=1.0, relaxation_rate=2.0),
            IntegerJeffreysParams(stiffness=1.0, parallel_viscosity=0.5, series_viscosity=1.0),
        ):
            with pytest.raises(ValueError):
                classical_freq_response(variant, omega)


class TestReducesToDashpot:
    def test_equal_constants_and_orders(self):
        params = FoJeffreysParams(
            mu=2.0, lambda1=0.1, lambda2=0.1, alpha=1.3, beta=1.3, gamma=1.0
        )
        assert reduces_to_dashpot(params)

    def test_cylinder_params_do_not_reduce(self, cylinder_params):
        assert not reduces_to_dashpot(cylinder_params)

    def test_order_mismatch_does_not_reduce(self):
        params = FoJeffreysParams(
            mu=1.0, lambda1=0.1, lambda2=0.1, alpha=1.2, beta=1.3, gamma=1.0
        )
        assert not reduces_to_dashpot(params)

    @pytest.mark.parametrize("gamma", [0.7, 1.0, 1.3])
    def test_reduced_response_equals_fractional_integrator(self, gamma):
        params = FoJeffreysParams(
            mu=3.0, lambda1=0.2, lambda2=0.2, alpha=1.4, beta=1.4, gamma=gamma
        )
        assert reduces_to_dashpot(params)
        omega = np.geomspace(1e-3, 1e3, 40)
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


class TestClassicalVariants:
    def test_dashpot_example(self):
        assert classical_freq_response(DashpotParams(viscosity=2.0), 1.0) == -0.5j

    def test_zener_equal_rates_is_purely_elastic(self):
        zener = ZenerParams(modulus=3.0, retardation_rate=2.0, relaxation_rate=2.0)
        for omega in (0.01, 1.0, 250.0):
            gain = classical_freq_response(zener, omega)
            assert abs(gain - (1.0 / 3.0)) <= 1e-14

    def test_zener_rate_ordering_enforced(self):
        with pytest.raises(ValueError):
            ZenerParams(modulus=1.0, retardation_rate=5.0, relaxation_rate=2.0)

    def test_zener_scaled_magnitude_bounded(self):
        zener = ZenerParams(modulus=3.0, retardation_rate=2.0, relaxation_rate=9.0)
        omega = np.geomspace(1e-4, 1e4, 200)
        scaled = np.abs(classical_freq_response(zener, omega)) * zener.modulus
        low = min(1.0, zener.retardation_rate / zener.relaxation_rate)
        high = max(1.0, zener.retardation_rate / zener.relaxation_rate)
        assert np.all(scaled >= low - 1e-12)
        assert np.all(scaled <= high + 1e-12)

    def test_jeffreys_without_parallel_dashpot_is_maxwell(self):
        # A vanishing parallel dashpot leaves spring + series dashpot, whose
        # compliance is 1/stiffness + 1/(viscosity*s).
        variant = IntegerJeffreysParams(
            stiffness=1.0, parallel_viscosity=0.0, series_viscosity=1.0
        )
        for omega in (0.1, 1.0, 10.0):
            s = 1j * omega
            want = 1.0 / variant.stiffness + 1.0 / (variant.series_viscosity * s)
            got = classical_freq_response(variant, omega)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_values_pinned(self):
        # Exact bits of the dashpot and integer-Jeffreys gains, Maxwell case
        # (parallel_viscosity = 0) included.
        omega = np.array([0.1, 1.0, 10.0, 100.0])
        dashpot = classical_freq_response(DashpotParams(viscosity=3.7), omega)
        assert dashpot.tolist() == [
            -2.702702702702702j, -0.27027027027027023j,
            -0.02702702702702703j, -0.002702702702702703j,
        ]
        jeffreys = IntegerJeffreysParams(
            stiffness=47.0, parallel_viscosity=2.3, series_viscosity=31.0
        )
        assert classical_freq_response(jeffreys, 3.0) == (
            0.020827701729585528 - 0.013810372042982163j
        )
        assert classical_freq_response(jeffreys, omega).tolist() == [
            0.021276086235870583 - 0.3226847621790403j,
            0.021225765369486383 - 0.03329677218314645j,
            0.017165814463111762 - 0.011626098635688873j,
            0.0008528552505035476 - 0.004496127615710566j,
        ]
        maxwell = IntegerJeffreysParams(
            stiffness=47.0, parallel_viscosity=0.0, series_viscosity=31.0
        )
        assert classical_freq_response(maxwell, 3.0) == (
            0.02127659574468085 - 0.010752688172043012j
        )
        assert classical_freq_response(maxwell, omega).tolist() == [
            0.02127659574468085 - 0.3225806451612903j,
            0.02127659574468085 - 0.03225806451612903j,
            0.02127659574468085 - 0.0032258064516129032j,
            0.02127659574468085 - 0.0003225806451612903j,
        ]

    def test_rigid_spring_limit_recovers_dashpot(self):
        variant = IntegerJeffreysParams(
            stiffness=1e12, parallel_viscosity=0.0, series_viscosity=1.0
        )
        got = classical_freq_response(variant, 1.0)
        assert abs(got - (-1j)) <= 1e-9

    def test_jeffreys_relaxation_exceeds_retardation(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            stiffness, pv, sv = rng.uniform(0.1, 10.0, size=3)
            variant = IntegerJeffreysParams(
                stiffness=stiffness, parallel_viscosity=pv, series_viscosity=sv
            )
            assert variant.relaxation_time > variant.retardation_time

    def test_domain_and_type_errors(self):
        with pytest.raises(ValueError):
            classical_freq_response(DashpotParams(viscosity=1.0), 0.0)
        with pytest.raises(TypeError):
            classical_freq_response(object(), 1.0)
