import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares, leastsq

from fojeffreys import (
    FitNonConvergenceError,
    FoJeffreysParams,
    FrfDataset,
    fit,
    freq_response,
    residual_report,
    validate,
)
from fojeffreys import identify

from conftest import (
    CYLINDER,
    add_frf_noise,
    grid_start_wins_unconverged,
    make_synthetic_frf,
    perturbed_guess,
)

DB_FOR_DOUBLED_GAIN = (20.0 * math.log10(2.0)) ** 2  # 36.2471 dB^2


def low_frequency_dataset(params, n_points=4):
    freqs = np.geomspace(1e-4, 4e-4, n_points)
    gains = freq_response(params, 2.0 * math.pi * freqs)
    return FrfDataset(frequencies_hz=freqs, gains=gains)


class TestFrfDataset:
    def test_requires_four_points(self, cylinder_params):
        freqs = np.array([0.1, 0.2, 0.4])
        gains = freq_response(cylinder_params, 2.0 * math.pi * freqs)
        with pytest.raises(ValueError):
            FrfDataset(frequencies_hz=freqs, gains=gains)

    def test_rejects_zero_gain(self):
        freqs = np.array([0.1, 0.2, 0.4, 0.8])
        gains = np.array([1.0 + 0j, 0.0 + 0j, 1.0 + 0j, 1.0 + 0j])
        with pytest.raises(ValueError):
            FrfDataset(frequencies_hz=freqs, gains=gains)

    def test_rejects_non_increasing_frequencies(self):
        freqs = np.array([0.1, 0.1, 0.4, 0.8])
        gains = np.full(4, 1.0 + 0j)
        with pytest.raises(ValueError):
            FrfDataset(frequencies_hz=freqs, gains=gains)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="matching 1-d arrays"):
            FrfDataset(frequencies_hz=np.array([0.1, 0.2, 0.4, 0.8]), gains=np.ones(3))

    def test_rejects_zero_frequency(self):
        freqs = np.array([0.0, 0.2, 0.4, 0.8])
        with pytest.raises(ValueError, match="frequencies must be finite and positive"):
            FrfDataset(frequencies_hz=freqs, gains=np.full(4, 1.0 + 0j))

    def test_rejects_non_finite(self):
        freqs = np.array([0.1, 0.2, 0.4, 0.8])
        gains = np.array([1.0, math.inf, 1.0, 1.0], dtype=complex)
        with pytest.raises(ValueError):
            FrfDataset(frequencies_hz=freqs, gains=gains)

    def test_measured_side_is_cached_and_read_only(self, cylinder_params):
        # Every residual report shares the dataset's omega, dB and degree
        # arrays, so a write through one report must not reach the others.
        data = make_synthetic_frf(cylinder_params)
        assert data.omega is data.omega
        assert data.magnitude_db is data.magnitude_db
        assert data.phase_deg_unwrapped is data.phase_deg_unwrapped
        with pytest.raises(ValueError):
            data.omega[0] = 1.0
        with pytest.raises(ValueError):
            data.magnitude_db[0] = 0.0
        with pytest.raises(ValueError):
            data.phase_deg_unwrapped[0] = 0.0
        report = residual_report(cylinder_params, data)
        with pytest.raises(ValueError):
            report.measured_db[0] = 0.0
        with pytest.raises(ValueError):
            report.frequency_hz[0] = 1.0


class TestObjective:
    def test_zero_for_generating_parameters(self, cylinder_params):
        data = make_synthetic_frf(cylinder_params)
        assert residual_report(cylinder_params, data).sum_squared == 0.0

    def test_doubled_gain_shifts_magnitude_only(self, cylinder_params):
        # mu is a real gain: doubling it moves every point by -6.0206 dB and
        # leaves the phase untouched, so each point contributes 36.2471.
        data = low_frequency_dataset(cylinder_params)
        doubled = FoJeffreysParams(
            mu=2.0 * cylinder_params.mu,
            lambda1=cylinder_params.lambda1,
            lambda2=cylinder_params.lambda2,
            alpha=cylinder_params.alpha,
            beta=cylinder_params.beta,
            gamma=cylinder_params.gamma,
        )
        report = residual_report(doubled, data)
        assert math.isclose(report.sum_squared, len(data) * DB_FOR_DOUBLED_GAIN, rel_tol=1e-12)
        np.testing.assert_allclose(report.residual_db, -20.0 * math.log10(2.0))
        np.testing.assert_allclose(report.residual_deg, 0.0, atol=1e-12)

    def test_uniform_phase_shift(self, cylinder_params):
        data = make_synthetic_frf(cylinder_params, n_points=10)
        shifted = FrfDataset(
            frequencies_hz=data.frequencies_hz,
            gains=data.gains * np.exp(1j * math.radians(1.0)),
        )
        assert math.isclose(
            residual_report(cylinder_params, shifted).sum_squared, 10.0, rel_tol=1e-9
        )


class TestResidualReport:
    def test_perfect_fit_all_zero(self, cylinder_params):
        data = make_synthetic_frf(cylinder_params)
        report = residual_report(cylinder_params, data)
        np.testing.assert_allclose(report.residual_db, 0.0, atol=1e-12)
        np.testing.assert_allclose(report.residual_deg, 0.0, atol=1e-12)

    def test_perturbed_model_has_positive_residuals(self, cylinder_params):
        data = make_synthetic_frf(cylinder_params)
        perturbed = perturbed_guess(cylinder_params, seed=5)
        report = residual_report(perturbed, data)
        per_point = report.residual_db**2 + report.residual_deg**2
        assert np.all(per_point > 0.0)


def unwrap_reference_deg(params, data):
    # The model phase by np.unwrap of the principal angles, aligned to the
    # data's branch at the first point.
    deg = np.degrees(np.unwrap(np.angle(freq_response(params, data.omega))))
    return deg - 360.0 * round((deg[0] - data.phase_deg_unwrapped[0]) / 360.0)


def needs_shift(params, data):
    # Whether some principal angle lies above the continuous phase's window.
    deg = np.degrees(np.angle(freq_response(params, data.omega)))
    return bool(np.any(deg > 180.0 - 90.0 * params.gamma))


class TestPhaseBranch:
    """residual_report takes the model phase's branch in closed form, not by np.unwrap."""

    def test_constrained_sweep_crossing_minus_180(self):
        lambda2 = 0.1
        params = FoJeffreysParams(
            mu=1.0, lambda1=0.05 * lambda2, lambda2=lambda2, alpha=1.9, beta=1.9
        )
        data = make_synthetic_frf(params, n_points=200)
        assert needs_shift(params, data)
        model_deg = residual_report(params, data).model_deg
        assert model_deg.min() < -180.0
        np.testing.assert_allclose(
            model_deg, unwrap_reference_deg(params, data), rtol=0.0, atol=1e-9
        )

    @pytest.mark.parametrize(
        "kwargs, crosses",
        [
            ({"lambda1": 0.002, "lambda2": 0.5, "alpha": 1.8, "beta": 0.6, "gamma": 0.5}, True),
            ({"lambda1": 0.001, "lambda2": 1.0, "alpha": 1.95, "beta": 0.2, "gamma": 1.5}, True),
            ({"lambda1": 0.3, "lambda2": 0.05, "alpha": 1.2, "beta": 1.7, "gamma": 1.5}, False),
            ({"lambda1": 0.2, "lambda2": 0.1, "alpha": 1.9, "beta": 0.3, "gamma": 1.0}, True),
            ({"lambda1": 1.0, "lambda2": 0.01, "alpha": 0.2, "beta": 1.95, "gamma": 0.5}, False),
        ],
        ids=["gamma0.5", "gamma1.5", "gamma1.5-lead", "lambda1>lambda2", "gamma0.5-lead"],
    )
    def test_unconstrained_objective_matches_unwrap(self, kwargs, crosses):
        params = FoJeffreysParams(mu=2.0, **kwargs)
        data = add_frf_noise(
            make_synthetic_frf(FoJeffreysParams(**CYLINDER)),
            db_sigma=0.5, deg_sigma=2.0, seed=0,
        )
        assert needs_shift(params, data) == crosses
        report = residual_report(params, data)
        reference_deg = unwrap_reference_deg(params, data)
        np.testing.assert_allclose(report.model_deg, reference_deg, rtol=0.0, atol=1e-9)
        reference = np.sum(report.residual_db**2) + np.sum(
            (reference_deg - data.phase_deg_unwrapped) ** 2
        )
        assert math.isclose(report.sum_squared, reference, rel_tol=1e-12)

    def test_sweep_without_crossing_is_bit_identical(self, cylinder_params):
        data = add_frf_noise(
            make_synthetic_frf(cylinder_params, n_points=200),
            db_sigma=0.5, deg_sigma=2.0, seed=0,
        )
        assert not needs_shift(cylinder_params, data)
        model_deg = residual_report(cylinder_params, data).model_deg
        assert np.array_equal(model_deg, unwrap_reference_deg(cylinder_params, data))


class TestFitSignature:
    @pytest.mark.parametrize("kwargs", [{"model_class": "XX"}])
    def test_invalid_config(self, cylinder_params, kwargs):
        with pytest.raises(ValueError, match="model_class"):
            fit(make_synthetic_frf(cylinder_params), **kwargs)

    def test_fields(self):
        # A parameter is a knob: each one must be read by the fit.
        P = inspect.Parameter
        assert [
            (p.name, p.kind, p.default) for p in inspect.signature(fit).parameters.values()
        ] == [
            ("data", P.POSITIONAL_OR_KEYWORD, P.empty),
            ("model_class", P.KEYWORD_ONLY, "FO"),
            ("initial_guess", P.KEYWORD_ONLY, None),
        ]


def coordinate(bound):
    # Inside the clip, or at least one unit beyond it, so that a central
    # difference never straddles the clip.
    return st.one_of(
        st.floats(-bound + 1.0, bound - 1.0),
        st.floats(bound + 1.0, bound + 50.0),
        st.floats(-bound - 50.0, -bound - 1.0),
    )


def rotated(data, degrees):
    return FrfDataset(
        frequencies_hz=data.frequencies_hz, gains=data.gains * np.exp(1j * math.radians(degrees))
    )


# Noisy cylinder data, and a 200-point sweep whose phase crosses -180 degrees
# at the theta of its own parameters.
CROSSING = FoJeffreysParams(mu=1.0, lambda1=0.005, lambda2=0.1, alpha=1.9, beta=1.9)
CROSSING_THETA = tuple(identify._pack(CROSSING))
LM_GATE_DATA = (
    add_frf_noise(
        make_synthetic_frf(FoJeffreysParams(**CYLINDER)), db_sigma=0.5, deg_sigma=2.0, seed=0
    ),
    make_synthetic_frf(CROSSING, n_points=200),
)


class TestLmResidual:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.sampled_from(["FO", "IO"]),
        st.sampled_from(LM_GATE_DATA),
        st.floats(-360.0, 360.0),
        st.tuples(*map(coordinate, (300.0, 30.0, 30.0))),
    )
    @example("FO", LM_GATE_DATA[1], 0.0, CROSSING_THETA)
    @example("FO", LM_GATE_DATA[1], 200.0, CROSSING_THETA)
    def test_matches_report(self, model_class, data, degrees, theta):
        # The LM residual is built from ln G, not by residual_report; it must be
        # the reduced report residual at the same theta. Rotating the data moves
        # its first phase onto another 360-degree branch of the model's.
        data = rotated(data, degrees)
        theta = np.array(theta[: 3 if model_class == "FO" else 2])
        residuals, _ = identify._lm_problem(data)
        report = residual_report(identify._unpack(theta), data)
        expected = np.concatenate(
            [report.residual_db - np.mean(report.residual_db), report.residual_deg]
        )
        np.testing.assert_allclose(residuals(theta), expected, rtol=0.0, atol=1e-9)

    def test_gate_data_reach_other_branches(self):
        # The sweep's model phase crosses -180 degrees, and rotating its data
        # by 200 degrees puts their first phase a branch away from the model's.
        crossing = LM_GATE_DATA[1]
        model_deg = residual_report(CROSSING, crossing).model_deg
        assert model_deg.min() < -180.0
        shifted_deg = residual_report(CROSSING, rotated(crossing, 200.0)).model_deg
        assert math.isclose(shifted_deg[0] - model_deg[0], 360.0, abs_tol=1e-9)


class TestJacobian:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.sampled_from(["FO", "IO"]),
        st.tuples(*map(coordinate, (300.0, 30.0, 30.0))),
    )
    def test_matches_central_differences(self, model_class, theta):
        data = add_frf_noise(
            make_synthetic_frf(FoJeffreysParams(**CYLINDER)),
            db_sigma=0.5, deg_sigma=2.0, seed=0,
        )
        residuals, jacobian = identify._lm_problem(data)
        theta = np.array(theta[: 3 if model_class == "FO" else 2])
        bounds = np.array([300.0, 30.0, 30.0])[: len(theta)]
        jac = jacobian(theta)
        assert jac.shape == (2 * len(data), len(theta))
        for k in range(len(theta)):
            step = np.zeros_like(theta)
            step[k] = 1e-6 * max(1.0, abs(theta[k]))
            central = residuals(theta + step) - residuals(theta - step)
            central /= 2.0 * step[k]
            if abs(theta[k]) > bounds[k]:
                assert np.all(jac[:, k] == 0.0)
            scale = max(1.0, float(np.max(np.abs(jac[:, k]))))
            np.testing.assert_allclose(jac[:, k], central, rtol=0.0, atol=1e-6 * scale)

    @pytest.mark.parametrize("model_class", ["FO", "IO"])
    def test_fit_evaluates_no_finite_differences(
        self, cylinder_params, monkeypatch, model_class
    ):
        # MINPACK from the grid start evaluates the residual result.iterations
        # times, after two shape checks at the start point (leastsq's and
        # lmder's own), and takes every Jacobian from the closed form at the
        # point whose residual it has just taken. A finite-difference
        # Jacobian would call the residual instead, once per coordinate and
        # iteration. fit then reports once at mu = 1, for the mean dB offset,
        # and once at the fitted mu.
        evaluated, jacobians, reports = [], [], []
        problem, report = identify._lm_problem, identify.residual_report

        def counted_problem(*args):
            residuals, jacobian = problem(*args)

            def counted_residuals(theta):
                evaluated.append(theta.copy())
                return residuals(theta)

            def counted_jacobian(theta):
                jacobians.append(np.array_equal(theta, evaluated[-1]))
                return jacobian(theta)

            return counted_residuals, counted_jacobian

        monkeypatch.setattr(identify, "_lm_problem", counted_problem)
        monkeypatch.setattr(
            identify, "residual_report", lambda *a: reports.append(a) or report(*a)
        )
        data = add_frf_noise(
            make_synthetic_frf(cylinder_params), db_sigma=0.5, deg_sigma=2.0, seed=0
        )
        result = fit(data, model_class=model_class)
        assert len(evaluated) == result.iterations + 2
        assert np.array_equal(evaluated[0], evaluated[2])
        assert len(jacobians) > 1 and all(jacobians)
        assert len(reports) == 2

    @pytest.mark.parametrize("model_class", ["FO", "IO"])
    def test_grid_costs_match_report(self, model_class):
        # Ranked on every point of a 20-point sweep, the grid's closed-form
        # cost is the reduced sum of squares of residual_report at the same theta.
        data = add_frf_noise(
            make_synthetic_frf(FoJeffreysParams(**CYLINDER)),
            db_sigma=0.5, deg_sigma=2.0, seed=0,
        )
        theta, costs = identify._grid(data, identify._MODEL_CLASSES[model_class])
        assert theta.shape == ((1008, 3) if model_class == "FO" else (112, 2))
        residuals, _ = identify._lm_problem(data)
        reduced = [float(np.sum(residuals(t) ** 2)) for t in theta]
        np.testing.assert_allclose(costs, reduced, rtol=1e-9, atol=0.0)


class TestFit:
    def test_noiseless_recovery_within_two_percent(self, cylinder_params):
        data = make_synthetic_frf(cylinder_params)
        guess = perturbed_guess(cylinder_params, seed=42)
        result = fit(data, initial_guess=guess)
        assert result.objective < 1e-6
        for name in ("mu", "lambda1", "lambda2", "alpha"):
            got = getattr(result.params, name)
            want = getattr(cylinder_params, name)
            assert abs(got - want) / want <= 0.02

    def test_result_is_constrained_valid(self, cylinder_params):
        data = make_synthetic_frf(cylinder_params)
        result = fit(data)
        assert validate(result.params) == []
        assert result.params.gamma == 1.0

    def test_io_class_pins_integer_orders(self, cylinder_params):
        data = make_synthetic_frf(cylinder_params)
        result = fit(data, model_class="IO")
        assert result.params.alpha == 1.0
        assert result.params.beta == 1.0
        assert result.params.gamma == 1.0

    def test_io_objective_exceeds_fo_objective(self, cylinder_params):
        data = make_synthetic_frf(cylinder_params)
        fo = fit(data, model_class="FO")
        io = fit(data, model_class="IO")
        assert io.objective > fo.objective

    def test_noisy_recovery_within_ten_percent(self, cylinder_params):
        data = add_frf_noise(
            make_synthetic_frf(cylinder_params), db_sigma=0.5, deg_sigma=2.0, seed=0
        )
        guess = perturbed_guess(cylinder_params, seed=0)
        result = fit(data, initial_guess=guess)
        for name in ("mu", "lambda1", "lambda2", "alpha"):
            got = getattr(result.params, name)
            want = getattr(cylinder_params, name)
            assert abs(got - want) / want <= 0.10

    def test_dashpot_data_reproduces_response(self):
        # Parameter values are non-identifiable on pure dashpot data; only
        # the response is checked against the generating 1/(mu s).
        freqs = np.geomspace(0.005, 1.6, 20)
        omega = 2.0 * math.pi * freqs
        mu = 1000.0
        data = FrfDataset(frequencies_hz=freqs, gains=1.0 / (mu * 1j * omega))
        result = fit(data)
        gains = freq_response(result.params, omega)
        db_err = 20.0 * np.log10(np.abs(gains) * mu * omega)
        deg_err = np.degrees(np.angle(gains)) + 90.0
        assert np.max(np.abs(db_err)) <= 0.1
        assert np.max(np.abs(deg_err)) <= 0.1
        assert validate(result.params) == []

    def test_gain_scaling_moves_only_mu(self, cylinder_params):
        data = make_synthetic_frf(cylinder_params)
        scale = 3.7
        scaled = FrfDataset(
            frequencies_hz=data.frequencies_hz, gains=scale * data.gains
        )
        base = fit(data)
        moved = fit(scaled)
        assert abs(base.params.mu / moved.params.mu - scale) / scale <= 0.01
        for name in ("lambda1", "lambda2", "alpha"):
            got = getattr(moved.params, name)
            want = getattr(base.params, name)
            assert abs(got - want) / want <= 0.01

    def test_default_guess_leaves_lambda1_boundary(self):
        # From the heuristic guess this draw used to stall at lambda1 ~ 2.5e-11
        # with objective ~1.4e3; the logit map keeps lambda1/lambda2 interior.
        alpha = 1.6324116862641538
        truth = FoJeffreysParams(
            mu=147890.47069277713,
            lambda1=0.014078008662238229,
            lambda2=0.04988401358108505,
            alpha=alpha,
            beta=alpha,
        )
        data = make_synthetic_frf(truth, n_points=200)
        result = fit(data)
        assert result.objective < 1e-12
        for name in ("mu", "lambda1", "lambda2", "alpha"):
            got = getattr(result.params, name)
            want = getattr(truth, name)
            assert abs(got - want) / want <= 0.02

    def test_io_fit_of_fo_data_converges_within_budget(self, cylinder_params):
        # From this guess a simplex search used to slide for its whole
        # 5000-iteration budget without converging.
        data = make_synthetic_frf(cylinder_params)
        guess = perturbed_guess(cylinder_params, seed=1)
        result = fit(data, model_class="IO", initial_guess=guess)
        assert result.converged
        assert result.iterations < 500

    def test_guess_violating_constraints_converges(self, cylinder_params):
        # lambda1 > lambda2 saturates the lambda1/lambda2 logit, where the
        # response hardly depends on lambda2 or alpha and the first
        # Levenberg-Marquardt step is huge; the clipped map keeps it finite.
        data = make_synthetic_frf(cylinder_params)
        guess = FoJeffreysParams(
            mu=1e5, lambda1=0.1, lambda2=0.01, alpha=1.9, beta=1.9
        )
        result = fit(data, initial_guess=guess)
        assert result.converged
        assert result.objective < 1e-12
        assert validate(result.params) == []

    @pytest.mark.parametrize(
        "mu, lambda1, lambda2, alpha",
        [
            (671637.5487, 0.0112153610, 0.0189741667, 0.6733235406),
            (18054.44578, 0.00315317185, 0.113805198, 0.541031431),
        ],
    )
    def test_far_guess_reaches_optimum(self, cylinder_params, mu, lambda1, lambda2, alpha):
        # Levenberg-Marquardt from these guesses alone stops at objective
        # 1.26e4 and 84.95; the grid start still reaches the optimum.
        data = make_synthetic_frf(cylinder_params)
        guess = FoJeffreysParams(
            mu=mu, lambda1=lambda1, lambda2=lambda2, alpha=alpha, beta=alpha
        )
        result = fit(data, initial_guess=guess)
        assert result.objective < 1e-12

    def test_non_convergence_carries_incumbent(self, cylinder_params, monkeypatch):
        monkeypatch.setattr(identify, "_MAX_EVALUATIONS", 2)
        data = make_synthetic_frf(cylinder_params)
        with pytest.raises(FitNonConvergenceError) as excinfo:
            fit(data)
        incumbent = excinfo.value.result
        assert incumbent.converged is False
        assert math.isfinite(incumbent.objective)
        assert validate(incumbent.params) == []

    def test_verdict_follows_the_kept_start(self, cylinder_params, monkeypatch):
        # The other start's convergence does not make the kept one's result
        # converged: fit raises exactly when the result says converged=False.
        grid_start_wins_unconverged(monkeypatch)
        data = make_synthetic_frf(cylinder_params)
        guess = perturbed_guess(cylinder_params, seed=1)
        with pytest.raises(FitNonConvergenceError) as excinfo:
            fit(data, initial_guess=guess)
        incumbent = excinfo.value.result
        assert incumbent.converged is False
        assert incumbent.objective < 1e-12  # the grid start's optimum
        assert incumbent.objective < residual_report(guess, data).sum_squared
        assert validate(incumbent.params) == []

    def test_per_point_residuals_consistent(self, cylinder_params):
        # The result's objective is its own report's sum of squares, and that
        # report is the one residual_report gives for the fitted parameters.
        data = add_frf_noise(make_synthetic_frf(cylinder_params), 0.5, 2.0, seed=0)
        result = fit(data)
        report = result.report
        assert result.objective == report.sum_squared
        total = float(np.sum(report.residual_db**2) + np.sum(report.residual_deg**2))
        assert math.isclose(total, result.objective, rel_tol=1e-12, abs_tol=1e-30)
        expected = residual_report(result.params, data)
        for name in ("model_db", "model_deg", "residual_db", "residual_deg"):
            assert getattr(report, name).tobytes() == getattr(expected, name).tobytes()
        assert report.measured_db is data.magnitude_db

    def test_report_columns_read_only(self, cylinder_params):
        # The result is immutable: no write reaches its report's computed
        # columns, and the report cannot be swapped for another.
        result = fit(make_synthetic_frf(cylinder_params))
        for name in ("model_db", "model_deg", "residual_db", "residual_deg"):
            with pytest.raises(ValueError):
                getattr(result.report, name)[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.report = None

    def test_lm_scales_by_jacobian_columns(self, cylinder_params, monkeypatch):
        # MINPACK's mode 1 (no diag) scales each coordinate by its Jacobian
        # column norm, what least_squares calls x_scale="jac"; a closed-form
        # Dfun keeps it on lmder, not the finite-difference lmdif.
        calls = []
        solve = identify.leastsq
        monkeypatch.setattr(
            identify, "leastsq", lambda *a, **kw: calls.append(kw) or solve(*a, **kw)
        )
        fit(make_synthetic_frf(cylinder_params), initial_guess=cylinder_params)
        assert len(calls) == 2
        assert all(callable(kw["Dfun"]) and kw.get("diag") is None for kw in calls)

    @pytest.mark.parametrize("model_class", ["FO", "IO"])
    def test_leastsq_matches_least_squares_lm(self, cylinder_params, model_class):
        # Both drive MINPACK lmder with step factor 100 and column scaling,
        # so on the same closures they end at the same point after the same
        # number of residual evaluations.
        data = add_frf_noise(
            make_synthetic_frf(cylinder_params), db_sigma=0.5, deg_sigma=2.0, seed=0
        )
        size = identify._MODEL_CLASSES[model_class]
        residuals, jacobian = identify._lm_problem(data)
        theta, costs = identify._grid(data, size)
        for start in (theta[np.argmin(costs)], identify._pack(cylinder_params)[:size]):
            x, _, info, _, ier = leastsq(
                residuals, start, Dfun=jacobian, full_output=True,
                ftol=1e-12, xtol=1e-12, gtol=1e-12, maxfev=5000,
            )
            sol = least_squares(
                residuals, start, jac=jacobian, method="lm", x_scale="jac",
                ftol=1e-12, xtol=1e-12, gtol=1e-12, max_nfev=5000,
            )
            assert ier in (1, 2, 3, 4) and sol.success
            assert np.array_equal(x, sol.x)
            assert info["nfev"] == sol.nfev
