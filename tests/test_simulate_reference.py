"""simulate against the per-sample Grunwald-Letnikov recursion it replaced.

``reference_simulate`` is the earlier O(n^2) solver, kept here verbatim as a
test-only oracle: it differintegrates the force with direct convolutions and
then solves for each displacement sample in closed form.
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

from conftest import CYLINDER


def _gl_apply(samples: np.ndarray, order: float, step: float) -> np.ndarray:
    """Array-level differintegral without container validation."""
    if order == 0.0:
        return samples
    weights = gl_weights(order, len(samples) - 1).weights
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

    weights = gl_weights(params.alpha, n - 1).weights
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
