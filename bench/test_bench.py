"""Tests of the benchmark itself: run with ``python3 -m pytest bench``."""

import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
import run
import tracing
import workloads


@pytest.fixture
def transient_long(tmp_path):
    _, workload, modules = run.set_up(workloads.TransientLong, tmp_path, seed=3)
    return workload, modules


def failed_kinds(workload) -> list[str]:
    log = run.Log()
    for op in workload.cycle(0):
        run.run_op(op, workloads.direct, log)
    return [failure.split(":")[0] for failure in log.failures]


def test_unchanged_program_passes_every_oracle(transient_long):
    log = run.Log()
    for op in transient_long[0].cycle(0):
        run.run_op(op, workloads.direct, log)
    assert len(log.latencies) == 7 and log.failures == []


def test_wrong_simulation_counts_as_failure(transient_long, monkeypatch):
    workload, modules = transient_long
    cli = modules["fojeffreys.cli"]
    real = cli.simulate

    def off_by_five_percent(params, series, *args, **kwargs):
        result = real(params, series, *args, **kwargs)
        output = type(result.output)(step=result.output.step, samples=1.05 * result.output.samples)
        return type(result)(input=result.input, output=output, params=result.params)

    monkeypatch.setattr(cli, "simulate", off_by_five_percent)
    assert failed_kinds(workload) == ["simulate-impulse-2501", "simulate-impulse-15001",
                                      "simulate-impulse-40001", "simulate-slope-15001",
                                      "impulse-study-10001"]


def test_wrong_gl_differintegral_counts_as_failure(transient_long, monkeypatch):
    workload, modules = transient_long
    fractional = modules["fojeffreys.fractional"]
    real = fractional.gl_differintegral

    def order_off(series, order, *args, **kwargs):
        return real(series, order * 1.01, *args, **kwargs)

    monkeypatch.setattr(fractional, "gl_differintegral", order_off)
    assert failed_kinds(workload) == ["gl-differintegral-+beta-40000", "gl-differintegral--beta-40000"]


def test_wrong_exit_code_and_raise_count_as_failures(transient_long, monkeypatch):
    workload, modules = transient_long
    with monkeypatch.context() as patch:
        patch.setattr(modules["fojeffreys.cli"], "main", lambda argv: 3)
        assert failed_kinds(workload) == ["simulate-impulse-2501", "simulate-impulse-15001",
                                          "simulate-impulse-40001", "simulate-slope-15001",
                                          "impulse-study-10001"]

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(modules["fojeffreys.dataio"], "write_timeseries", broken)
    log = run.Log()
    run.run_op(workload.cycle(0)[0], workloads.direct, log)
    assert len(log.failures) == 1 and "raised RuntimeError: injected" in log.failures[0]


def test_fit_oracle_rejects_wrong_parameters_and_objective():
    truth = dict(oracles.CYLINDER)
    freqs = np.geomspace(*oracles.BAND_HZ, 20)
    ref = oracles.FrfReference(truth, freqs, oracles.transfer(truth, 2 * math.pi * freqs))
    assert ref.params == pytest.approx(truth, rel=1e-8)
    oracles.check_recovery({**truth, "objective": 1e-18}, ref)
    with pytest.raises(oracles.OracleMiss):
        oracles.check_recovery({**truth, "lambda1": 1.03 * truth["lambda1"], "objective": 0.0}, ref)
    with pytest.raises(oracles.OracleMiss):
        oracles.check_recovery({**truth, "objective": 1.0}, ref)


def test_identify_checks_reject_wrong_fit_summaries(tmp_path):
    _, workload, _ = run.set_up(workloads.IdentifyFrf, tmp_path, seed=0)
    io, fo = workload._fits()[0], workload._fits()[5]  # IO 20pt default, FO 20pt clean perturbed
    truth = workload.draws[1]["truth"]

    def cli_result(code=0, **summary):
        return code, json.dumps({**truth, "alpha": 1.0, "objective": 1e3, **summary}) + "\n"

    io.check(cli_result())
    fo.check(cli_result(objective=0.0, alpha=truth["alpha"]))
    for op, result in ((io, cli_result(objective=0.0)),  # IO no worse than FO
                       (io, cli_result(code=4)),
                       (fo, cli_result(objective=0.0, alpha=1.0))):
        with pytest.raises(oracles.OracleMiss):
            op.check(result)


def test_tracer_skips_a_removed_lookup_and_records_zero():
    class Module:
        pass

    modules = {"fojeffreys.fractional": Module()}  # no gl_weights, no gl_differintegral
    tracer = tracing.Tracer()
    tracer.install(modules)
    tracer.uninstall()
    metrics = tracer.layer_metrics(rounds=1)
    assert metrics["fractional.gl_weights.calls"]["value"] == 0
    assert {name for name, _, _ in tracing.PER_LAYER} - set(metrics) == {"trace.overhead_ratio"}


def test_tracer_wraps_and_restores_and_computes_self_time():
    class Module:
        @staticmethod
        def gl_weights(order, n):
            time.sleep(0.01)

    module = Module()
    real = module.gl_weights
    tracer = tracing.Tracer()
    tracer.install({"fojeffreys.simulate": module})
    assert module.gl_weights is not real
    tracer.call("cli.simulate", lambda: (module.gl_weights(1.5, 10), time.sleep(0.02)))
    tracer.uninstall()
    assert module.gl_weights is real
    metrics = tracer.layer_metrics(rounds=1)
    child = metrics["fractional.gl_weights.time_s"]["value"]
    parent = metrics["cli.simulate.time_s"]["value"]
    assert metrics["cli.simulate.self_s"]["value"] == pytest.approx(parent - child)
    assert child >= 0.01 and parent - child >= 0.02


def test_tail_is_the_highest_percentile_with_ten_samples_above_it():
    assert run.tail([float(v) for v in range(1, 41)]) == (30.0, 75.0)
    assert run.tail([float(v) for v in range(1, 37)]) == (26.0, 70.0)
    assert run.tail([float(v) for v in range(1, 100)]) == (75.0, 75.0)
    assert run.tail([float(v) for v in range(1, 1001)]) == (990.0, 99.0)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


@pytest.mark.xfail(reason="fit from the heuristic guess can stop on the lambda1 -> 0 boundary")
def test_fit_from_default_guess_recovers_a_draw_it_misses_today(tmp_path):
    # A parameter draw on which `fit` from its heuristic initial guess ends at
    # objective ~1.4e3 with lambda1 near zero, exit code 0 and converged=true.
    # The fixed identify-frf inputs do not contain such a draw.
    truth = workloads.draw_params(np.random.default_rng([1, 6]))
    freqs = np.geomspace(*oracles.BAND_HZ, 200)
    gains = oracles.transfer(truth, 2 * math.pi * freqs)
    oracles.write_frf_file(tmp_path / "frf.csv", freqs, gains)
    argv = ["fit", "--frf", str(tmp_path / "frf.csv"), "--report", str(tmp_path / "report.csv")]
    fj = SimpleNamespace(cli=run.import_package()["fojeffreys.cli"])
    summary = workloads.summary_of(workloads.run_cli(fj, argv, workloads.direct))
    oracles.check_recovery(summary, oracles.FrfReference(truth, freqs, gains))
