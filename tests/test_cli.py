import json
import math

import numpy as np

import fojeffreys.cli
from fojeffreys import SimulationResult, TimeSeries
from fojeffreys.cli import main
from fojeffreys.dataio import read_frf, read_params, read_timeseries

from conftest import CYLINDER

CYL_FLAGS = [
    "--mu", "171e3",
    "--lambda1", "0.013",
    "--lambda2", "0.047",
    "--alpha", "1.571",
]
DASHPOT_FLAGS = [
    "--mu", "1.0",
    "--lambda1", "0.1",
    "--lambda2", "0.1",
    "--alpha", "1.0",
    "--unconstrained",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFreqresp:
    def test_sweep_file_and_asymptote(self, tmp_path, capsys):
        out = tmp_path / "frf.csv"
        code, _, _ = run(
            capsys,
            "freqresp", *CYL_FLAGS,
            "--f-min", "0.005", "--f-max", "1.6", "--n-points", "20",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 21
        first = [float(v) for v in lines[1].split(",")]
        expected_db = 20.0 * math.log10(1.0 / (171e3 * 2.0 * math.pi * 0.005))
        assert first[0] == 0.005
        assert abs(first[1] - expected_db) <= 0.05

    def test_dashpot_phase_column(self, tmp_path, capsys):
        out = tmp_path / "frf.csv"
        code, _, _ = run(
            capsys,
            "freqresp", *DASHPOT_FLAGS,
            "--f-min", "0.01", "--f-max", "10", "--n-points", "12",
            "--out", str(out),
        )
        assert code == 0
        phases = [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
        assert all(abs(p + 90.0) <= 1e-9 for p in phases)

    def test_zero_f_min_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "freqresp", *CYL_FLAGS,
            "--f-min", "0", "--f-max", "1.6",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "f_min" in err

    def test_two_point_sweep_is_writable(self, tmp_path, capsys):
        # short sweeps are legal output; only dataset-level reads need >= 4
        out = tmp_path / "two.csv"
        code, _, _ = run(
            capsys,
            "freqresp", *CYL_FLAGS,
            "--f-min", "0.1", "--f-max", "1.0", "--n-points", "2",
            "--out", str(out),
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

    def test_single_point_rejected(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "freqresp", *CYL_FLAGS,
            "--f-min", "0.1", "--f-max", "1.0", "--n-points", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_missing_parameters(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "freqresp", "--mu", "1.0",
            "--f-min", "0.1", "--f-max", "1.0",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "missing model parameters" in err

    def test_constraint_violation_needs_flag(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "freqresp",
            "--mu", "1.0", "--lambda1", "0.05", "--lambda2", "0.01", "--alpha", "1.0",
            "--f-min", "0.1", "--f-max", "1.0",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "lambda2" in err

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        code = main(["freqresp", "--bogus", "1"])
        capsys.readouterr()
        assert code == 2


class TestSimulate:
    def test_impulse_final_value(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "simulate", *CYL_FLAGS,
            "--signal", "impulse", "--area", "1",
            "--duration", "2.5", "--step", "1e-3",
            "--out-input", str(tmp_path / "tau.csv"),
            "--out-output", str(tmp_path / "x.csv"),
        )
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        plateau = 1.0 / 171e3
        assert abs(summary["final_value"] - plateau) / plateau <= 0.02
        assert summary["late_trend"] == "constant"
        series = read_timeseries(tmp_path / "x.csv")
        assert abs(series.samples[-1] - plateau) / plateau <= 0.02
        tau = read_timeseries(tmp_path / "tau.csv")
        assert tau.samples[0] == 1.0 / 1e-3

    def test_slope_response_lags_dashpot(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "simulate", *CYL_FLAGS,
            "--signal", "slope", "--rate", "1000",
            "--duration", "0.25", "--step", "1e-3",
            "--out-input", str(tmp_path / "tau.csv"),
            "--out-output", str(tmp_path / "x.csv"),
        )
        assert code == 0
        series = read_timeseries(tmp_path / "x.csv")
        t = series.times[1:]
        dashpot = 1000.0 * t**2 / (2.0 * 171e3)
        ratio = series.samples[1:] / dashpot
        assert np.all(ratio < 1.0)

    def test_growing_tail_flagged_for_super_unit_integrator(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "simulate", *CYL_FLAGS, "--gamma", "1.1", "--unconstrained",
            "--signal", "impulse", "--area", "1",
            "--duration", "2.5", "--step", "1e-3",
            "--out-input", str(tmp_path / "tau.csv"),
            "--out-output", str(tmp_path / "x.csv"),
        )
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["late_trend"] == "growing"

    def test_divergence_exit_code_and_diagnostics(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "simulate",
            "--mu", "1e-3", "--lambda1", "0.01", "--lambda2", "0.05", "--alpha", "1.2",
            "--signal", "step", "--amplitude", "1e308",
            "--duration", "1", "--step", "0.01",
            "--out-input", str(tmp_path / "tau.csv"),
            "--out-output", str(tmp_path / "x.csv"),
        )
        assert code == 3
        assert "sample index 0" in err

    def test_coarse_grid_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "simulate", *CYL_FLAGS,
            "--signal", "step", "--amplitude", "1",
            "--duration", "0.05", "--step", "0.01",
            "--out-input", str(tmp_path / "tau.csv"),
            "--out-output", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "grid too coarse" in err

    def test_missing_signal_field(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "simulate", *CYL_FLAGS,
            "--signal", "impulse",
            "--duration", "1", "--step", "1e-2",
            "--out-input", str(tmp_path / "tau.csv"),
            "--out-output", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "area" in err


class TestFit:
    def make_frf_file(self, tmp_path, capsys, n_points=20):
        path = tmp_path / "frf.csv"
        code, _, _ = run(
            capsys,
            "freqresp", *CYL_FLAGS,
            "--f-min", "0.005", "--f-max", "1.6", "--n-points", str(n_points),
            "--out", str(path),
        )
        assert code == 0
        return path

    def test_recovers_generators_and_prints_summary(self, tmp_path, capsys):
        frf = self.make_frf_file(tmp_path, capsys)
        report = tmp_path / "report.csv"
        code, out, _ = run(
            capsys,
            "fit", "--frf", str(frf), "--report", str(report), "--seed", "0",
        )
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        for name in ("mu", "lambda1", "lambda2", "alpha"):
            assert abs(summary[name] - CYLINDER[name]) / CYLINDER[name] <= 0.02
        assert summary["converged"] is True
        params = read_params(report)
        assert params.mu == summary["mu"]

    def test_report_feeds_simulate(self, tmp_path, capsys):
        frf = self.make_frf_file(tmp_path, capsys)
        report = tmp_path / "report.csv"
        run(capsys, "fit", "--frf", str(frf), "--report", str(report), "--seed", "0")
        code, out, _ = run(
            capsys,
            "simulate", "--params", str(report),
            "--signal", "impulse", "--area", "1",
            "--duration", "2.0", "--step", "1e-3",
            "--out-input", str(tmp_path / "tau.csv"),
            "--out-output", str(tmp_path / "x.csv"),
        )
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        plateau = 1.0 / 171e3
        assert abs(summary["final_value"] - plateau) / plateau <= 0.03

    def test_io_objective_exceeds_fo(self, tmp_path, capsys):
        frf = self.make_frf_file(tmp_path, capsys)
        _, out_fo, _ = run(
            capsys,
            "fit", "--frf", str(frf), "--report", str(tmp_path / "fo.csv"),
        )
        _, out_io, _ = run(
            capsys,
            "fit", "--frf", str(frf), "--model-class", "IO",
            "--report", str(tmp_path / "io.csv"),
        )
        fo = json.loads(out_fo.strip().splitlines()[-1])
        io = json.loads(out_io.strip().splitlines()[-1])
        assert io["objective"] > fo["objective"]

    def test_three_point_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "three.csv"
        path.write_text(
            "frequency_hz,magnitude_db,phase_deg\n"
            "0.1,0.0,-90.0\n0.2,-6.0,-90.0\n1.0,-20.0,-90.0\n"
        )
        code, _, err = run(
            capsys, "fit", "--frf", str(path), "--report", str(tmp_path / "r.csv")
        )
        assert code == 2
        assert "at least 4" in err

    def test_missing_file_rejected(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "fit", "--frf", str(tmp_path / "nope.csv"),
            "--report", str(tmp_path / "r.csv"),
        )
        assert code == 2

    def test_non_convergence_exit_code_writes_incumbent(self, tmp_path, capsys):
        frf = self.make_frf_file(tmp_path, capsys)
        report = tmp_path / "incumbent.csv"
        code, out, err = run(
            capsys,
            "fit", "--frf", str(frf), "--report", str(report),
            "--max-iterations", "2", "--multistart", "2",
        )
        assert code == 4
        assert "did not converge" in err
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["converged"] is False
        assert report.exists()
        read_params(report)

    def test_deterministic_outputs(self, tmp_path, capsys):
        frf = self.make_frf_file(tmp_path, capsys)
        r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        _, out1, _ = run(
            capsys,
            "fit", "--frf", str(frf), "--report", str(r1),
            "--seed", "7", "--multistart", "4",
        )
        _, out2, _ = run(
            capsys,
            "fit", "--frf", str(frf), "--report", str(r2),
            "--seed", "7", "--multistart", "4",
        )
        assert r1.read_bytes() == r2.read_bytes()
        assert out1 == out2


class TestImpulseStudy:
    def test_trichotomy_columns_and_trends(self, tmp_path, capsys):
        out_file = tmp_path / "study.csv"
        code, out, _ = run(
            capsys,
            "impulse-study", *CYL_FLAGS,
            "--gammas", "0.9,1,1.1",
            "--duration", "2.5", "--step", "1e-3",
            "--out", str(out_file),
        )
        assert code == 0
        summaries = [json.loads(line) for line in out.strip().splitlines()]
        trends = {s["gamma"]: s["late_trend"] for s in summaries}
        assert trends == {0.9: "decaying", 1.0: "constant", 1.1: "growing"}
        lines = out_file.read_text().splitlines()
        assert lines[0] == "time_s,x_gamma_0.9,x_gamma_1,x_gamma_1.1"
        assert len(lines) == 2502

    def test_single_unit_gamma_plateau(self, tmp_path, capsys):
        out_file = tmp_path / "study.csv"
        code, out, _ = run(
            capsys,
            "impulse-study", *CYL_FLAGS,
            "--gammas", "1",
            "--duration", "2.5", "--step", "1e-3",
            "--out", str(out_file),
        )
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        plateau = 1.0 / 171e3
        assert abs(summary["final_value"] - plateau) / plateau <= 0.02

    def test_file_bytes_pinned(self, tmp_path, capsys, monkeypatch):
        # A stand-in solver with fixed outputs isolates the file format from
        # the solver's rounding.
        def fake_simulate(params, signal, divergence_limit=None):
            k = np.arange(len(signal))
            samples = params.gamma * (k + 1.0) / 3.0 - 1e-7 * params.mu * k**2
            output = TimeSeries(step=signal.step, samples=samples)
            return SimulationResult(signal, output, params)

        monkeypatch.setattr(fojeffreys.cli, "simulate", fake_simulate)
        out_file = tmp_path / "study.csv"
        code, _, _ = run(
            capsys,
            "impulse-study", *CYL_FLAGS,
            "--gammas", "0.9,1.1",
            "--duration", "0.1", "--step", "0.01",
            "--out", str(out_file),
        )
        assert code == 0
        assert out_file.read_bytes() == (
            b"time_s,x_gamma_0.9,x_gamma_1.1\n"
            b"0.0,0.3,0.3666666666666667\n"
            b"0.01,0.5829,0.7162333333333334\n"
            b"0.02,0.8316,1.0316\n"
            b"0.03,1.0461,1.3127666666666669\n"
            b"0.04,1.2264,1.5597333333333332\n"
            b"0.05,1.3725,1.7725000000000002\n"
            b"0.06,1.4844,1.9510666666666667\n"
            b"0.07,1.5621,2.0954333333333337\n"
            b"0.08,1.6055999999999997,2.2056000000000004\n"
            b"0.09,1.6149,2.2815666666666665\n"
            b"0.1,1.5900000000000003,2.323333333333334\n"
        )

    def test_out_of_bounds_gamma(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "impulse-study", *CYL_FLAGS,
            "--gammas", "2.5",
            "--duration", "1.0", "--step", "1e-2",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2
        assert "(0, 2)" in err


def test_frf_file_round_trip_through_cli(tmp_path, capsys):
    out = tmp_path / "frf.csv"
    code = main(
        ["freqresp", *CYL_FLAGS, "--f-min", "0.005", "--f-max", "1.6",
         "--n-points", "20", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    data = read_frf(out)
    assert len(data) == 20
