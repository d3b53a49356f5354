import argparse
import codecs
import dataclasses
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import fojeffreys.cli
from fojeffreys import SimulationResult, TimeSeries, generate_signal, identify
from fojeffreys.cli import main
from fojeffreys.dataio import (
    FRF_HEADER,
    read_frf,
    read_params,
    read_timeseries,
    write_columns,
    write_timeseries,
)

from conftest import CYLINDER, grid_start_wins_unconverged

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

    def test_infinite_f_max_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "freqresp", *CYL_FLAGS,
            "--f-min", "1", "--f-max", "inf",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert err.startswith("error: need 0 < f_min < f_max < inf")

    @pytest.mark.parametrize(
        "band", [("1e-320", "1"), ("0.005", "1e300")], ids=["inf-db", "minus-inf-db"]
    )
    def test_non_finite_gain_is_usage_error(self, tmp_path, capsys, band):
        # |G| overflows at the low end and underflows to 0 at the high end;
        # the file would hold a row that `fit --frf` refuses.
        out = tmp_path / "x.csv"
        code, stdout, err = run(
            capsys,
            "freqresp", *CYL_FLAGS,
            "--f-min", band[0], "--f-max", band[1], "--n-points", "5",
            "--out", str(out),
        )
        assert code == 2
        assert err.startswith("error: ") and "not finite" in err
        assert stdout == "" and not out.exists()

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

    def test_growing_tail_near_the_top_of_binary64(self, tmp_path):
        # The late window's sum of |x| overflows; a fresh process, so that a
        # numpy warning would reach stderr.
        src = str(Path(fojeffreys.cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "fojeffreys.cli", "simulate",
             "--mu", "1", "--lambda1", "0.01", "--lambda2", "0.05", "--alpha", "1.5",
             "--signal", "step", "--amplitude", "1e305", "--duration", "5", "--step", "1e-3",
             "--out-input", str(tmp_path / "tau.csv"), "--out-output", str(tmp_path / "x.csv")],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout)["late_trend"] == "growing"

    def test_huge_step_trend_is_warning_free(self, tmp_path):
        # A time axis near 1e300 once overflowed the late-trend line fit after
        # the files were written; under -W error that warning exited 1.
        src = str(Path(fojeffreys.cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "fojeffreys.cli", "simulate", *CYL_FLAGS,
             "--signal", "step", "--amplitude", "1", "--duration", "1e300", "--step", "1e299",
             "--out-input", str(tmp_path / "tau.csv"), "--out-output", str(tmp_path / "x.csv")],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout)["late_trend"] == "constant"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--mu", "1e-310", *CYL_FLAGS[2:], "--signal", "step", "--amplitude", "1",
             "--duration", "1", "--step", "1e-3"],
            ["--mu", "171e3", "--lambda1", "1e-300", "--lambda2", "1e300", "--alpha", "1.9",
             "--signal", "step", "--amplitude", "1", "--duration", "1", "--step", "1e-3"],
            ["--mu", "171e3", "--lambda1", "1e300", "--lambda2", "1e301", "--alpha", "1.9",
             "--signal", "impulse", "--area", "1", "--duration", "1", "--step", "1e-3"],
            [*CYL_FLAGS, "--signal", "step", "--amplitude", "1",
             "--duration", "1e-116", "--step", "1e-120"],
        ],
        ids=["tiny-mu", "huge-lambda2", "huge-lambdas", "tiny-step"],
    )
    def test_overflowing_transfer_is_a_divergence_under_w_error(self, tmp_path, argv):
        # G overflows on the contour. Under -W error a numpy warning there
        # once exited 1 with a traceback; it is a divergence, reported once.
        src = str(Path(fojeffreys.cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "fojeffreys.cli", "simulate", *argv,
             "--out-input", str(tmp_path / "tau.csv"), "--out-output", str(tmp_path / "x.csv")],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        )
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr.startswith("divergence: ") and done.stderr.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize(
        "grid", [("2.5", "1e-310"), ("1e300", "1e-10")], ids=["subnormal-step", "long"]
    )
    def test_sample_count_overflow_is_usage_error(self, tmp_path, capsys, grid):
        code, stdout, err = run(
            capsys,
            "simulate", *CYL_FLAGS,
            "--signal", "impulse", "--area", "1",
            "--duration", grid[0], "--step", grid[1],
            "--out-input", str(tmp_path / "tau.csv"),
            "--out-output", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert err.startswith("error: ") and "overflows the sample count" in err
        assert stdout == "" and not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "signal",
        [
            ("--signal", "slope", "--rate", "1e308"),
            ("--signal", "sine", "--amplitude", "1", "--frequency", "1e307"),
        ],
        ids=["slope", "sine"],
    )
    def test_signal_beyond_binary64_is_usage_error(self, tmp_path, capsys, signal):
        # Finite flags whose samples overflow: refused, with no warning.
        code, stdout, err = run(
            capsys,
            "simulate", *CYL_FLAGS, *signal,
            "--duration", "10", "--step", "1e-3",
            "--out-input", str(tmp_path / "tau.csv"),
            "--out-output", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert err == "error: time series samples must all be finite\n"
        assert stdout == "" and not any(tmp_path.iterdir())

    def test_zero_area_impulse_meets_zero_limit(self, tmp_path, capsys):
        # The divergence limit scales with the area, so a zero area gives 0.
        code, out, _ = run(
            capsys,
            "simulate", *CYL_FLAGS,
            "--signal", "impulse", "--area", "0",
            "--duration", "0.1", "--step", "1e-2",
            "--out-input", str(tmp_path / "tau.csv"),
            "--out-output", str(tmp_path / "x.csv"),
        )
        assert code == 0
        assert json.loads(out)["final_value"] == 0.0

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


    def test_files_share_time_column_bytes(self, tmp_path, capsys):
        # 5001 rows span two write chunks.
        code, _, _ = run(
            capsys,
            "simulate", *CYL_FLAGS,
            "--signal", "slope", "--rate", "2",
            "--duration", "5", "--step", "1e-3",
            "--out-input", str(tmp_path / "tau.csv"),
            "--out-output", str(tmp_path / "x.csv"),
        )
        assert code == 0
        tau_lines = (tmp_path / "tau.csv").read_bytes().splitlines()
        x_lines = (tmp_path / "x.csv").read_bytes().splitlines()
        assert len(tau_lines) == len(x_lines) == 5002
        assert [t.split(b",")[0] for t in tau_lines[1:]] == [
            x.split(b",")[0] for x in x_lines[1:]
        ]
        write_timeseries(generate_signal("slope", 5.0, 1e-3, rate=2.0), tmp_path / "expected.csv")
        expected = (tmp_path / "expected.csv").read_bytes()
        assert (tmp_path / "tau.csv").read_bytes() == expected

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        self.check_unwritable(
            tmp_path, capsys, "missing/x.csv", "[Errno 2] No such file or directory"
        )

    def test_directory_output_is_usage_error(self, tmp_path, capsys):
        self.check_unwritable(tmp_path, capsys, ".", "[Errno 21] Is a directory")

    def check_unwritable(self, tmp_path, capsys, name, reason):
        # An earlier output file keeps its old bytes when a later one fails to open.
        path = os.path.join(tmp_path, name)
        earlier = b"time_s,value\n0.0,1.0\n0.5,2.0\n"
        (tmp_path / "tau.csv").write_bytes(earlier)
        code, _, err = run(
            capsys,
            "simulate", *CYL_FLAGS,
            "--signal", "impulse", "--area", "1",
            "--duration", "1", "--step", "1e-3",
            "--out-input", str(tmp_path / "tau.csv"),
            "--out-output", path,
        )
        assert code == 2
        assert err == f"error: {reason}: {path!r}\n"
        assert (tmp_path / "tau.csv").read_bytes() == earlier

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    def test_output_to_the_null_device(self, tmp_path, capsys):
        # A character device takes the rows but cannot be cut to length.
        flags = [
            "simulate", *CYL_FLAGS,
            "--signal", "impulse", "--area", "1",
            "--duration", "1", "--step", "1e-3",
        ]
        code, out, err = run(
            capsys, *flags,
            "--out-input", os.devnull, "--out-output", str(tmp_path / "x.csv"),
        )
        assert (code, err) == (0, "")
        code, expected, _ = run(
            capsys, *flags,
            "--out-input", str(tmp_path / "tau.csv"), "--out-output", str(tmp_path / "x1.csv"),
        )
        assert (code, out) == (0, expected)
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "x1.csv").read_bytes()


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
            "fit", "--frf", str(frf), "--report", str(report),
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
        run(capsys, "fit", "--frf", str(frf), "--report", str(report))
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

    def test_gain_beyond_binary64_is_usage_error(self, tmp_path, capsys):
        # A finite dB value whose gain overflows: refused, with no warning.
        path = tmp_path / "frf.csv"
        path.write_text(
            "frequency_hz,magnitude_db,phase_deg\n"
            "0.01,1,-100\n0.02,1,-100\n0.03,7000,-100\n0.04,1,-100\n"
        )
        report = tmp_path / "r.csv"
        code, stdout, err = run(capsys, "fit", "--frf", str(path), "--report", str(report))
        assert code == 2
        assert err == "error: gains must be finite and non-zero\n"
        assert stdout == "" and not report.exists()

    def test_missing_file_rejected(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "fit", "--frf", str(tmp_path / "nope.csv"),
            "--report", str(tmp_path / "r.csv"),
        )
        assert code == 2

    def test_guess_needs_no_mu(self, tmp_path, capsys):
        # The fit projects mu out, so a guess without --mu is complete and
        # --mu, still accepted, changes nothing.
        frf = self.make_frf_file(tmp_path, capsys)
        guess = ["--lambda1", "0.01", "--lambda2", "0.05", "--alpha", "1.5"]
        outputs = []
        for extra, name in (([], "without.csv"), (["--mu", "1e-300"], "with.csv")):
            report = tmp_path / name
            code, out, err = run(
                capsys, "fit", "--frf", str(frf), "--report", str(report), *guess, *extra
            )
            assert code == 0, err
            outputs.append((out, report.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_invalid_guess_mu_is_usage_error(self, tmp_path, capsys):
        # mu is never read by the fit, but a given --mu is still checked.
        frf = self.make_frf_file(tmp_path, capsys)
        report = tmp_path / "report.csv"
        code, out, err = run(
            capsys, "fit", "--frf", str(frf), "--report", str(report),
            "--mu", "-1", "--lambda1", "0.01", "--lambda2", "0.05", "--alpha", "1.4",
        )
        assert code == 2
        assert err == "error: mu must be a positive finite number, got -1.0\n"
        assert out == "" and not report.exists()

    def test_partial_guess_names_the_missing_parameters(self, tmp_path, capsys):
        frf = self.make_frf_file(tmp_path, capsys)
        report = tmp_path / "report.csv"
        code, out, err = run(
            capsys, "fit", "--frf", str(frf), "--report", str(report), "--lambda1", "0.01"
        )
        assert code == 2
        assert err == "error: missing model parameters: lambda2, alpha\n"
        assert out == "" and not report.exists()

    def test_non_convergence_exit_code_writes_incumbent(self, tmp_path, capsys, monkeypatch):
        frf = self.make_frf_file(tmp_path, capsys)
        report = tmp_path / "incumbent.csv"
        monkeypatch.setattr(identify, "_MAX_EVALUATIONS", 2)
        code, out, err = run(capsys, "fit", "--frf", str(frf), "--report", str(report))
        assert code == 4
        assert "did not converge" in err
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["converged"] is False
        assert report.exists()
        read_params(report)

    def test_unconverged_kept_start_exits_4(self, tmp_path, capsys, monkeypatch):
        # Exit 4 exactly when the summary prints "converged": false, even
        # when the other start converged at a higher cost.
        frf = self.make_frf_file(tmp_path, capsys)
        grid_start_wins_unconverged(monkeypatch)
        report = tmp_path / "incumbent.csv"
        code, out, err = run(
            capsys,
            "fit", "--frf", str(frf), "--report", str(report),
            "--lambda1", "0.01", "--lambda2", "0.06", "--alpha", "1.3",
        )
        assert code == 4
        assert "did not converge" in err
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["converged"] is False
        assert summary["objective"] < 1e-12
        written = dataclasses.asdict(read_params(report))
        assert written == {name: summary[name] for name in CYLINDER}

    def test_removed_budget_flag_is_unknown(self, tmp_path, capsys):
        # The evaluation budget is a fixed constant; the flag that set it is gone.
        frf = self.make_frf_file(tmp_path, capsys)
        report = tmp_path / "report.csv"
        code, out, err = run(
            capsys,
            "fit", "--frf", str(frf), "--report", str(report), "--max-iterations", "5",
        )
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --max-iterations 5" in err
        assert not report.exists()

    def test_byte_order_mark_is_read_past(self, tmp_path, capsys):
        frf = self.make_frf_file(tmp_path, capsys)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + frf.read_bytes())
        reports = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
        _, out1, _ = run(capsys, "fit", "--frf", str(frf), "--report", str(reports[0]))
        code, out2, _ = run(capsys, "fit", "--frf", str(marked), "--report", str(reports[1]))
        assert code == 0
        assert out2 == out1
        assert reports[1].read_bytes() == reports[0].read_bytes()

    def test_deterministic_outputs(self, tmp_path, capsys):
        frf = self.make_frf_file(tmp_path, capsys)
        r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        _, out1, _ = run(capsys, "fit", "--frf", str(frf), "--report", str(r1))
        _, out2, _ = run(capsys, "fit", "--frf", str(frf), "--report", str(r2))
        assert r1.read_bytes() == r2.read_bytes()
        assert out1 == out2

    def test_guess_violating_constraints_is_not_rejected(self, tmp_path, capsys):
        # An initial guess with lambda1 > lambda2 is only a starting point:
        # the fit's parameterisation, not validation, keeps lambda1 < lambda2.
        frf = self.make_frf_file(tmp_path, capsys)
        code, out, err = run(
            capsys,
            "fit", "--frf", str(frf), "--report", str(tmp_path / "r.csv"),
            "--mu", "1e5", "--lambda1", "0.05", "--lambda2", "0.02", "--alpha", "1.5",
        )
        assert code != 2
        assert "constraints violated" not in err
        assert json.loads(out.strip().splitlines()[-1])["objective"] < 1e-12

    @pytest.mark.parametrize("scale", [1.71e-305, 1.71e-295])
    def test_extreme_gain_level(self, tmp_path, capsys, scale):
        # The cylinder FRF scaled down: at 1.71e-295 mu is 1e300 and the fit
        # is exact; at 1.71e-305 mu would be 1e310, beyond the float range,
        # which is a usage error with a message, not a traceback.
        frf = self.make_frf_file(tmp_path, capsys)
        data = read_frf(frf)
        scaled = tmp_path / "scaled.csv"
        write_columns(
            FRF_HEADER,
            (data.frequencies_hz, data.magnitude_db + 20.0 * math.log10(scale),
             data.phase_deg_unwrapped), scaled,
        )
        code, out, err = run(
            capsys, "fit", "--frf", str(scaled), "--report", str(tmp_path / "r.csv")
        )
        if scale < 1e-300:
            assert code == 2
            assert "mu = 10^310.0" in err
        else:
            assert code == 0
            summary = json.loads(out.strip().splitlines()[-1])
            assert summary["objective"] < 1e-12
            assert abs(summary["mu"] / 1e300 - 1.0) <= 0.02


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

    def test_same_bits_as_scipy_fft(self, tmp_path, capsys, monkeypatch):
        # Each order is its own simulate call, and irfft is numpy's.
        argv = [
            "impulse-study", *CYL_FLAGS, "--gammas", "0.9,1,1.1",
            "--duration", "10", "--step", "1e-3",
        ]
        files = [tmp_path / "numpy.csv", tmp_path / "scipy.csv"]
        _, out1, _ = run(capsys, *argv, "--out", str(files[0]))
        # The package exports the function under the module's name.
        solver = importlib.import_module("fojeffreys.simulate")
        monkeypatch.setattr(solver, "rfft", scipy.fft.rfft)
        monkeypatch.setattr(solver, "irfft", scipy.fft.irfft)
        code, out2, _ = run(capsys, *argv, "--out", str(files[1]))
        assert code == 0
        assert out2 == out1
        assert files[1].read_bytes() == files[0].read_bytes()

    def test_divergence_after_earlier_summaries(self, tmp_path, capsys):
        # gamma = 0.9 stays bounded and is reported; gamma = 1.99 passes the
        # limit at the second sample, so the command exits 3 and writes no file.
        out_file = tmp_path / "study.csv"
        code, out, err = run(
            capsys,
            "impulse-study",
            "--mu", "1", "--lambda1", "0.01", "--lambda2", "0.05", "--alpha", "1.2",
            "--gammas", "0.9,1.99",
            "--area", "1", "--duration", "1e13", "--step", "1e12",
            "--out", str(out_file),
        )
        assert code == 3
        assert [json.loads(line)["gamma"] for line in out.splitlines()] == [0.9]
        assert err == "divergence: output magnitude exceeded 1e+12 at sample index 1\n"
        assert not out_file.exists()

    def test_sample_count_overflow_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "study.csv"
        code, stdout, err = run(
            capsys,
            "impulse-study", *CYL_FLAGS,
            "--gammas", "0.9,1",
            "--duration", "2.5", "--step", "1e-310",
            "--out", str(out),
        )
        assert code == 2
        assert err.startswith("error: ") and "overflows the sample count" in err
        assert stdout == "" and not out.exists()

    def test_coarse_grid_rejected(self, tmp_path, capsys):
        out = tmp_path / "study.csv"
        code, stdout, err = run(
            capsys,
            "impulse-study", *CYL_FLAGS,
            "--gammas", "0.9,1",
            "--duration", "0.05", "--step", "0.01",
            "--out", str(out),
        )
        assert code == 2
        assert err == "error: grid too coarse: duration/step yields 6 samples, need at least 10\n"
        assert stdout == "" and not out.exists()

    def test_out_of_bounds_gamma(self, tmp_path, capsys):
        # Every order is checked before the first solve prints a summary.
        out = tmp_path / "s.csv"
        code, stdout, err = run(
            capsys,
            "impulse-study", *CYL_FLAGS,
            "--gammas", "0.9,1,2.5",
            "--duration", "1.0", "--step", "1e-2",
            "--out", str(out),
        )
        assert code == 2
        assert "(0, 2)" in err
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize(
        "gammas, message",
        [
            ("0.9,x", "error: bad --gammas list '0.9,x'\n"),
            (",", "error: --gammas must list at least one value\n"),
        ],
    )
    def test_unreadable_gammas_list(self, tmp_path, capsys, gammas, message):
        out = tmp_path / "s.csv"
        code, stdout, err = run(
            capsys,
            "impulse-study", *CYL_FLAGS,
            "--gammas", gammas,
            "--duration", "1.0", "--step", "1e-2",
            "--out", str(out),
        )
        assert (code, err) == (2, message)
        assert stdout == "" and not out.exists()

    def test_params_file_gamma_is_validated_as_one(self, tmp_path, capsys):
        # The base set is checked at gamma = 1, whatever gamma the file holds:
        # a constrained file runs, and a violation names no gamma clause.
        values = {**CYLINDER, "beta": CYLINDER["alpha"], "gamma": 0.9}
        params = tmp_path / "params.csv"
        out = tmp_path / "s.csv"
        argv = ["impulse-study", "--params", str(params), "--gammas", "0.8,1.2",
                "--duration", "1.0", "--step", "1e-2", "--out", str(out)]
        params.write_text("".join(f"{k},{v!r}\n" for k, v in values.items()))
        code, stdout, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert [json.loads(line)["gamma"] for line in stdout.splitlines()] == [0.8, 1.2]
        out.unlink()
        values["lambda1"] = 0.05
        params.write_text("".join(f"{k},{v!r}\n" for k, v in values.items()))
        code, stdout, err = run(capsys, *argv)
        assert code == 2
        assert err == (
            "error: parameter constraints violated (use --unconstrained to bypass): "
            f"lambda2 must exceed lambda1 (lambda1=0.05, lambda2={CYLINDER['lambda2']})\n"
        )
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("gammas", ["0.9999999,1", "1,1", "0.5,1.2,0.5"])
    def test_repeated_column_label(self, tmp_path, capsys, gammas):
        # Each order's column is labelled x_gamma_{g:g}, which keeps six
        # significant digits; two equal labels could not be read back by name.
        out = tmp_path / "s.csv"
        code, stdout, err = run(
            capsys,
            "impulse-study", *CYL_FLAGS,
            "--gammas", gammas,
            "--duration", "1.0", "--step", "1e-2",
            "--out", str(out),
        )
        assert code == 2
        assert err.startswith("error: --gammas") and "label" in err
        assert stdout == "" and not out.exists()


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


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--frf", "f.csv", "--report", "r.csv", "--tolerance", "1e-10"],
        ["fit", "--frf", "f.csv", "--report", "r.csv", "--beta", "1.5"],
        ["fit", "--frf", "f.csv", "--report", "r.csv", "--gamma", "1.0"],
        ["fit", "--frf", "f.csv", "--report", "r.csv", "--unconstrained"],
        ["impulse-study", "--gammas", "1", "--duration", "1", "--step", "1e-3",
         "--out", "s.csv", "--gamma", "1.0"],
        ["fit", "--frf", "f.csv", "--report", "r.csv", "--multi", "1"],
        ["fit", "--frf", "f.csv", "--report", "r.csv", "--seed", "0"],
        ["fit", "--frf", "f.csv", "--report", "r.csv", "--multistart", "3"],
    ],
    ids=["fit-tolerance", "fit-beta", "fit-gamma", "fit-unconstrained", "study-gamma",
         "fit-multi", "fit-seed", "fit-multistart"],
)
def test_flags_a_command_does_not_read_are_usage_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "unrecognized arguments" in err


def test_option_strings_per_subcommand():
    # A flag that a command does not read must not come back unnoticed.
    parser = fojeffreys.cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: {s for action in sub._actions for s in action.option_strings}
        for name, sub in subparsers.choices.items()
    }
    # Prefix matching would turn a removed flag into a longer one.
    assert all(not sub.allow_abbrev for sub in subparsers.choices.values())
    common = {"-h", "--help", "--params", "--mu", "--lambda1", "--lambda2", "--alpha"}
    assert options == {
        "freqresp": common | {
            "--beta", "--gamma", "--unconstrained",
            "--f-min", "--f-max", "--n-points", "--out",
        },
        "simulate": common | {
            "--beta", "--gamma", "--unconstrained",
            "--signal", "--area", "--amplitude", "--rate", "--frequency",
            "--duration", "--step", "--out-input", "--out-output",
        },
        "fit": common | {
            "--frf", "--model-class", "--report",
        },
        "impulse-study": common | {
            "--beta", "--unconstrained",
            "--gammas", "--area", "--duration", "--step", "--out",
        },
    }


def test_model_class_choices_are_the_fit_classes():
    parser = fojeffreys.cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (action,) = [a for a in subparsers.choices["fit"]._actions if a.dest == "model_class"]
    assert action.choices is identify._MODEL_CLASSES


def test_start_up_leaves_scipy_optimize_unloaded():
    # Only fit needs the least-squares solver, and its import took about
    # 0.35 s of the CLI's 0.8 s cold start-up. The transforms come from
    # numpy.fft, so no other command loads any scipy module.
    src = str(Path(fojeffreys.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import sys, fojeffreys.cli; "
        "print([name for name in sys.modules if name.partition('.')[0] == 'scipy'])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    built = []
    build = fojeffreys.cli.build_parser
    monkeypatch.setattr(
        fojeffreys.cli, "build_parser", lambda: built.append(1) or build()
    )
    fojeffreys.cli._parser.cache_clear()
    for _ in range(3):
        code, _, _ = run(capsys, "fit", "--frf", "missing.csv", "--report", "r.csv")
        assert code == 2
    assert len(built) == 1
    assert build() is not build()


ALLOCATION_REFUSED = (
    "Unable to allocate 74.5 GiB for an array with shape (10000000001,) and data type float64"
)


def refuse_allocation(*args, **kwargs):
    raise MemoryError(ALLOCATION_REFUSED)


@pytest.mark.parametrize("command", ["simulate", "impulse-study", "fit"])
def test_record_too_large_to_allocate_is_usage_error(tmp_path, capsys, monkeypatch, command):
    # A 1e7 s record at 1e-3 needs 74.5 GiB per array. The refusal is stood
    # in for, not provoked: where the kernel overcommits, such an allocation
    # succeeds and the process is killed later, which no handler can catch.
    frf = tmp_path / "frf.csv"
    write_columns(
        FRF_HEADER, (np.geomspace(0.005, 1.6, 20), np.zeros(20), np.full(20, -90.0)), frf
    )
    monkeypatch.setattr(fojeffreys.cli, "generate_signal", refuse_allocation)
    monkeypatch.setattr(fojeffreys.cli, "fit", refuse_allocation)
    record = ["--duration", "1e7", "--step", "1e-3"]
    argv = {
        "simulate": ["simulate", *CYL_FLAGS, "--signal", "impulse", "--area", "1", *record,
                     "--out-input", str(tmp_path / "tau.csv"),
                     "--out-output", str(tmp_path / "x.csv")],
        "impulse-study": ["impulse-study", *CYL_FLAGS, "--gammas", "0.9,1", *record,
                          "--out", str(tmp_path / "study.csv")],
        "fit": ["fit", "--frf", str(frf), "--report", str(tmp_path / "report.csv")],
    }[command]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {ALLOCATION_REFUSED}\n"
