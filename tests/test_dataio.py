import math

import numpy as np
import pytest

from fojeffreys import FoJeffreysParams, TimeSeries, fit, FitConfig
from fojeffreys.dataio import (
    FRF_HEADER,
    FrfParseError,
    read_frf,
    read_params,
    read_timeseries,
    wrap_phase_deg,
    write_fit_report,
    write_frf,
    write_columns,
    write_frf_rows,
    write_timeseries,
)

from conftest import make_synthetic_frf


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestReadFrf:
    def test_db_deg_conversion(self, tmp_path):
        path = tmp_path / "frf.csv"
        write_lines(
            path,
            [
                FRF_HEADER,
                "0.25,0.0,0.0",
                "0.5,-20.0,-90.0",
                "1.0,0.0,0.0",
                "2.0,-40.0,-180.0",
            ],
        )
        data = read_frf(path)
        np.testing.assert_allclose(data.frequencies_hz, [0.25, 0.5, 1.0, 2.0])
        assert abs(data.gains[0] - (1.0 + 0.0j)) <= 1e-15
        assert abs(data.gains[1] - (0.0 - 0.1j)) <= 1e-15
        assert abs(data.gains[2] - (1.0 + 0.0j)) <= 1e-15
        assert abs(data.gains[3] - (-0.01 + 0.0j)) <= 1e-15

    def test_non_increasing_frequency_rejected(self, tmp_path):
        path = tmp_path / "frf.csv"
        write_lines(
            path,
            [FRF_HEADER, "1.0,0.0,0.0", "1.0,0.0,0.0", "2.0,0.0,0.0", "3.0,0.0,0.0"],
        )
        with pytest.raises(ValueError, match="strictly increasing"):
            read_frf(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "frf.csv"
        write_lines(
            path,
            [FRF_HEADER, "1.0,0.0,0.0", "2.0,oops,0.0", "3.0,0.0,0.0", "4.0,0.0,0.0"],
        )
        with pytest.raises(FrfParseError) as excinfo:
            read_frf(path)
        assert excinfo.value.line_number == 3

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "frf.csv"
        write_lines(path, [FRF_HEADER, "1.0,0.0"])
        with pytest.raises(FrfParseError) as excinfo:
            read_frf(path)
        assert excinfo.value.line_number == 2

    def test_missing_header(self, tmp_path):
        path = tmp_path / "frf.csv"
        write_lines(path, ["freq,db,deg", "1.0,0.0,0.0"])
        with pytest.raises(FrfParseError) as excinfo:
            read_frf(path)
        assert excinfo.value.line_number == 1

    def test_too_few_points(self, tmp_path):
        path = tmp_path / "frf.csv"
        write_lines(path, [FRF_HEADER, "1.0,0.0,0.0", "2.0,0.0,0.0", "3.0,0.0,0.0"])
        with pytest.raises(ValueError, match="at least 4"):
            read_frf(path)


class TestRoundTrips:
    def test_frf_round_trip(self, tmp_path, cylinder_params):
        data = make_synthetic_frf(cylinder_params)
        path = tmp_path / "frf.csv"
        write_frf(data, path)
        back = read_frf(path)
        np.testing.assert_array_equal(back.frequencies_hz, data.frequencies_hz)
        np.testing.assert_allclose(back.gains, data.gains, rtol=1e-9)

    def test_written_phase_is_wrapped(self, tmp_path, cylinder_params):
        data = make_synthetic_frf(cylinder_params)
        path = tmp_path / "frf.csv"
        write_frf(data, path)
        phases = [
            float(line.split(",")[2])
            for line in path.read_text().splitlines()[1:]
        ]
        assert all(-360.0 < p <= 0.0 for p in phases)

    def test_timeseries_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        series = TimeSeries(step=1e-3, samples=rng.normal(size=1000))
        path = tmp_path / "ts.csv"
        write_timeseries(series, path)
        back = read_timeseries(path)
        assert back.step == series.step
        np.testing.assert_array_equal(back.samples, series.samples)

    def test_lf_line_endings(self, tmp_path, cylinder_params):
        path = tmp_path / "frf.csv"
        write_frf(make_synthetic_frf(cylinder_params), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestReadTimeseries:
    def test_non_uniform_spacing_rejected(self, tmp_path):
        path = tmp_path / "ts.csv"
        write_lines(path, ["time_s,value", "0.0,1.0", "0.1,2.0", "0.25,3.0"])
        with pytest.raises(ValueError, match="non-uniform"):
            read_timeseries(path)

    def test_must_start_at_zero(self, tmp_path):
        path = tmp_path / "ts.csv"
        write_lines(path, ["time_s,value", "0.5,1.0", "0.6,2.0", "0.7,3.0"])
        with pytest.raises(ValueError, match="start at t = 0"):
            read_timeseries(path)

    def test_too_short(self, tmp_path):
        path = tmp_path / "ts.csv"
        write_lines(path, ["time_s,value", "0.0,1.0"])
        with pytest.raises(ValueError, match="at least 2"):
            read_timeseries(path)


class TestFitReport:
    def test_params_round_trip_and_residual_identity(self, tmp_path, cylinder_params):
        data = make_synthetic_frf(cylinder_params)
        result = fit(data, FitConfig(seed=0))
        path = tmp_path / "report.csv"
        write_fit_report(result, data, path)

        params = read_params(path)
        for name in ("mu", "lambda1", "lambda2", "alpha", "beta", "gamma"):
            assert getattr(params, name) == getattr(result.params, name)

        rows = [
            line.split(",")
            for line in path.read_text().splitlines()
            if line and line[0].isdigit()
        ]
        table = np.array([[float(v) for v in row] for row in rows if len(row) == 7])
        assert table.shape == (len(data), 7)
        total = float(np.sum(table[:, 5] ** 2) + np.sum(table[:, 6] ** 2))
        assert math.isclose(total, result.objective, rel_tol=1e-9, abs_tol=1e-24)

    def test_read_params_requires_all_fields(self, tmp_path):
        path = tmp_path / "params.csv"
        write_lines(path, ["mu,1.0", "lambda1,0.01", "lambda2,0.05"])
        with pytest.raises(ValueError, match="missing parameter fields"):
            read_params(path)

    def test_read_params_plain_file(self, tmp_path):
        path = tmp_path / "params.csv"
        write_lines(
            path,
            [
                "# comment",
                "mu,171000.0",
                "lambda1,0.013",
                "lambda2,0.047",
                "alpha,1.571",
                "beta,1.571",
                "gamma,1.0",
            ],
        )
        params = read_params(path)
        assert params == FoJeffreysParams(
            mu=171000.0, lambda1=0.013, lambda2=0.047, alpha=1.571, beta=1.571, gamma=1.0
        )


class TestWrapPhase:
    def test_wrap_interval(self):
        assert wrap_phase_deg(0.0) == 0.0
        assert wrap_phase_deg(-90.0) == -90.0
        assert wrap_phase_deg(10.0) == -350.0
        assert wrap_phase_deg(-360.0) == 0.0
        values = wrap_phase_deg(np.array([720.5, -725.0]))
        np.testing.assert_allclose(values, [-359.5, -5.0])


def test_write_frf_rows_allows_short_sweeps(tmp_path):
    # Model sweeps may be shorter than the dataset minimum; reading such a
    # file back as a dataset is what fails.
    path = tmp_path / "two.csv"
    write_frf_rows([1.0, 2.0], [0.0, -6.0], [-90.0, -90.0], path)
    assert len(path.read_text().splitlines()) == 3
    with pytest.raises(ValueError, match="at least 4"):
        read_frf(path)


def test_write_columns_formats_shortest_round_trip(tmp_path):
    path = tmp_path / "cols.csv"
    write_columns("a,b", ([0.1, 1e-300], np.array([1.0 / 3.0, -2.0])), path)
    assert path.read_bytes() == b"a,b\n0.1,0.3333333333333333\n1e-300,-2.0\n"
