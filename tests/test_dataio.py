import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fojeffreys import FitResult, FoJeffreysParams, TimeSeries, fit, FitConfig
from fojeffreys.dataio import (
    FRF_HEADER,
    FrfParseError,
    read_frf,
    read_params,
    read_timeseries,
    wrap_phase_deg,
    write_fit_report,
    write_frf,
    _CHUNK_ROWS,
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
        result = fit(data, FitConfig())
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

    def test_report_bytes_pinned(self, tmp_path):
        # A stub result runs no fit, so the bytes depend only on the residual
        # table and the writer; the measured columns read back exactly.
        frf = tmp_path / "five.csv"
        write_lines(frf, [
            FRF_HEADER,
            "0.01,-80.5,-95.0",
            "0.03,-90.0,-100.0",
            "0.1,-100.5,-110.0",
            "0.3,-110.0,-135.0",
            "1.0,-125.0,-170.0",
        ])
        stub = FitResult(
            params=FoJeffreysParams(
                mu=171e3, lambda1=0.013, lambda2=0.047, alpha=1.571, beta=1.571
            ),
            objective=12.5,
            iterations=7,
            converged=False,
            per_point_residuals=np.zeros((5, 2)),
        )
        path = tmp_path / "report.csv"
        write_fit_report(stub, read_frf(frf), path)
        assert path.read_text().splitlines() == [
            "mu,171000.0",
            "lambda1,0.013",
            "lambda2,0.047",
            "alpha,1.571",
            "beta,1.571",
            "gamma,1.0",
            "objective,12.5",
            "converged,false",
            "iterations,7",
            "frequency_hz,measured_db,measured_deg,model_db,model_deg,"
            "residual_db,residual_deg",
            "0.01,-80.5,-95.0,-80.62053308324775,-90.0157398775497,"
            "-0.12053308324775003,4.984260122450294",
            "0.03,-90.0,-100.0,-90.1491590303169,-90.08866991286537,"
            "-0.14915903031689481,9.91133008713463",
            "0.1,-100.5,-110.0,-100.51187708783281,-90.59921609656509,"
            "-0.011877087832814937,19.400783903434913",
            "0.3,-110.0,-135.0,-109.52999695316693,-93.74455887183326,"
            "0.4700030468330709,41.25544112816674",
            "1.0,-125.0,-170.0,-118.18260672705958,-136.9695655155047,"
            "6.817393272940421,33.03043448449529",
        ]
        assert path.read_bytes().endswith(b"33.03043448449529\n")

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

    @pytest.mark.parametrize("phase", [1e-14, 5e-15, 1e-300, 5e-324])
    def test_tiny_positive_phase_wraps_to_zero(self, phase):
        # x - 360 * ceil(x / 360) rounds to -360 for these, or stays at x > 0
        # where x / 360 underflows.
        assert wrap_phase_deg(phase) == 0.0
        assert wrap_phase_deg(np.array([phase, -90.0])).tolist() == [0.0, -90.0]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(-1e6, 1e6))
    def test_wrap_is_in_range_and_congruent(self, phase):
        wrapped = wrap_phase_deg(phase)
        assert -360.0 < wrapped <= 0.0
        turns = (phase - wrapped) / 360.0
        assert abs(turns - round(turns)) <= 1e-9


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=64),
    st.floats(1e-6, 1e3),
)
def test_timeseries_round_trip_is_bit_exact(tmp_path_factory, samples, step):
    path = tmp_path_factory.mktemp("series") / "s.csv"
    series = TimeSeries(step=step, samples=samples)
    write_timeseries(series, path)
    back = read_timeseries(path)
    assert back.step == series.step
    assert back.samples.tobytes() == series.samples.tobytes()


@st.composite
def frf_rows(draw):
    n = draw(st.integers(4, 32))
    freqs = np.sort(draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n, unique=True)))
    db = draw(st.lists(st.floats(-300.0, 300.0), min_size=n, max_size=n))
    deg = draw(st.lists(st.floats(-1e4, 1e4), min_size=n, max_size=n))
    return freqs, np.array(db), np.array(deg)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(frf_rows())
def test_frf_rows_round_trip(tmp_path_factory, rows):
    freqs, db, deg = rows
    path = tmp_path_factory.mktemp("frf") / "f.csv"
    write_frf_rows(freqs, db, deg, path)
    data = read_frf(path)
    assert data.frequencies_hz.tobytes() == freqs.tobytes()
    assert np.max(np.abs(data.magnitude_db - db)) <= 1e-12
    turns = (data.phase_deg_unwrapped - deg) / 360.0
    assert np.max(np.abs(turns - np.round(turns))) <= 1e-9


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


def reference_write_columns(header, columns, path):
    """The earlier one-string writer, whose bytes the chunked writer keeps."""
    rows = zip(*(map(repr, map(float, column)) for column in columns))
    text = "\n".join([header, *map(",".join, rows)]) + "\n"
    Path(path).write_text(text, encoding="utf-8", newline="\n")


class TestChunkedWriter:
    EDGE_VALUES = [-0.0, 5e-324, 1e16, 1e-5, 0.1, -1.0 / 3.0, 1e300, 12.345000000000001]

    @pytest.mark.parametrize(
        "n_rows", [0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1]
    )
    @pytest.mark.parametrize("n_columns", [2, 7])
    def test_bytes_match_one_string_writer(self, tmp_path, n_rows, n_columns):
        rng = np.random.default_rng(n_rows + n_columns)
        columns = [
            rng.choice(self.EDGE_VALUES, n_rows) * rng.choice([1.0, 1e-3], n_rows)
            for _ in range(n_columns)
        ]
        columns[0] = np.arange(n_rows) * 1e-3
        columns[-1] = columns[-1].tolist()  # list input
        header = ",".join(f"c{k}" for k in range(n_columns))
        write_columns(header, columns, tmp_path / "chunked.csv")
        reference_write_columns(header, columns, tmp_path / "reference.csv")
        expected = (tmp_path / "reference.csv").read_bytes()
        assert (tmp_path / "chunked.csv").read_bytes() == expected

    def test_edge_values_verbatim(self, tmp_path):
        values = np.array(self.EDGE_VALUES)
        write_columns("a,b", (values, values.tolist()), tmp_path / "edge.csv")
        rows = (tmp_path / "edge.csv").read_text().splitlines()[1:]
        assert rows[:4] == ["-0.0,-0.0", "5e-324,5e-324", "1e+16,1e+16", "1e-05,1e-05"]

    def test_shared_time_column_matches_single_writes(self, tmp_path):
        n = _CHUNK_ROWS + 3
        first = TimeSeries(step=1e-3, samples=np.sin(np.arange(n)))
        second = TimeSeries(step=1e-3, samples=np.cos(np.arange(n)) * 1e-6)
        write_timeseries(first, tmp_path / "a.csv", (second, tmp_path / "b.csv"))
        write_timeseries(first, tmp_path / "a1.csv")
        write_timeseries(second, tmp_path / "b1.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "a1.csv").read_bytes()
        assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "b1.csv").read_bytes()

    def test_path_named_twice_keeps_last_series(self, tmp_path):
        first = TimeSeries(step=0.5, samples=np.ones(5))
        second = TimeSeries(step=0.5, samples=np.arange(5.0))
        write_timeseries(first, tmp_path / "x.csv", (second, tmp_path / "." / "x.csv"))
        np.testing.assert_array_equal(
            read_timeseries(tmp_path / "x.csv").samples, second.samples
        )

    def test_mismatched_grids_rejected_before_writing(self, tmp_path):
        first = TimeSeries(step=0.5, samples=np.ones(5))
        with pytest.raises(ValueError, match="time step"):
            write_timeseries(
                first, tmp_path / "a.csv",
                (TimeSeries(step=0.25, samples=np.ones(5)), tmp_path / "b.csv"),
            )
        with pytest.raises(ValueError, match="differ in length"):
            write_timeseries(
                first, tmp_path / "a.csv",
                (TimeSeries(step=0.5, samples=np.ones(4)), tmp_path / "b.csv"),
            )
        assert not (tmp_path / "a.csv").exists()
