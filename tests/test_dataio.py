import codecs
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fojeffreys import (
    FitResult,
    FoJeffreysParams,
    ResidualReport,
    TimeSeries,
    fit,
    residual_report,
)
from fojeffreys import identify
from fojeffreys.dataio import (
    FRF_HEADER,
    FrfParseError,
    read_frf,
    read_params,
    read_timeseries,
    wrap_phase_deg,
    write_fit_report,
    write_frf,
    _CHUNK_VALUES,
    _VECTOR_VALUES,
    _write_tables,
    write_columns,
    write_timeseries,
)

from fojeffreys import _floatrepr

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

    def test_non_finite_value_after_a_blank_line(self, tmp_path):
        # The line-by-line scan skips the blank line and still counts it.
        path = tmp_path / "frf.csv"
        write_lines(path, [FRF_HEADER, "0.01,0.0,0.0", "", "0.03,inf,-100", "0.04,0.0,0.0"])
        with pytest.raises(FrfParseError, match="non-finite value in '0.03,inf,-100'") as excinfo:
            read_frf(path)
        assert excinfo.value.line_number == 4

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
        write_frf(data.frequencies_hz, data.gains, path)
        back = read_frf(path)
        np.testing.assert_array_equal(back.frequencies_hz, data.frequencies_hz)
        np.testing.assert_allclose(back.gains, data.gains, rtol=1e-9)

    def test_written_phase_is_wrapped(self, tmp_path, cylinder_params):
        data = make_synthetic_frf(cylinder_params)
        path = tmp_path / "frf.csv"
        write_frf(data.frequencies_hz, data.gains, path)
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
        data = make_synthetic_frf(cylinder_params)
        write_frf(data.frequencies_hz, data.gains, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestWriteFrf:
    @pytest.mark.parametrize("gain", [math.inf, math.nan, 0.0])
    def test_non_finite_row_is_refused_before_the_file(self, tmp_path, gain):
        freqs = np.array([0.5, 1.25, 2.0])
        gains = np.array([1.0 - 1.0j, gain, 0.5j])
        path = tmp_path / "frf.csv"
        with pytest.raises(ValueError, match="gain at 1.25 Hz is not finite"):
            write_frf(freqs, gains, path)
        assert not path.exists()


class TestByteOrderMark:
    """Spreadsheet exports often start with a UTF-8 byte-order mark."""

    @staticmethod
    def marked(path):
        copy = path.with_name("marked-" + path.name)
        copy.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        return copy

    def test_frf(self, tmp_path, cylinder_params):
        path = tmp_path / "frf.csv"
        data = make_synthetic_frf(cylinder_params)
        write_frf(data.frequencies_hz, data.gains, path)
        plain, marked = read_frf(path), read_frf(self.marked(path))
        assert marked.frequencies_hz.tobytes() == plain.frequencies_hz.tobytes()
        assert marked.gains.tobytes() == plain.gains.tobytes()

    def test_timeseries(self, tmp_path):
        path = tmp_path / "ts.csv"
        write_timeseries(TimeSeries(step=1e-3, samples=np.linspace(-1.0, 2.0, 50)), path)
        plain, marked = read_timeseries(path), read_timeseries(self.marked(path))
        assert marked.step == plain.step
        assert marked.samples.tobytes() == plain.samples.tobytes()

    def test_params(self, tmp_path, cylinder_params):
        path = tmp_path / "params.csv"
        write_lines(path, [f"{name},{value!r}" for name, value in vars(cylinder_params).items()])
        assert read_params(self.marked(path)) == read_params(path) == cylinder_params


class TestReadTimeseries:
    def test_non_uniform_spacing_rejected(self, tmp_path):
        path = tmp_path / "ts.csv"
        write_lines(path, ["time_s,value", "0.0,1.0", "0.1,2.0", "0.25,3.0"])
        with pytest.raises(ValueError, match="non-uniform"):
            read_timeseries(path)

    def test_non_increasing_time_rejected(self, tmp_path):
        path = tmp_path / "ts.csv"
        write_lines(path, ["time_s,value", "0.0,1.0", "0.0,2.0", "0.0,3.0"])
        with pytest.raises(ValueError, match="time column must be increasing"):
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

    def test_too_short_refused_at_write(self, tmp_path):
        # The reader could not take a one-sample file back, so none is written.
        path = tmp_path / "ts.csv"
        with pytest.raises(ValueError, match="at least 2"):
            write_timeseries(TimeSeries(step=0.5, samples=[1.0]), path)
        with pytest.raises(ValueError, match="at least 2"):
            write_timeseries(
                TimeSeries(step=0.5, samples=[1.0]), path,
                (TimeSeries(step=0.5, samples=[2.0]), tmp_path / "b.csv"),
            )
        assert not path.exists() and not (tmp_path / "b.csv").exists()


class TestFitReport:
    def test_params_round_trip_and_residual_identity(self, tmp_path, cylinder_params):
        data = make_synthetic_frf(cylinder_params)
        result = fit(data)
        path = tmp_path / "report.csv"
        write_fit_report(result, path)

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

    def test_writer_runs_no_model(self, tmp_path, cylinder_params, monkeypatch):
        # The report file is the result's own report: writing it evaluates
        # no model, so its objective line and its table cannot disagree.
        data = make_synthetic_frf(cylinder_params)
        result = fit(data)
        path = tmp_path / "report.csv"

        def no_model(*args):
            raise AssertionError("write_fit_report evaluated the model")

        monkeypatch.setattr(identify, "freq_response", no_model)
        write_fit_report(result, path)
        assert read_params(path) == result.params

    def test_report_bytes_pinned(self, tmp_path):
        # A stub result runs no fit, so the bytes depend only on the residual
        # table and the writer; the measured columns read back exactly, and
        # the objective line is the table's own sum of squares.
        frf = tmp_path / "five.csv"
        write_lines(frf, [
            FRF_HEADER,
            "0.01,-80.5,-95.0",
            "0.03,-90.0,-100.0",
            "0.1,-100.5,-110.0",
            "0.3,-110.0,-135.0",
            "1.0,-125.0,-170.0",
        ])
        params = FoJeffreysParams(
            mu=171e3, lambda1=0.013, lambda2=0.047, alpha=1.571, beta=1.571
        )
        report = residual_report(params, read_frf(frf))
        stub = FitResult(params=params, iterations=7, converged=False, report=report)
        path = tmp_path / "report.csv"
        write_fit_report(stub, path)
        assert path.read_text().splitlines() == [
            "mu,171000.0",
            "lambda1,0.013",
            "lambda2,0.047",
            "alpha,1.571",
            "beta,1.571",
            "gamma,1.0",
            "objective,3339.2234256539978",
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

    def test_non_finite_objective_reads_inf(self, tmp_path):
        # Each row holds the value's repr: an infinite residual's objective
        # reads "inf", which read_params' float() parses, not JSON's "Infinity".
        column = np.array([0.1, 0.2, 0.3, 0.4])
        residual_db = np.array([0.0, math.inf, 0.0, 0.0])
        report = ResidualReport(column, *[-column] * 4, residual_db, column)
        params = FoJeffreysParams(mu=2.0, lambda1=0.01, lambda2=0.05, alpha=1.5)
        stub = FitResult(params=params, iterations=3, converged=True, report=report)
        path = tmp_path / "report.csv"
        write_fit_report(stub, path)
        assert path.read_text().splitlines()[:10] == [
            "mu,2.0",
            "lambda1,0.01",
            "lambda2,0.05",
            "alpha,1.5",
            "beta,1.5",
            "gamma,1.0",
            "objective,inf",
            "converged,true",
            "iterations,3",
            "frequency_hz,measured_db,measured_deg,model_db,model_deg,"
            "residual_db,residual_deg",
        ]

    def test_read_params_requires_all_fields(self, tmp_path):
        path = tmp_path / "params.csv"
        write_lines(path, ["mu,1.0", "lambda1,0.01", "lambda2,0.05"])
        with pytest.raises(ValueError, match="missing parameter fields"):
            read_params(path)

    def test_read_params_bad_value_names_its_line(self, tmp_path):
        path = tmp_path / "params.csv"
        write_lines(path, ["# guess", "mu,abc"])
        with pytest.raises(FrfParseError, match="bad value for 'mu': 'abc'") as excinfo:
            read_params(path)
        assert excinfo.value.line_number == 2

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

    def test_wrap_seeded_sweep(self):
        # The property above on seeded draws from the same range, which do
        # not move when the package's literals change Hypothesis's draws;
        # half the magnitudes are log-uniform down to 1e-300.
        rng = np.random.default_rng(15)
        magnitudes = np.concatenate(
            [rng.uniform(0.0, 1e6, 75), 10.0 ** rng.uniform(-300.0, 6.0, 75)]
        )
        for phase in magnitudes * rng.choice([-1.0, 1.0], magnitudes.size):
            wrapped = wrap_phase_deg(float(phase))
            assert -360.0 < wrapped <= 0.0, phase
            turns = (phase - wrapped) / 360.0
            assert abs(turns - round(turns)) <= 1e-9, phase


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


def finite_doubles(rng, size: int) -> np.ndarray:
    """Seeded doubles over the whole finite range: uniform random bit patterns,
    so subnormals, signed zeros and extreme exponents all turn up."""
    bits = rng.integers(0, 2**64, size=size, dtype=np.uint64)
    values = bits.view(np.float64)
    return np.where(np.isfinite(values), values, 0.0)


def test_timeseries_round_trip_seeded_sweep(tmp_path):
    # test_timeseries_round_trip_is_bit_exact on seeded draws from the same
    # ranges, which do not move when the package's literals change
    # Hypothesis's draws.
    rng = np.random.default_rng(151)
    path = tmp_path / "s.csv"
    for case in range(150):
        samples = finite_doubles(rng, int(rng.integers(2, 65)))
        series = TimeSeries(step=10.0 ** rng.uniform(-6.0, 3.0), samples=samples)
        write_timeseries(series, path)
        back = read_timeseries(path)
        assert back.step == series.step, case
        assert back.samples.tobytes() == series.samples.tobytes(), case


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64),
    st.floats(1e-6, 1e3),
)
def test_long_timeseries_round_trip_is_bit_exact(tmp_path_factory, samples, step):
    # 5000 samples take the writer's vector path; the drawn values repeat.
    path = tmp_path_factory.mktemp("series") / "s.csv"
    series = TimeSeries(step=step, samples=np.resize(samples, 5000))
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
def test_raw_frf_rows_round_trip_through_write_columns(tmp_path_factory, rows):
    freqs, db, deg = rows
    path = tmp_path_factory.mktemp("frf") / "f.csv"
    write_columns(FRF_HEADER, (freqs, db, deg), path)
    data = read_frf(path)
    assert data.frequencies_hz.tobytes() == freqs.tobytes()
    assert np.max(np.abs(data.magnitude_db - db)) <= 1e-12
    turns = (data.phase_deg_unwrapped - deg) / 360.0
    assert np.max(np.abs(turns - np.round(turns))) <= 1e-9


def test_raw_frf_rows_round_trip_through_write_columns_seeded_sweep(tmp_path):
    # test_raw_frf_rows_round_trip_through_write_columns on seeded draws from
    # the same ranges, which do not move when the package's literals change
    # Hypothesis's draws.
    rng = np.random.default_rng(152)
    path = tmp_path / "f.csv"
    for case in range(150):
        n = int(rng.integers(4, 33))
        freqs = np.sort(10.0 ** rng.uniform(-3.0, 3.0, n))
        assert np.all(np.diff(freqs) > 0.0)
        db, deg = rng.uniform(-300.0, 300.0, n), rng.uniform(-1e4, 1e4, n)
        write_columns(FRF_HEADER, (freqs, db, deg), path)
        data = read_frf(path)
        assert data.frequencies_hz.tobytes() == freqs.tobytes(), case
        assert np.max(np.abs(data.magnitude_db - db)) <= 1e-12, case
        turns = (data.phase_deg_unwrapped - deg) / 360.0
        assert np.max(np.abs(turns - np.round(turns))) <= 1e-9, case


def test_write_columns_allows_short_raw_frf_sweeps(tmp_path):
    # Model sweeps may be shorter than the dataset minimum; reading such a
    # file back as a dataset is what fails.
    path = tmp_path / "two.csv"
    write_columns(FRF_HEADER, ([1.0, 2.0], [0.0, -6.0], [-90.0, -90.0]), path)
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


NEWLINE = np.uint64(ord("\n")) << np.uint64(56)


def vector_repr(values, grid=None) -> list[str]:
    """The vector formatter's text for each value, as one column."""
    column = np.asarray(values, dtype=float).reshape(-1, 1)
    cells = _floatrepr.cells(column, grid)
    cells[:, :, 3] |= NEWLINE
    return cells.tobytes().translate(None, b"\0").decode().splitlines()


class TestVectorRepr:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(st.floats(), min_size=1, max_size=40),
        st.sampled_from([1, _VECTOR_VALUES - 1, _VECTOR_VALUES]),
    )
    def test_matches_repr(self, tmp_path_factory, values, length):
        # st.floats() draws nan, +-inf, +-0.0 and subnormals. The writer
        # takes repr below _VECTOR_VALUES values and the vector path from it.
        x = np.resize(np.array(values), length)
        expected = [repr(v) for v in x.tolist()]
        assert vector_repr(x) == expected
        path = tmp_path_factory.mktemp("column") / "c.csv"
        write_columns("v", [x], path)
        assert path.read_text().splitlines() == ["v", *expected]

    def test_matches_repr_over_every_exponent(self):
        # Each biased exponent, 0 to 2047 (inf and nan), with mantissas 0, 1,
        # 2^52 - 1 and 16 seeded draws, in both signs; then a constant 1.0 and
        # a k/4 grid, dyadics that take Ryu's exact branch.
        rng = np.random.default_rng(20)
        exponents = np.arange(2048, dtype=np.uint64)[:, None] << np.uint64(52)
        mantissas = np.concatenate(
            [[[0, 1, 2**52 - 1]] * 2048, rng.integers(0, 2**52, (2048, 16))], axis=1
        ).astype(np.uint64)
        bits = (exponents | mantissas).ravel()
        sweep = np.concatenate([bits, bits | np.uint64(2**63)]).view(float)
        x = np.concatenate([sweep, np.ones(1000), np.arange(40000) * 0.25])
        assert vector_repr(x) == [repr(v) for v in x.tolist()]


class TestGridStamps:
    """Stamps k * t_1 of a grid take their digits from t_1's repr, not from Ryu."""

    @staticmethod
    def stamps(k0, step, n=_CHUNK_VALUES // 2):
        # The rows k0 .. k0 + n - 1 of TimeSeries.times, which is arange(n) * step.
        return np.arange(k0, k0 + n) * step

    @pytest.mark.parametrize(
        "step", [1e-3, 2e-4, 0.0015, 1.0 / 3.0, 1e-5, 2.5e-7, 1e-20, 12345.678, 1e-22, 3e-23]
    )
    @pytest.mark.parametrize("k0", [0, _CHUNK_VALUES // 2, 10**6, 10**12 + 7])
    def test_matches_repr(self, step, k0):
        t = self.stamps(k0, step)
        assert vector_repr(t, grid=(k0, step)) == [repr(v) for v in t.tolist()]

    def test_zero_stamp_is_not_known(self):
        t = self.stamps(0, 1e-3)
        known, digits, exponents = _floatrepr.grid_digits(t, 0, 1e-3)
        assert not known[0] and digits[0] == 0 and exponents[0] == 0
        assert vector_repr(t[:3], grid=(0, 1e-3)) == ["0.0", "0.001", "0.002"]

    @pytest.mark.parametrize(
        "step, share",
        [(1e-3, 0.8), (2e-4, 0.6), (1e-5, 0.4), (2.5e-7, 0.6), (1e-20, 0.5), (1e-22, 0.5)],
    )
    def test_short_steps_skip_ryu(self, step, share):
        # Most stamps are known; the rest, where k*m / 10^p rounds to
        # another double than k * t_1, go to Ryu.
        known, _, _ = _floatrepr.grid_digits(self.stamps(1, step), 1, step)
        assert known.mean() > share

    @pytest.mark.parametrize("step", [1.0 / 3.0, 0.1 + 0.2, 3e-23, 1e-23, 5e-324, 1e300])
    def test_long_or_small_steps_are_never_known(self, step):
        # repr(1/3) and repr(0.1 + 0.2) have 16 and 17 digits and 1e300 has
        # m = 10^300, so k*m >= 10^15 from k = 1; 3e-23, 1e-23 and 5e-324
        # need p > 22, past the powers of 10 that are exact doubles.
        known, _, _ = _floatrepr.grid_digits(self.stamps(1, step), 1, step)
        assert not known.any()

    @pytest.mark.parametrize(
        "k0, step", [(10**15 - 2000, 1e-3), (10**14 - 1000, 0.015), (2**53 - 2000, 1e-3)]
    )
    def test_declines_from_ten_to_the_fifteen(self, k0, step):
        # k*m crosses 10^15 (and 2^53) inside the chunk; no stamp at or past
        # it is known, and every stamp still prints as repr prints it.
        t = self.stamps(k0, step)
        k = np.arange(k0, k0 + t.size)
        known, _, _ = _floatrepr.grid_digits(t, k0, step)
        m = round(step * 1000)
        assert known[k * m < 10**15].any() or k0 * m >= 10**15
        assert not known[k * m >= 10**15].any()
        assert vector_repr(t, grid=(k0, step)) == [repr(v) for v in t.tolist()]

    @staticmethod
    def off_the_grid(kind, step, rng, n=_CHUNK_VALUES // 2 + 500):
        """A first column that is not the grid k * step, of one of five kinds."""
        t = np.arange(n) * step
        if kind == "nudged":  # a tenth of the stamps one ulp up or down
            rows = rng.choice(n, n // 10, replace=False)
            t[rows] = np.nextafter(t[rows], rng.choice([-np.inf, np.inf], rows.size))
        elif kind == "shuffled":
            t = rng.permutation(t)
        elif kind == "negated":
            t = -t
        elif kind == "geometric":  # what a long freqresp writes
            t = np.geomspace(0.005, 1.6, 10_000)
        elif kind == "mixed":  # random, with a third of the rows at k * step
            rows = rng.choice(n, n // 3, replace=False)
            t = rng.standard_normal(n)
            t[rows], t[1] = rows * step, step
        return t

    @pytest.mark.parametrize("kind", ["nudged", "shuffled", "negated", "geometric", "mixed"])
    @pytest.mark.parametrize("step", [1e-3, 2e-4, 0.0015, 2.5e-7])
    def test_columns_off_the_grid_match_repr(self, tmp_path, kind, step):
        # grid_digits takes a value for k * step only where it is k * step,
        # whatever the rest of the column holds; the writer passes the grid
        # (start, t_1) with any first column whose t_1 is positive.
        rng = np.random.default_rng([round(step * 1e7), len(kind)])
        t = self.off_the_grid(kind, step, rng)
        expected = [repr(v) for v in t.tolist()]
        assert vector_repr(t, grid=(0, step)) == expected
        assert vector_repr(t[1000:], grid=(1000, step)) == expected[1000:]
        columns = [t, rng.standard_normal(t.size)]
        write_columns("a,b", columns, tmp_path / "chunked.csv")
        reference_write_columns("a,b", columns, tmp_path / "reference.csv")
        assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_sixteen_digit_stamp_can_have_a_shorter_repr(self):
        # At k = 8999999999000009 and t_1 = 1e-3, k / 10^3 rounds to k * t_1,
        # yet repr gives 8999999999000.01: a 16-digit k*m is not the shortest.
        k0 = 8999999999000000
        t = self.stamps(k0, 1e-3, 64)
        assert repr(float(t[9])) == "8999999999000.01"
        assert vector_repr(t, grid=(k0, 1e-3)) == [repr(v) for v in t.tolist()]


STEPS = [1e-3, 2e-4, 0.0015, 1.0 / 3.0, 1e-5, 2.5e-7, 1e-20, 12345.678]


def draw_samples(rng, kind: str, n: int) -> np.ndarray:
    if kind == "normal":
        return rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0)
    if kind == "bits":
        return finite_doubles(rng, n)
    sign = rng.choice([-1.0, 1.0], n)
    return sign * 10.0 ** rng.uniform(-300.0, 300.0, n)  # wide exponents


@pytest.mark.parametrize("kind", ["normal", "bits", "wide"])
@pytest.mark.parametrize("step", STEPS)
def test_grid_tables_match_one_string_writer(tmp_path, step, kind):
    # A pair on one grid and a four-column table, both on the vector path
    # with grid stamps: the pair's chunks hold 2730 rows and the table's
    # 2048, so each ends in a short chunk.
    rng = np.random.default_rng(STEPS.index(step) * 3 + ["normal", "bits", "wide"].index(kind))
    n = _CHUNK_VALUES // 2 + 500
    first = TimeSeries(step=step, samples=draw_samples(rng, kind, n))
    second = TimeSeries(step=step, samples=draw_samples(rng, kind, n))
    write_timeseries(first, tmp_path / "a.csv", (second, tmp_path / "b.csv"))
    columns = [first.times, *(draw_samples(rng, kind, n) for _ in range(3))]
    write_columns("t,x,y,z", columns, tmp_path / "four.csv")
    for series, name in ((first, "a"), (second, "b")):
        reference_write_columns("time_s,value", [series.times, series.samples], tmp_path / "r.csv")
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()
    reference_write_columns("t,x,y,z", columns, tmp_path / "r.csv")
    assert (tmp_path / "four.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()


class TestChunkedWriter:
    EDGE_VALUES = [-0.0, 5e-324, 1e16, 1e-5, 0.1, -1.0 / 3.0, 1e300, 12.345000000000001]

    @pytest.mark.parametrize(
        "n_rows",
        [0, 1, _VECTOR_VALUES // 2 - 1, _VECTOR_VALUES // 2, _VECTOR_VALUES,
         _CHUNK_VALUES // 7 - 1, _CHUNK_VALUES // 7, _CHUNK_VALUES // 7 + 1,
         _CHUNK_VALUES // 2 - 1, _CHUNK_VALUES // 2, _CHUNK_VALUES // 2 + 1],
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

    def test_repeated_columns_match_one_string_writer(self, tmp_path):
        # Constant, -0.0, nan and inf columns take the one vector pass with
        # the time column. 0.0 == -0.0 although they print differently, and
        # nan != nan.
        n = _VECTOR_VALUES
        columns = [
            np.arange(n) * 1e-3,
            np.ones(n),
            np.full(n, -0.0),
            np.resize([0.0, -0.0], n),
            np.full(n, np.nan),
            np.resize([np.nan, -np.nan], n),
            np.full(n, -np.inf),
        ]
        write_columns("a,b,c,d,e,f,g", columns, tmp_path / "chunked.csv")
        reference_write_columns("a,b,c,d,e,f,g", columns, tmp_path / "reference.csv")
        expected = (tmp_path / "reference.csv").read_bytes()
        assert (tmp_path / "chunked.csv").read_bytes() == expected

    def test_peak_memory_is_bounded(self, tmp_path):
        # Per chunk the vector path holds a few dozen arrays of about
        # _CHUNK_VALUES values; what grows with n is the 8-byte time array.
        rng = np.random.default_rng(5)
        tau = TimeSeries(step=1e-3, samples=rng.standard_normal(40_001))
        x = TimeSeries(step=1e-3, samples=rng.standard_normal(40_001))
        tracemalloc.start()
        try:
            write_timeseries(tau, tmp_path / "tau.csv", (x, tmp_path / "x.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**20, peak

    def test_edge_values_verbatim(self, tmp_path):
        values = np.array(self.EDGE_VALUES)
        write_columns("a,b", (values, values.tolist()), tmp_path / "edge.csv")
        rows = (tmp_path / "edge.csv").read_text().splitlines()[1:]
        assert rows[:4] == ["-0.0,-0.0", "5e-324,5e-324", "1e+16,1e+16", "1e-05,1e-05"]

    def test_shared_time_column_matches_single_writes(self, tmp_path):
        n = _CHUNK_VALUES // 2 + 3
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

    def test_table_without_columns_writes_the_first_column(self, tmp_path):
        # Each file ends its own rows, so the shared first column ends the
        # rows of a table without columns of its own and not of the others.
        write_columns("t", [np.arange(_VECTOR_VALUES) * 0.5], tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text().splitlines()[:3] == ["t", "0.0", "0.5"]
        for n in (2, _VECTOR_VALUES):  # formatted by repr, then by _floatrepr
            first, x = np.arange(n) * 0.5, np.arange(n) + 2.0
            reference_write_columns("t", [first], tmp_path / "a1.csv")
            reference_write_columns("t,x", [first, x], tmp_path / "b1.csv")
            alone, beside = ("t", [], tmp_path / "a.csv"), ("t,x", [x], tmp_path / "b.csv")
            for tables in ([alone, beside], [beside, alone]):
                _write_tables(first, tables)
                assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "a1.csv").read_bytes()
                assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "b1.csv").read_bytes()

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


class TestRewriteInPlace:
    """An existing file is overwritten in place and cut at its last written byte."""

    PAIR_ROWS = 2 * (_CHUNK_VALUES // 3) + 5  # three chunks of the time, a, b rows

    def write(self, kind, directory, name):
        rng = np.random.default_rng(11)
        if kind == "repr":  # below _VECTOR_VALUES: formatted by repr
            columns = [np.arange(40) * 0.25, rng.standard_normal(40), rng.standard_normal(40)]
            write_columns("t,a,b", columns, directory / name)
            return [directory / name]
        if kind == "vector":  # three chunks of two-column rows
            n = _CHUNK_VALUES + 7
            write_columns("t,a", [np.arange(n) * 1e-3, rng.standard_normal(n)], directory / name)
            return [directory / name]
        a = TimeSeries(step=1e-3, samples=rng.standard_normal(self.PAIR_ROWS))
        b = TimeSeries(step=1e-3, samples=rng.standard_normal(self.PAIR_ROWS) * 1e-6)
        paths = [directory / f"a-{name}", directory / f"b-{name}"]
        write_timeseries(a, paths[0], (b, paths[1]))
        return paths

    @pytest.mark.parametrize("kind", ["repr", "vector", "pair"])
    @pytest.mark.parametrize("old", ["longer", "shorter"])
    def test_rewrite_matches_a_fresh_write(self, tmp_path, kind, old):
        fresh = [p.read_bytes() for p in self.write(kind, tmp_path, "fresh.csv")]
        for path, text in zip(self.write(kind, tmp_path, "old.csv"), fresh):
            path.write_bytes(b"9,9\n" * (len(text) // 2 if old == "longer" else len(text) // 8))
        rewritten = [p.read_bytes() for p in self.write(kind, tmp_path, "old.csv")]
        assert rewritten == fresh

    def test_failed_write_keeps_completed_chunks_only(self, tmp_path, monkeypatch):
        # The second chunk's formatting raises: each file holds its header and
        # the first chunk's rows, and none of the longer old file after them.
        fresh = [p.read_bytes() for p in self.write("pair", tmp_path, "fresh.csv")]
        old = [tmp_path / "a-old.csv", tmp_path / "b-old.csv"]
        for path in old:
            path.write_bytes(b"7" * 2**20)
        cells, sizes = _floatrepr.cells, []

        def cells_failing_on_the_second_chunk(*args):
            if sizes:
                raise RuntimeError("formatting failed")
            sizes.append([p.stat().st_size for p in old])  # after the open, before a row
            return cells(*args)

        monkeypatch.setattr(_floatrepr, "cells", cells_failing_on_the_second_chunk)
        with pytest.raises(RuntimeError, match="formatting failed"):
            self.write("pair", tmp_path, "old.csv")
        assert sizes == [[2**20, 2**20]]  # not truncated to zero on open
        rows = _CHUNK_VALUES // 3
        for path, text in zip(old, fresh):
            assert path.read_bytes() == b"".join(text.splitlines(keepends=True)[:1 + rows])
