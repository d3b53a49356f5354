"""Plain-text readers and writers for FRF data, time series and fit reports.

All files are comma-separated UTF-8 text with a header row and LF line
endings. Frequency-response files store magnitude in dB and phase in
degrees wrapped to (-360, 0], matching how Bode data is published; numbers
are written with shortest round-trip formatting so read(write(x))
reproduces x exactly.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .fractional import TimeSeries
from .identify import FitResult, FrfDataset, residual_report
from .model import FoJeffreysParams

__all__ = [
    "FRF_HEADER",
    "TIMESERIES_HEADER",
    "FrfParseError",
    "read_frf",
    "read_params",
    "read_timeseries",
    "wrap_phase_deg",
    "write_columns",
    "write_frf",
    "write_frf_rows",
    "write_fit_report",
    "write_timeseries",
]

FRF_HEADER = "frequency_hz,magnitude_db,phase_deg"
TIMESERIES_HEADER = "time_s,value"
_PARAM_FIELDS = ("mu", "lambda1", "lambda2", "alpha", "beta", "gamma")


class FrfParseError(ValueError):
    """Malformed line in a tabular data file."""

    def __init__(self, path, line_number: int, message: str):
        self.line_number = int(line_number)
        super().__init__(f"{path}:{line_number}: {message}")


def _fmt(value: float) -> str:
    # repr of a Python float is the shortest string that round-trips exactly
    # and is locale-independent.
    return repr(float(value))


def wrap_phase_deg(phase_deg):
    """Wrap phase in degrees into the interval (-360, 0]."""
    phase = np.asarray(phase_deg, dtype=float)
    wrapped = phase - 360.0 * np.ceil(phase / 360.0)
    return float(wrapped) if wrapped.ndim == 0 else wrapped


def write_columns(header: str, columns, path) -> None:
    """Write equal-length numeric columns as rows below the ``header`` text."""
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_frf_rows(frequencies_hz, magnitude_db, phase_deg, path) -> None:
    """Write raw FRF rows without dataset-level validation.

    Used for model sweeps of any length; :func:`write_frf` layers the
    dataset invariants on top.
    """
    write_columns(FRF_HEADER, (frequencies_hz, magnitude_db, phase_deg), path)


def write_frf(dataset: FrfDataset, path) -> None:
    """Write an FRF dataset as dB/degree rows."""
    write_frf_rows(
        dataset.frequencies_hz,
        dataset.magnitude_db,
        wrap_phase_deg(np.degrees(np.angle(dataset.gains))),
        path,
    )


def read_frf(path) -> FrfDataset:
    """Read an FRF file back into a dataset.

    Converts each (dB, deg) row to a complex gain
    ``10^(dB/20) * (cos(theta) + j*sin(theta))``. Raises
    :class:`FrfParseError` with the offending line number for malformed
    rows and ``ValueError`` for violated dataset invariants (fewer than four
    points, non-increasing frequencies).
    """
    rows = _read_table(path, FRF_HEADER, n_fields=3)
    freqs = np.array([r[0] for r in rows])
    mags = 10.0 ** (np.array([r[1] for r in rows]) / 20.0)
    phases = np.radians([r[2] for r in rows])
    gains = mags * (np.cos(phases) + 1j * np.sin(phases))
    return FrfDataset(frequencies_hz=freqs, gains=gains)


def write_timeseries(series: TimeSeries, path) -> None:
    """Write a sampled signal as time/value rows."""
    write_columns(TIMESERIES_HEADER, (series.times, series.samples), path)


def read_timeseries(path) -> TimeSeries:
    """Read a time-series file, checking the grid is uniform from t = 0.

    Spacing deviations beyond 1e-9 of the step are rejected.
    """
    rows = _read_table(path, TIMESERIES_HEADER, n_fields=2)
    if len(rows) < 2:
        raise ValueError(f"{path}: a time series needs at least 2 samples")
    times = np.array([r[0] for r in rows])
    values = np.array([r[1] for r in rows])
    step = times[1] - times[0]
    if step <= 0.0:
        raise ValueError(f"{path}: time column must be increasing")
    tolerance = 1.0e-9 * step
    if abs(times[0]) > tolerance:
        raise ValueError(f"{path}: time series must start at t = 0")
    expected = times[0] + step * np.arange(len(times))
    if np.max(np.abs(times - expected)) > tolerance:
        raise ValueError(f"{path}: non-uniform sample spacing")
    return TimeSeries(step=float(step), samples=values)


def write_fit_report(result: FitResult, data: FrfDataset, path) -> None:
    """Write identified parameters, diagnostics and the residual table.

    The parameter block uses ``name,value`` rows, so the report doubles as
    a parameter file for :func:`read_params`.
    """
    report = residual_report(result, data)
    lines = [f"{name},{_fmt(getattr(result.params, name))}" for name in _PARAM_FIELDS]
    lines += [
        f"objective,{_fmt(result.objective)}",
        f"converged,{str(result.converged).lower()}",
        f"iterations,{result.iterations}",
        "frequency_hz,measured_db,measured_deg,model_db,model_deg,"
        "residual_db,residual_deg",
    ]
    columns = (
        report.frequency_hz, report.measured_db, report.measured_deg,
        report.model_db, report.model_deg, report.residual_db, report.residual_deg,
    )
    write_columns("\n".join(lines), columns, path)


def read_params(path) -> FoJeffreysParams:
    """Extract model parameters from a parameter file or fit report.

    Scans ``name,value`` rows for the six parameter names and ignores
    everything else, so fit reports feed directly back into simulation and
    frequency-response commands.
    """
    found: dict[str, float] = {}
    text = Path(path).read_text(encoding="utf-8")
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != 2 or fields[0] not in _PARAM_FIELDS:
            continue
        try:
            found[fields[0]] = float(fields[1])
        except ValueError as exc:
            raise FrfParseError(
                path, line_number, f"bad value for {fields[0]!r}: {fields[1]!r}"
            ) from exc
    missing = [name for name in _PARAM_FIELDS if name not in found]
    if missing:
        raise ValueError(f"{path}: missing parameter fields {missing}")
    return FoJeffreysParams(**found)


def _read_table(path, header: str, n_fields: int) -> list[tuple[float, ...]]:
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise FrfParseError(path, 1, f"expected header {header!r}")
    rows = []
    for line_number, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != n_fields:
            raise FrfParseError(
                path, line_number, f"expected {n_fields} fields, got {len(fields)}"
            )
        try:
            rows.append(tuple(float(field) for field in fields))
        except ValueError as exc:
            raise FrfParseError(path, line_number, f"non-numeric field in {line!r}") from exc
        if not all(math.isfinite(v) for v in rows[-1]):
            raise FrfParseError(path, line_number, f"non-finite value in {line!r}")
    return rows
