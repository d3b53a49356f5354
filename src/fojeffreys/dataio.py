"""Plain-text readers and writers for FRF data, time series and fit reports.

All files are comma-separated UTF-8 text with a header row and LF line
endings. Frequency-response files store magnitude in dB and phase in
degrees wrapped to (-360, 0], matching how Bode data is published; numbers
are written with shortest round-trip formatting so read(write(x))
reproduces x exactly. Tables are written in chunks of rows, with the same
bytes as one whole-file string; files that share a first column, in one pass.
An existing file is overwritten in place and cut at its last written byte on
close, so a rewrite does not wait on the filesystem emptying it first.

Each value is written as the bytes of ``repr(float(v))``. A table of
``_VECTOR_VALUES`` values or more is formatted by ``_floatrepr``, a port of
Ryu's shortest-digit search (U. Adams, PLDI 2018) to numpy ``uint64`` arrays
with CPython's layout: one pass per chunk of ``_CHUNK_VALUES`` values, row by
row into 32-byte cells of text with NUL holes. Each file takes its columns,
ORs its own commas and row-ending newline into their last bytes, and strips
the NULs in one pass. A first-column value skips the search wherever it
equals k*t_1, k its row, t_1 = m*10^-p the column's second value: it then
prints as k*m*10^-p. Most stamps of a time grid (as
``TimeSeries.times`` makes it) do. A smaller table goes through ``repr``
itself, so that a fit report (7 columns, up to 285 rows) never imports
``_floatrepr``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import stat
from pathlib import Path

import numpy as np

from .fractional import TimeSeries
from .identify import FitResult, FrfDataset
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
    "write_fit_report",
    "write_timeseries",
]

FRF_HEADER = "frequency_hz,magnitude_db,phase_deg"
TIMESERIES_HEADER = "time_s,value"
_CHUNK_VALUES = 8192  # values formatted per pass; bounds the writers' peak memory
_VECTOR_VALUES = 2000  # below it, repr: FRF-sized fit reports never import _floatrepr


class FrfParseError(ValueError):
    """Malformed line in a tabular data file."""

    def __init__(self, path, line_number: int, message: str):
        self.line_number = int(line_number)
        super().__init__(f"{path}:{line_number}: {message}")


def wrap_phase_deg(phase_deg):
    """Wrap phase in degrees into the interval (-360, 0]."""
    phase = np.asarray(phase_deg, dtype=float)
    wrapped = phase - 360.0 * np.ceil(phase / 360.0)
    # Below ~2.8e-14 degrees x - 360 rounds to -360, and for subnormal x the
    # quotient x/360 underflows to 0 and leaves x > 0; 0 is nearest to both.
    wrapped = np.where((wrapped <= -360.0) | (wrapped > 0.0), 0.0, wrapped)
    return float(wrapped) if wrapped.ndim == 0 else wrapped


def _join_text(columns) -> bytes:
    """CSV rows from equal-length lists of strings."""
    return ("\n".join(map(",".join, zip(*columns))) + "\n").encode()


def _write_tables(first_column, tables) -> None:
    """Write (header, columns, path) tables whose rows start with ``first_column``.

    Rows go out ``_CHUNK_VALUES`` values at a time, each chunk formatted in
    one pass, the shared column once for all files. Values are written as the
    ``repr`` of a Python float: the shortest string that round-trips exactly,
    whatever the locale. A table of ``_VECTOR_VALUES`` values or more is
    formatted by ``_floatrepr``; a positive finite t_1 = first[1] is passed
    to it as a grid step, and ``grid_digits`` decides stamp by stamp which
    first-column values are k * t_1. A path named twice gets the last table.
    Each file ends its own rows: its cells take a comma, and its last one a
    newline, so a table without columns of its own writes the first column.

    Files are opened without truncation, all of them before any is written.
    A regular file that held bytes is cut at its last written byte when the
    writer closes, on success or after a write raises, so it never keeps the
    old file's tail; a device or FIFO (``/dev/null``, a pipe) is written as
    it is. If one path cannot be opened, the others keep their bytes; one of
    them that did not exist has been created empty (``O_CREAT``).
    """
    first = np.asarray(first_column, dtype=float)
    by_file = {
        os.path.realpath(path): (header, [np.asarray(c, dtype=float) for c in columns], path)
        for header, columns, path in tables
    }
    if any(len(c) != len(first) for _, columns, _ in by_file.values() for c in columns):
        raise ValueError("columns differ in length")
    columns = [first] + [c for _, table, _ in by_file.values() for c in table]
    step = float(first[1]) if len(first) > 1 and 0.0 < first[1] < math.inf else None
    vector = len(first) * len(columns) >= _VECTOR_VALUES
    if vector:
        from . import _floatrepr  # loaded by the first long table only
    rows = max(_CHUNK_VALUES // len(columns), 1)
    with contextlib.ExitStack() as stack:
        opened = [
            stack.enter_context(open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb"))
            for _, _, path in by_file.values()
        ]  # all opened before any header or cut: a failed open leaves every file's bytes
        files, taken = [], 1
        for file, (header, table, _) in zip(opened, by_file.values()):
            old = os.fstat(file.fileno())  # overwritten in place, not emptied on open
            if old.st_size and stat.S_ISREG(old.st_mode):  # bytes to cut; not a device or FIFO
                stack.callback(file.truncate)  # at the last byte written, on success or error
            file.write(header.encode() + b"\n")
            indices = [0, *range(taken, taken + len(table))]
            ends = np.array([ord(",")] * len(table) + [ord("\n")], np.uint64) << np.uint64(56)
            files.append((file, indices, ends))  # ends: each cell's last byte in this file
            taken += len(table)
        for start in range(0, len(first), rows):
            chunk = [c[start:start + rows] for c in columns]
            if vector:
                grid = None if step is None else (start, step)
                cells = _floatrepr.cells(np.stack(chunk, axis=1), grid)
                for file, indices, ends in files:
                    own = np.take(cells, indices, axis=1)
                    own[:, :, 3] |= ends
                    file.write(own.tobytes().translate(None, b"\0"))
            else:
                text = [list(map(repr, c.tolist())) for c in chunk]
                for file, indices, _ in files:
                    file.write(_join_text([text[j] for j in indices]))


def write_columns(header: str, columns, path) -> None:
    """Write equal-length numeric columns as rows below the ``header`` text."""
    _write_tables(columns[0], [(header, columns[1:], path)])


def write_frf(frequencies_hz, gains, path) -> None:
    """Write complex gains as dB/degree rows, the phase wrapped to (-360, 0].

    Raises ``ValueError``, naming the frequency, before the file is opened
    if a gain's dB or phase is not finite (a gain of 0, inf or nan).
    """
    freqs = np.asarray(frequencies_hz, dtype=float)
    with np.errstate(all="ignore"):  # refused below
        db, phase = 20.0 * np.log10(np.abs(gains)), np.degrees(np.angle(gains))
        bad = ~np.isfinite(db + phase)
    if bad.any():
        raise ValueError(f"gain at {freqs[bad][0]:g} Hz is not finite in dB and degrees")
    write_columns(FRF_HEADER, (freqs, db, wrap_phase_deg(phase)), path)


def read_frf(path) -> FrfDataset:
    """Read an FRF file back into a dataset.

    Converts each (dB, deg) row to a complex gain
    ``10^(dB/20) * (cos(theta) + j*sin(theta))``. Raises
    :class:`FrfParseError` with the offending line number for malformed
    rows and ``ValueError`` for violated dataset invariants (fewer than four
    points, non-increasing frequencies).
    """
    freqs, db, deg = _read_table(path, FRF_HEADER, n_fields=3)
    phases = np.radians(deg)
    with np.errstate(over="ignore", invalid="ignore"):  # FrfDataset refuses a non-finite gain
        gains = 10.0 ** (db / 20.0) * (np.cos(phases) + 1j * np.sin(phases))
    return FrfDataset(frequencies_hz=freqs, gains=gains)


def write_timeseries(series: TimeSeries, path, *more) -> None:
    """Write a sampled signal as time/value rows, plus (series, path) pairs on its grid."""
    if len(series) < 2:  # read_timeseries needs two to fix the step
        raise ValueError("a time series needs at least 2 samples to be written")
    if any(other.step != series.step for other, _ in more):
        raise ValueError("series written together must share the time step")
    tables = [(TIMESERIES_HEADER, [s.samples], p) for s, p in [(series, path), *more]]
    _write_tables(series.times, tables)


def read_timeseries(path) -> TimeSeries:
    """Read a time-series file, checking the grid is uniform from t = 0.

    Spacing deviations beyond 1e-9 of the step are rejected.
    """
    times, values = _read_table(path, TIMESERIES_HEADER, n_fields=2)
    if times.size < 2:
        raise ValueError(f"{path}: a time series needs at least 2 samples")
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


def write_fit_report(result: FitResult, path) -> None:
    """Write identified parameters, diagnostics and ``result.report``'s table.

    Evaluates no model: the table is the one the fit built. The parameter
    block uses ``name,value`` rows, so the report doubles as a parameter
    file for :func:`read_params`.
    """
    report = result.report
    names = [field.name for field in dataclasses.fields(report)]
    params = dataclasses.asdict(result.params)
    lines = [f"{name},{float(value)!r}" for name, value in params.items()]
    lines += [
        f"objective,{float(result.objective)!r}",
        f"converged,{str(result.converged).lower()}",
        f"iterations,{result.iterations}",
        ",".join(names),
    ]
    write_columns("\n".join(lines), [getattr(report, name) for name in names], path)


def read_params(path) -> FoJeffreysParams:
    """Extract model parameters from a parameter file or fit report.

    Scans ``name,value`` rows for the six parameter names and ignores
    everything else, so fit reports feed directly back into simulation and
    frequency-response commands.
    """
    names = [f.name for f in dataclasses.fields(FoJeffreysParams)]
    found: dict[str, float] = {}
    text = Path(path).read_text(encoding="utf-8-sig")
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != 2 or fields[0] not in names:
            continue
        try:
            found[fields[0]] = float(fields[1])
        except ValueError as exc:
            raise FrfParseError(
                path, line_number, f"bad value for {fields[0]!r}: {fields[1]!r}"
            ) from exc
    missing = [name for name in names if name not in found]
    if missing:
        raise ValueError(f"{path}: missing parameter fields {missing}")
    return FoJeffreysParams(**found)


def _read_table(path, header: str, n_fields: int) -> np.ndarray:
    """The non-blank lines below ``header`` as an (n_fields, rows) array.

    The table is converted at once; only if that fails is it scanned line by
    line, to name the first malformed line.
    """
    lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    if not lines or lines[0].strip() != header:
        raise FrfParseError(path, 1, f"expected header {header!r}")
    body = [line for line in map(str.strip, lines[1:]) if line]
    table = None
    if all(line.count(",") == n_fields - 1 for line in body):
        try:
            table = np.array(list(map(float, ",".join(body).split(",") if body else [])))
        except ValueError:  # a non-numeric field
            pass
    if table is not None and np.isfinite(table).all():
        return table.reshape(len(body), n_fields).T.copy()
    for line_number, line in enumerate(map(str.strip, lines[1:]), start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != n_fields:
            message = f"expected {n_fields} fields, got {len(fields)}"
            raise FrfParseError(path, line_number, message)
        try:
            values = list(map(float, fields))
        except ValueError as exc:
            raise FrfParseError(path, line_number, f"non-numeric field in {line!r}") from exc
        if not all(map(math.isfinite, values)):
            raise FrfParseError(path, line_number, f"non-finite value in {line!r}")
    raise AssertionError("the line-by-line scan found no malformed line")
