"""CSV import/export for time series and symbolic databases.

The FTPMfTS process consumes plain time series; this module reads and writes
them in the common "wide" CSV layout — a ``timestamp`` column followed by one
column per series — which is how the public releases of the paper's datasets
(NIST, UK-DALE, Pecan Street, NYC Open Data) are typically distributed.

The reader parses the header with :mod:`csv` and the body with one
``np.loadtxt``, and keeps that table only when it has a row, exactly one
column per header cell and no non-finite cell.  Every other file — a quoted
cell, an underscore or a non-ASCII digit that ``float()`` reads but NumPy's
parser does not, a ragged row, a NaN — is read again by a ``csv.reader`` loop
that calls ``float()`` per cell: it returns what ``float()`` reads or raises
a :class:`DataError` naming ``path:line`` (and the series, for a non-finite
value).  Every series of one read shares one read-only timestamp array.  The
writers write whole columns.
"""

from __future__ import annotations

import csv
import math
import warnings
from pathlib import Path

import numpy as np

from ..exceptions import DataError
from ..timeseries.series import TimeSeries, TimeSeriesSet
from ..timeseries.symbolic import SymbolicDatabase

__all__ = [
    "write_time_series_csv",
    "read_time_series_csv",
    "write_symbolic_csv",
]


def _write_columns(path: Path, names: list[str], columns: list[list]) -> Path:
    """Write a ``timestamp`` header row, then one row per position of ``columns``."""
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", *names])
        writer.writerows(zip(*columns))
    return path


def write_time_series_csv(series_set: TimeSeriesSet, path: str | Path) -> Path:
    """Write an aligned :class:`TimeSeriesSet` to a wide CSV file.

    The series must share a common time grid (call
    :meth:`TimeSeriesSet.align` first when they do not).
    """
    if len(series_set) == 0:
        raise DataError("cannot write an empty TimeSeriesSet")
    if not series_set.is_aligned():
        raise DataError("series must be aligned before writing; call align() first")
    columns = [series_set.series[0].timestamps.tolist()]
    columns += [series.values.tolist() for series in series_set]
    return _write_columns(Path(path), series_set.names, columns)


def _header(path: Path, reader) -> list[str]:
    """The series names of the header row ``reader`` yields first."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path} is empty") from None
    if not header or header[0].lower() != "timestamp":
        raise DataError(
            f"{path}: first column must be 'timestamp', got {header[:1]!r}"
        )
    names = header[1:]
    if not names:
        raise DataError(f"{path}: no series columns found")
    return names


def _parse_body(handle, n_columns: int) -> np.ndarray | None:
    """The rest of ``handle`` as one ``(rows, n_columns)`` table, or None.

    None when NumPy's parser rejects a line, or when the table is empty, has
    another number of columns or holds a non-finite cell: the row loop of
    :func:`_read_rows` then reads the file and says what is wrong, if
    anything.
    """
    try:
        with warnings.catch_warnings():
            # A body without rows warns "input contained no data"; the row
            # loop reports that file as "no data rows" instead.
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(
                handle, delimiter=",", comments=None, dtype=np.float64, ndmin=2
            )
    except ValueError:
        return None
    if len(table) == 0 or table.shape[1] != n_columns or not np.isfinite(table).all():
        return None
    return table


def _read_rows(path: Path) -> tuple[np.ndarray, list[np.ndarray]]:
    """Timestamps and value columns by ``float()`` per cell, with located errors."""
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        names = _header(path, reader)
        timestamps: list[float] = []
        columns: list[list[float]] = [[] for _ in names]
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names) + 1:
                raise DataError(
                    f"{path}:{line_number}: expected {len(names) + 1} columns, got {len(row)}"
                )
            try:
                timestamp = float(row[0])
                parsed = [float(value) for value in row[1:]]
            except ValueError as error:
                raise DataError(f"{path}:{line_number}: {error}") from None
            # Reject non-finite cells here, with file:line context, instead
            # of letting a NaN timestamp defeat every downstream ordering
            # check (NaN compares False against everything) and surface as
            # an inscrutable failure deep in the relation kernel.
            if not math.isfinite(timestamp):
                raise DataError(
                    f"{path}:{line_number}: non-finite timestamp {row[0]!r}"
                )
            for name, value, raw in zip(names, parsed, row[1:]):
                if not math.isfinite(value):
                    raise DataError(
                        f"{path}:{line_number}: non-finite value {raw!r} "
                        f"in series {name!r}"
                    )
            timestamps.append(timestamp)
            for column, value in zip(columns, parsed):
                column.append(value)
    if not timestamps:
        raise DataError(f"{path}: no data rows")
    return np.asarray(timestamps), [np.asarray(column) for column in columns]


def read_time_series_csv(path: str | Path) -> TimeSeriesSet:
    """Read a wide CSV file (``timestamp`` column + one column per series)."""
    path = Path(path)
    with path.open(newline="") as handle:
        names = _header(path, csv.reader(handle))
        table = _parse_body(handle, len(names) + 1)
    if table is None:
        grid, columns = _read_rows(path)
    else:
        # Values stay column views of the table, so the file's numbers are
        # held once; the grid, which every later step reads, is copied out.
        grid, columns = table[:, 0].copy(), list(table[:, 1:].T)
    grid.flags.writeable = False
    return TimeSeriesSet(
        [
            TimeSeries(name=name, timestamps=grid, values=column)
            for name, column in zip(names, columns)
        ]
    )


def write_symbolic_csv(symbolic_db: SymbolicDatabase, path: str | Path) -> Path:
    """Write an aligned symbolic database to a wide CSV of symbols."""
    if len(symbolic_db) == 0:
        raise DataError("cannot write an empty SymbolicDatabase")
    symbolic_db.require_aligned()
    columns = [symbolic_db.series[0].timestamps.tolist()]
    columns += [series.symbols for series in symbolic_db]
    return _write_columns(Path(path), symbolic_db.names, columns)
