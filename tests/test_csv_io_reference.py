"""The CSV reader and writers against the row-at-a-time loops they replaced.

``read_time_series_csv`` parses the body with ``np.loadtxt`` and falls back
to a ``csv.reader`` loop for every file NumPy rejects or that holds a
non-finite cell.  The writers write whole columns.  The references below are
the per-cell loops of the earlier reader and writers, kept here verbatim so
the properties can demand the same names and bit-identical arrays, or the
same ``DataError`` text, from the reader, and the same bytes from the
writers.
"""

from __future__ import annotations

import csv
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DataError, TimeSeries, TimeSeriesSet
from repro.io import read_time_series_csv, write_symbolic_csv, write_time_series_csv
from repro.timeseries import (
    SymbolicDatabase,
    SymbolicSeries,
    ThresholdSymbolizer,
    symbolize_set,
)

RELAXED = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


# --------------------------------------------------------------------------- references
def reference_read(path: str | Path) -> TimeSeriesSet:
    """The reader as one ``float()`` and ``math.isfinite`` per cell."""
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
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
    grid = np.asarray(timestamps)
    return TimeSeriesSet(
        [
            TimeSeries(name=name, timestamps=grid.copy(), values=np.asarray(column))
            for name, column in zip(names, columns)
        ]
    )


def reference_write(series_set: TimeSeriesSet, path: Path) -> Path:
    """The time-series writer as one indexed cell at a time."""
    names = series_set.names
    timestamps = series_set.series[0].timestamps
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", *names])
        for index, timestamp in enumerate(timestamps.tolist()):
            writer.writerow(
                [timestamp, *[series_set[name].values[index] for name in names]]
            )
    return path


def reference_write_symbolic(symbolic_db: SymbolicDatabase, path: Path) -> Path:
    """The symbolic writer as one indexed symbol at a time."""
    names = symbolic_db.names
    timestamps = symbolic_db.series[0].timestamps
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", *names])
        for index, timestamp in enumerate(timestamps.tolist()):
            writer.writerow(
                [timestamp, *[symbolic_db[name].symbols[index] for name in names]]
            )
    return path


def outcome(read, path: Path):
    """Names and exact array bytes of a read, or the type and text of its error."""
    try:
        series_set = read(path)
    except Exception as error:  # noqa: BLE001 - both readers must fail alike
        return "error", type(error).__name__, str(error)
    return "ok", [
        (series.name, series.timestamps.tobytes(), series.values.tobytes())
        for series in series_set
    ]


# --------------------------------------------------------------------------- strategies
FORMATS = (repr, lambda value: "%.3g" % value, lambda value: "%e" % value)
PADDING = ("", " ", "\t", "  ", " \t")
# Cells that ``float()`` reads but NumPy's parser rejects, cells neither
# reads, and non-finite spellings, which both read and the reader refuses.
SPELLINGS = (
    "1_0", '"1.5"', '"-0.0"', "inf", "-inf", "nan", "infinity", "Infinity",
    "NaN", "#", "", "١", "1e400", "abc",
)


@st.composite
def csv_texts(draw) -> str:
    """A wide CSV file, mostly well formed, with up to three defects."""
    n_series = draw(st.integers(1, 3))
    names = [f"s{k}" for k in range(n_series)]
    n_rows = draw(st.integers(0, 8))
    gaps = draw(
        st.lists(
            st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    start = draw(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
    timestamps = (start + np.cumsum(gaps)).tolist() if n_rows else []
    values = st.floats(allow_nan=False, allow_infinity=False, width=64)
    rows = []
    for timestamp in timestamps:
        cells = [timestamp, *draw(st.lists(values, min_size=n_series, max_size=n_series))]
        rows.append(
            [
                draw(st.sampled_from(PADDING))
                + draw(st.sampled_from(FORMATS))(cell)
                + draw(st.sampled_from(PADDING))
                for cell in cells
            ]
        )
    lines = [",".join(["timestamp", *names])] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        defect = draw(st.sampled_from(("cell", "ragged", "comma", "blank", "space")))
        if defect == "blank":
            lines.insert(draw(st.integers(1, len(lines))), "")
        elif defect == "space":
            lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(PADDING[1:])))
        elif len(lines) > 1:
            line = draw(st.integers(1, len(lines) - 1))
            cells = lines[line].split(",")
            if defect == "cell":
                cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(SPELLINGS))
            elif defect == "ragged" and len(cells) > 1 and draw(st.booleans()):
                cells.pop()
            elif defect == "ragged":
                cells.append("1.0")
            else:
                cells.append("")
            lines[line] = ",".join(cells)
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


# --------------------------------------------------------------------------- reader
def _write(path: Path, text: str) -> Path:
    path.write_bytes(text.encode("utf-8"))
    return path


class TestLocatedErrors:
    """Each rejection names the file, and the line and series where there is one."""

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("timestamp,a,b\n0,1,2\nnan,1,2\n", "{path}:3: non-finite timestamp 'nan'"),
            ("timestamp,a,b\n0,1,2\n\n1,1,inf\n", "{path}:4: non-finite value 'inf' in series 'b'"),
            ("timestamp,a,b\n0,1,2\n1, -Infinity ,2\n", "{path}:3: non-finite value ' -Infinity ' in series 'a'"),
            ("timestamp,a,b\n0,1\n", "{path}:2: expected 3 columns, got 2"),
            ("timestamp,a,b\n0,1,2\n1,1,2,\n", "{path}:3: expected 3 columns, got 4"),
            ("timestamp,a\n0,1\n1,not-a-number\n", "{path}:3: could not convert string to float: 'not-a-number'"),
            ("timestamp,a\n0,#\n", "{path}:2: could not convert string to float: '#'"),
            ("", "{path} is empty"),
            ("timestamp,a\n", "{path}: no data rows"),
            ("timestamp,a\r\n\r\n\r\n", "{path}: no data rows"),
            ("time,a\n0,1\n", "{path}: first column must be 'timestamp', got ['time']"),
            ("timestamp\n0\n", "{path}: no series columns found"),
        ],
        ids=[
            "nan-timestamp", "inf-value", "padded-infinity", "ragged", "trailing-comma",
            "unparsable", "hash-cell", "empty", "header-only", "header-and-blank-lines",
            "bad-header", "no-series",
        ],
    )
    def test_message(self, tmp_path, text, message):
        path = _write(tmp_path / "series.csv", text)
        with pytest.raises(DataError) as error:
            read_time_series_csv(path)
        assert str(error.value) == message.format(path=path)

    def test_unordered_timestamps_name_the_series(self, tmp_path):
        path = _write(tmp_path / "series.csv", "timestamp,a\n1,0\n0,1\n")
        with pytest.raises(DataError, match="series 'a': timestamps must be strictly increasing"):
            read_time_series_csv(path)


class TestReaderMatchesReference:
    @RELAXED
    @given(text=csv_texts())
    def test_random_files(self, tmp_path, text):
        path = _write(tmp_path / "series.csv", text)
        assert outcome(read_time_series_csv, path) == outcome(reference_read, path)

    @pytest.mark.parametrize(
        "body",
        [
            "0,1_0,2\n1,3,4\n",
            '0,"1.5",2\n1,3,"-0.0"\n',
            "0,١,2\n1,3,4\n",
            " 0 ,\t1e-320\t, -0.0 \r\n1,1e300,-1e300\r\n",
            "\n0,1,2\n\n1,3,4\n\n",
        ],
        ids=["underscore", "quoted", "arabic-indic-digit", "padding-crlf", "blank-lines"],
    )
    def test_spellings_only_float_reads(self, tmp_path, body):
        """NumPy rejects some of these; the fallback must give ``float()``'s values."""
        path = _write(tmp_path / "series.csv", "timestamp,a,b\n" + body)
        expected = outcome(reference_read, path)
        assert expected[0] == "ok"
        assert outcome(read_time_series_csv, path) == expected

    def test_header_only_file_emits_no_warning(self, tmp_path):
        for text in ("timestamp,a\n", "timestamp,a\n\n\n"):
            path = _write(tmp_path / "header.csv", text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DataError, match="no data rows"):
                    read_time_series_csv(path)


class TestSharedGrid:
    @pytest.mark.parametrize("cell", ["1", '"1"'], ids=["parsed", "fallback"])
    def test_series_share_one_read_only_grid(self, tmp_path, cell):
        path = _write(tmp_path / "series.csv", f"timestamp,a,b\n0,{cell},2\n1,3,4\n")
        series_set = read_time_series_csv(path)
        grid = series_set["a"].timestamps
        assert series_set["b"].timestamps is grid
        assert grid.tolist() == [0.0, 1.0]
        with pytest.raises(ValueError):
            grid[0] = 5.0
        with pytest.raises(ValueError):
            grid += 1.0

    def test_symbolisation_passes_the_grid_on(self, tmp_path):
        path = _write(tmp_path / "series.csv", "timestamp,a,b\n0,1,2\n1,3,4\n2,0,0\n")
        series_set = read_time_series_csv(path)
        symbolic_db = symbolize_set(series_set, ThresholdSymbolizer(threshold=1.5))
        grid = series_set["a"].timestamps
        assert all(series.timestamps is grid for series in symbolic_db)


# --------------------------------------------------------------------------- writers
SPECIAL_VALUES = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
    1e300, -1e300, 1e16, 1e15, 3.0, -7.0, 2.0**53, 0.1, 1.7976931348623157e308,
)


@st.composite
def series_sets(draw) -> TimeSeriesSet:
    """1-4 float64 columns on one grid, special values and integers included."""
    n_rows = draw(st.integers(1, 12))
    cells = st.one_of(
        st.sampled_from(SPECIAL_VALUES),
        st.integers(-(10**6), 10**6).map(float),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
    gaps = draw(st.lists(st.sampled_from((0.5, 1.0, 1e-3, 1e6, 0.1)), min_size=n_rows, max_size=n_rows))
    start = draw(st.sampled_from((-0.0, 0.0, -1e9, 1e-300, 123.25)))
    timestamps = start + np.cumsum(gaps)
    return TimeSeriesSet(
        [
            TimeSeries(
                name=f"s{k}",
                timestamps=timestamps,
                values=np.array(draw(st.lists(cells, min_size=n_rows, max_size=n_rows))),
            )
            for k in range(draw(st.integers(1, 4)))
        ]
    )


class TestWritersMatchReference:
    @RELAXED
    @given(series_set=series_sets())
    def test_time_series_bytes(self, tmp_path, series_set):
        new = write_time_series_csv(series_set, tmp_path / "new.csv").read_bytes()
        old = reference_write(series_set, tmp_path / "old.csv").read_bytes()
        assert new == old

    @RELAXED
    @given(series_set=series_sets())
    def test_symbolic_bytes(self, tmp_path, series_set):
        symbolic_db = symbolize_set(series_set, ThresholdSymbolizer(threshold=0.0))
        new = write_symbolic_csv(symbolic_db, tmp_path / "new.csv").read_bytes()
        old = reference_write_symbolic(symbolic_db, tmp_path / "old.csv").read_bytes()
        assert new == old

    def test_written_file_reads_back_bit_identical(self, tmp_path):
        series_set = TimeSeriesSet(
            [TimeSeries("v", np.arange(len(SPECIAL_VALUES), dtype=float), np.array(SPECIAL_VALUES))]
        )
        path = write_time_series_csv(series_set, tmp_path / "special.csv")
        loaded = read_time_series_csv(path)
        assert loaded["v"].values.tobytes() == series_set["v"].values.tobytes()

    def test_symbolic_writer_names_symbols_of_several_alphabets(self, tmp_path):
        grid = np.array([0.0, 1.0, 2.0])
        symbolic_db = SymbolicDatabase(
            [
                SymbolicSeries.from_symbols("a", grid, ["On", "Off", "On"], ("Off", "On")),
                SymbolicSeries.from_symbols("b", grid, ["z", "y", "x"], ("x", "y", "z")),
            ]
        )
        path = write_symbolic_csv(symbolic_db, tmp_path / "symbols.csv")
        assert path.read_bytes() == reference_write_symbolic(
            symbolic_db, tmp_path / "old.csv"
        ).read_bytes()
        assert path.read_text().splitlines() == [
            "timestamp,a,b", "0.0,On,z", "1.0,Off,y", "2.0,On,x"
        ]
