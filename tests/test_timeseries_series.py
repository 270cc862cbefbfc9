"""Unit tests for repro.timeseries.series (TimeSeries, TimeSeriesSet)."""

from __future__ import annotations

import pytest

from repro import DataError, TimeSeries, TimeSeriesSet


class TestTimeSeries:
    def test_from_values_builds_regular_grid(self):
        series = TimeSeries.from_values("x", [1.0, 2.0, 3.0], start=10.0, step=5.0)
        assert series.timestamps.tolist() == [10.0, 15.0, 20.0]
        assert series.values.tolist() == [1.0, 2.0, 3.0]
        assert len(series) == 3

    def test_start_end_duration(self):
        series = TimeSeries.from_values("x", [0, 1, 2, 3], start=0.0, step=2.0)
        assert series.start_time == 0.0
        assert series.end_time == 6.0
        assert series.duration == 6.0

    def test_sampling_interval_is_median_gap(self):
        series = TimeSeries("x", [0.0, 1.0, 2.0, 10.0], [0, 0, 0, 0])
        assert series.sampling_interval == 1.0

    def test_sampling_interval_singleton_is_zero(self):
        series = TimeSeries("x", [0.0], [1.0])
        assert series.sampling_interval == 0.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError):
            TimeSeries("x", [0.0, 1.0], [1.0])

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            TimeSeries("x", [], [])

    def test_rejects_non_increasing_timestamps(self):
        with pytest.raises(DataError):
            TimeSeries("x", [0.0, 0.0, 1.0], [1, 2, 3])
        with pytest.raises(DataError):
            TimeSeries("x", [2.0, 1.0], [1, 2])

    def test_slice_time_half_open(self):
        series = TimeSeries.from_values("x", list(range(10)), step=1.0)
        window = series.slice_time(2.0, 5.0)
        assert window.timestamps.tolist() == [2.0, 3.0, 4.0]
        assert window.values.tolist() == [2.0, 3.0, 4.0]

    def test_slice_time_empty_window_raises(self):
        series = TimeSeries.from_values("x", [1.0, 2.0], step=1.0)
        with pytest.raises(DataError):
            series.slice_time(10.0, 20.0)

    def test_resample_previous_value_hold(self):
        series = TimeSeries("x", [0.0, 10.0, 20.0], [1.0, 2.0, 3.0])
        resampled = series.resample(5.0)
        assert resampled.timestamps.tolist() == [0.0, 5.0, 10.0, 15.0, 20.0]
        assert resampled.values.tolist() == [1.0, 1.0, 2.0, 2.0, 3.0]

    def test_resample_rejects_nonpositive_step(self):
        series = TimeSeries.from_values("x", [1.0, 2.0])
        with pytest.raises(DataError):
            series.resample(0.0)

    def test_statistics_and_percentile(self):
        series = TimeSeries.from_values("x", [1.0, 2.0, 3.0, 4.0])
        stats = series.statistics()
        assert stats["min"] == 1.0
        assert stats["max"] == 4.0
        assert stats["mean"] == pytest.approx(2.5)
        assert series.percentile(50) == pytest.approx(2.5)

    def test_percentile_out_of_range(self):
        series = TimeSeries.from_values("x", [1.0, 2.0])
        with pytest.raises(DataError):
            series.percentile(101)

    def test_iteration_yields_pairs(self):
        series = TimeSeries.from_values("x", [5.0, 6.0], start=1.0, step=1.0)
        assert list(series) == [(1.0, 5.0), (2.0, 6.0)]


class TestEquality:
    """``==`` compares the name and the arrays element-wise; before, the
    dataclass ``__eq__`` compared the arrays inside a tuple and raised
    "truth value of an array is ambiguous" for two series of one name."""

    def test_equal_series(self):
        a = TimeSeries.from_values("a", [1.0, 2.0, 3.0])
        b = TimeSeries.from_values("a", [1.0, 2.0, 3.0])
        assert a == b and not a != b
        assert b in [TimeSeries.from_values("z", [1.0, 2.0, 3.0]), a]
        assert [TimeSeries.from_values("z", [0.0]), a].index(b) == 1

    @pytest.mark.parametrize(
        "other",
        [
            TimeSeries.from_values("b", [1.0, 2.0, 3.0]),
            TimeSeries.from_values("a", [1.0, 2.0, 4.0]),
            TimeSeries.from_values("a", [1.0, 2.0, 3.0], start=1.0),
            TimeSeries.from_values("a", [1.0, 2.0]),
        ],
        ids=["name", "values", "timestamps", "length"],
    )
    def test_unequal_series(self, other):
        a = TimeSeries.from_values("a", [1.0, 2.0, 3.0])
        assert a != other and not a == other
        assert other not in [a]
        with pytest.raises(ValueError):
            [a].index(other)

    def test_other_types_and_hashing(self):
        a = TimeSeries.from_values("a", [1.0, 2.0, 3.0])
        assert a != "a" and a != (a.name, a.timestamps, a.values)
        with pytest.raises(TypeError):
            hash(a)


class TestTimeSeriesSet:
    def _make_set(self) -> TimeSeriesSet:
        return TimeSeriesSet(
            [
                TimeSeries.from_values("a", [1.0, 2.0, 3.0]),
                TimeSeries.from_values("b", [4.0, 5.0, 6.0]),
            ]
        )

    def test_len_names_contains_getitem(self):
        series_set = self._make_set()
        assert len(series_set) == 2
        assert series_set.names == ["a", "b"]
        assert "a" in series_set
        assert "zz" not in series_set
        assert series_set["b"].values.tolist() == [4.0, 5.0, 6.0]

    def test_getitem_unknown_raises(self):
        with pytest.raises(DataError):
            self._make_set()["missing"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError):
            TimeSeriesSet(
                [TimeSeries.from_values("a", [1.0]), TimeSeries.from_values("a", [2.0])]
            )

    def test_add_and_duplicate_add(self):
        series_set = self._make_set()
        series_set.add(TimeSeries.from_values("c", [1.0]))
        assert "c" in series_set
        with pytest.raises(DataError):
            series_set.add(TimeSeries.from_values("c", [1.0]))

    def test_select_preserves_requested_order(self):
        series_set = self._make_set()
        selected = series_set.select(["b", "a"])
        assert selected.names == ["b", "a"]

    def test_time_span_and_alignment(self):
        series_set = self._make_set()
        assert series_set.time_span == (0.0, 2.0)
        assert series_set.is_aligned()

    def test_align_puts_series_on_common_grid(self):
        series_set = TimeSeriesSet(
            [
                TimeSeries("a", [0.0, 2.0, 4.0], [1.0, 2.0, 3.0]),
                TimeSeries("b", [0.0, 1.0, 2.0, 3.0, 4.0], [1, 2, 3, 4, 5]),
            ]
        )
        assert not series_set.is_aligned()
        aligned = series_set.align()
        assert aligned.is_aligned()
        assert len(aligned["a"]) == len(aligned["b"])
        # Previous-value hold: a's value at t=1 equals its value at t=0.
        assert aligned["a"].values[1] == 1.0

    def test_align_empty_raises(self):
        with pytest.raises(DataError):
            TimeSeriesSet([]).align()

    def test_time_span_empty_raises(self):
        with pytest.raises(DataError):
            TimeSeriesSet([]).time_span
