"""Unit tests for repro.timeseries.symbolic (DSYB, intervals, distributions)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DataError, SymbolicDatabase, SymbolicSeries, SymbolizationError


def make_series(name: str, symbols: list[str], alphabet=("Off", "On"), step=1.0):
    timestamps = np.arange(len(symbols), dtype=float) * step
    return SymbolicSeries.from_symbols(name=name, timestamps=timestamps, symbols=symbols, alphabet=alphabet)


class TestSymbolicSeries:
    def test_validation_rejects_unknown_symbols(self):
        with pytest.raises(DataError):
            make_series("x", ["On", "Maybe"])

    def test_validation_rejects_length_mismatch(self):
        with pytest.raises(DataError):
            SymbolicSeries.from_symbols("x", np.array([0.0, 1.0]), ["On"], ("Off", "On"))

    def test_validation_rejects_empty(self):
        with pytest.raises(DataError):
            SymbolicSeries.from_symbols("x", np.array([]), [], ("Off", "On"))

    def test_distribution_covers_full_alphabet(self):
        series = make_series("x", ["On", "On", "Off", "On"])
        dist = series.distribution()
        assert dist == {"Off": 0.25, "On": 0.75}

    def test_distribution_zero_probability_symbol(self):
        series = make_series("x", ["On", "On"], alphabet=("Off", "On", "Standby"))
        dist = series.distribution()
        assert dist["Standby"] == 0.0
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_codes_match_alphabet_positions(self):
        series = make_series("x", ["On", "Off", "On"])
        assert series.codes.tolist() == [1, 0, 1]

    def test_to_intervals_merges_runs(self):
        # Paper Def. 3.4: consecutive identical symbols combine into one interval.
        series = make_series("K", ["On", "On", "Off", "Off", "On"], step=5.0)
        intervals = series.to_intervals()
        assert [(i.symbol, i.start, i.end) for i in intervals] == [
            ("On", 0.0, 10.0),
            ("Off", 10.0, 20.0),
            ("On", 20.0, 25.0),
        ]

    def test_to_intervals_single_run_gets_full_span(self):
        series = make_series("K", ["On", "On", "On"], step=2.0)
        intervals = series.to_intervals()
        assert len(intervals) == 1
        assert intervals[0].duration == pytest.approx(6.0)

    def test_interval_durations_sum_to_span(self):
        series = make_series("K", ["On", "Off", "Off", "On", "On", "Off"], step=1.0)
        intervals = series.to_intervals()
        assert sum(i.duration for i in intervals) == pytest.approx(6.0)

    def test_slice_time(self):
        series = make_series("x", ["On", "Off", "On", "Off"], step=1.0)
        window = series.slice_time(1.0, 3.0)
        assert window.symbols == ["Off", "On"]

    def test_slice_time_empty_raises(self):
        series = make_series("x", ["On"])
        with pytest.raises(DataError):
            series.slice_time(5.0, 6.0)


class TestCodes:
    def test_codes_use_the_narrowest_unsigned_dtype(self):
        grid = np.arange(3, dtype=float)
        for size, dtype in ((1, np.uint8), (2, np.uint8), (256, np.uint8), (257, np.uint16)):
            alphabet = tuple(f"s{k}" for k in range(size))
            series = SymbolicSeries("x", grid, np.array([0, size - 1, 0]), alphabet)
            assert series.codes.dtype == dtype
            assert series.symbols == ["s0", f"s{size - 1}", "s0"]

    def test_symbols_iteration_and_counts_derive_from_the_codes(self):
        series = SymbolicSeries("x", np.array([0.0, 5.0, 10.0]), [2, 0, 2], ("a", "b", "c"))
        assert series.codes.tolist() == [2, 0, 2]
        assert series.symbols == ["c", "a", "c"]
        assert list(series) == [(0.0, "c"), (5.0, "a"), (10.0, "c")]
        assert series.symbol_counts() == {"c": 2, "a": 1}
        assert list(series.symbol_counts()) == ["c", "a"]
        assert series.slice_time(5.0, 11.0).codes.tolist() == [0, 2]

    def test_from_symbols_keeps_the_unknown_symbol_message(self):
        with pytest.raises(DataError) as error:
            SymbolicSeries.from_symbols("x", np.arange(3.0), ["On", "Maybe", "Nah"], ("Off", "On"))
        assert str(error.value) == (
            "symbolic series 'x': symbols ['Maybe', 'Nah'] not in alphabet ('Off', 'On')"
        )

    @pytest.mark.parametrize(
        "codes",
        [np.array([0.0, 1.0]), ["On", "Off"], np.zeros((2, 1), int)],
        ids=["float", "strings", "2-d"],
    )
    def test_codes_must_be_a_1d_integer_array(self, codes):
        with pytest.raises(DataError, match="codes must be a 1-D integer array"):
            SymbolicSeries("x", np.array([0.0, 1.0]), codes, ("Off", "On"))

    def test_a_boolean_mask_is_codes_0_and_1(self):
        series = SymbolicSeries("x", np.arange(3.0), np.array([True, False, True]), ("Off", "On"))
        assert series.codes.dtype == np.uint8
        assert series.symbols == ["On", "Off", "On"]

    def test_a_symbol_listed_twice_is_one_symbol(self):
        # Codes 0 and 1 both name "lo": one run, one probability mass, as
        # the string encoding gives.
        alphabet = ("lo", "lo", "hi")
        series = SymbolicSeries("x", np.arange(4.0), np.array([0, 1, 2, 0]), alphabet)
        encoded = SymbolicSeries.from_symbols("x", np.arange(4.0), series.symbols, alphabet)
        assert series.codes.tolist() == encoded.codes.tolist() == [1, 1, 2, 1]
        assert [(i.symbol, i.start, i.end) for i in series.to_intervals()] == [
            ("lo", 0.0, 2.0), ("hi", 2.0, 3.0), ("lo", 3.0, 4.0)
        ]
        assert series.distribution() == {"lo": 0.75, "hi": 0.25}

    @pytest.mark.parametrize("code", [-1, 2, 300])
    def test_code_outside_the_alphabet_names_series_and_code(self, code):
        with pytest.raises(SymbolizationError) as error:
            SymbolicSeries("meter", np.arange(3.0), np.array([0, code, 1]), ("Off", "On"))
        assert str(error.value) == (
            f"symbolic series 'meter': code {code} is outside [0, 2) "
            "of alphabet ('Off', 'On')"
        )


class TestSymbolicDatabase:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError):
            SymbolicDatabase([make_series("a", ["On"]), make_series("a", ["Off"])])

    def test_getitem_and_select(self):
        db = SymbolicDatabase([make_series("a", ["On", "Off"]), make_series("b", ["Off", "On"])])
        assert db["a"].symbols == ["On", "Off"]
        assert db.select(["b"]).names == ["b"]
        with pytest.raises(DataError):
            db["missing"]

    def test_alignment_check_and_cache(self):
        db = SymbolicDatabase([make_series("a", ["On", "Off"]), make_series("b", ["Off", "On"])])
        assert db.is_aligned()
        assert db.is_aligned()  # second call exercises the cached path
        misaligned = SymbolicDatabase(
            [make_series("a", ["On", "Off"]), make_series("b", ["Off", "On", "On"])]
        )
        assert not misaligned.is_aligned()
        with pytest.raises(DataError):
            misaligned.require_aligned()

    def test_joint_distribution_paper_style(self):
        # Two perfectly synchronised series: p(On, On) = p(Off, Off) = 0.5.
        db = SymbolicDatabase(
            [
                make_series("x", ["On", "Off", "On", "Off"]),
                make_series("y", ["On", "Off", "On", "Off"]),
            ]
        )
        joint = db.joint_distribution("x", "y")
        assert joint[("On", "On")] == pytest.approx(0.5)
        assert joint[("Off", "Off")] == pytest.approx(0.5)
        assert joint[("On", "Off")] == 0.0
        assert sum(joint.values()) == pytest.approx(1.0)

    def test_joint_distribution_independent_series(self):
        db = SymbolicDatabase(
            [
                make_series("x", ["On", "On", "Off", "Off"]),
                make_series("y", ["On", "Off", "On", "Off"]),
            ]
        )
        joint = db.joint_distribution("x", "y")
        assert all(p == pytest.approx(0.25) for p in joint.values())

    def test_time_span(self):
        db = SymbolicDatabase([make_series("a", ["On", "Off"], step=5.0)])
        assert db.time_span == (0.0, 10.0)

    def test_time_span_empty_raises(self):
        with pytest.raises(DataError):
            SymbolicDatabase([]).time_span
