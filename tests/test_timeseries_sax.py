"""Unit tests for the SAX symboliser (PAA + Gaussian breakpoints)."""

from __future__ import annotations

import sys
from statistics import NormalDist

import numpy as np
import pytest

from repro import ConfigurationError, SymbolizationError, TimeSeries
from repro.timeseries import SAXSymbolizer, gaussian_breakpoints


class TestGaussianBreakpoints:
    def test_binary_alphabet_breaks_at_zero(self):
        assert gaussian_breakpoints(2) == [pytest.approx(0.0, abs=1e-6)]

    def test_known_values_for_four_symbols(self):
        # Classic SAX table: breakpoints for a = 4 are (-0.674, 0, 0.674).
        breaks = gaussian_breakpoints(4)
        assert breaks[0] == pytest.approx(-0.6745, abs=1e-3)
        assert breaks[1] == pytest.approx(0.0, abs=1e-6)
        assert breaks[2] == pytest.approx(0.6745, abs=1e-3)

    def test_breakpoints_are_increasing(self):
        for size in (2, 3, 5, 8, 12):
            breaks = gaussian_breakpoints(size)
            assert len(breaks) == size - 1
            assert breaks == sorted(breaks)

    def test_too_small_alphabet_rejected(self):
        with pytest.raises(ConfigurationError):
            gaussian_breakpoints(1)

    def test_each_breakpoint_is_the_normal_quantile(self):
        normal = NormalDist()
        for size in range(2, 27):
            expected = [normal.inv_cdf(i / size) for i in range(1, size)]
            assert gaussian_breakpoints(size) == expected

    def test_breakpoints_do_not_depend_on_scipy(self, monkeypatch):
        """The cut points are the same whether or not SciPy is importable."""
        sizes = range(2, 27)
        before = [gaussian_breakpoints(size) for size in sizes]
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.special", None)
        assert [gaussian_breakpoints(size) for size in sizes] == before


class TestSAXSymbolizer:
    def _ramp(self, n=120, step=1.0):
        return TimeSeries.from_values("ramp", list(range(n)), step=step)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SAXSymbolizer(frame_duration=0)
        with pytest.raises(ConfigurationError):
            SAXSymbolizer(alphabet_size=1)
        with pytest.raises(ConfigurationError):
            SAXSymbolizer(alphabet_size=3, symbols=("a", "b"))
        with pytest.raises(ConfigurationError):
            SAXSymbolizer(alphabet_size=30)

    def test_requires_fit_before_use(self):
        symbolizer = SAXSymbolizer(frame_duration=10.0)
        with pytest.raises(SymbolizationError):
            symbolizer.symbol_for(1.0)
        with pytest.raises(SymbolizationError):
            symbolizer.transform(self._ramp())

    def test_default_alphabet_names(self):
        assert SAXSymbolizer(alphabet_size=3).alphabet == ("a", "b", "c")

    def test_ramp_maps_low_values_to_early_symbols(self):
        series = self._ramp()
        symbolizer = SAXSymbolizer(frame_duration=10.0, alphabet_size=4).fit(series)
        symbolic = symbolizer.transform(series)
        # Monotonically increasing series: the symbol sequence is non-decreasing
        # in alphabet order and covers both extremes.
        order = {symbol: index for index, symbol in enumerate(symbolizer.alphabet)}
        codes = [order[s] for s in symbolic.symbols]
        assert codes == sorted(codes)
        assert symbolic.symbols[0] == "a"
        assert symbolic.symbols[-1] == "d"

    def test_paa_reduces_resolution(self):
        series = self._ramp(n=100)
        symbolic = SAXSymbolizer(frame_duration=20.0, alphabet_size=3).fit_transform(series)
        assert len(symbolic) == 5
        assert symbolic.sampling_interval == pytest.approx(20.0)

    def test_constant_series_single_symbol(self):
        series = TimeSeries.from_values("flat", [5.0] * 50)
        symbolic = SAXSymbolizer(frame_duration=10.0, alphabet_size=4).fit_transform(series)
        assert len(set(symbolic.symbols)) == 1

    def test_frame_larger_than_series_raises(self):
        # A frame longer than the span still produces one frame; only an empty
        # selection fails, which needs a pathological frame placement.
        series = TimeSeries.from_values("short", [1.0, 2.0], step=1.0)
        symbolic = SAXSymbolizer(frame_duration=100.0, alphabet_size=2).fit_transform(series)
        assert len(symbolic) == 1

    def test_symbols_usable_by_miner(self):
        """SAX output plugs into the standard splitting + mining pipeline."""
        from repro import MiningConfig, HTPGM, SplitConfig, SymbolicDatabase, split_into_sequences

        rng = np.random.default_rng(0)
        n = 240
        base = np.sin(np.arange(n) / 12.0) + rng.normal(0, 0.1, n)
        follower = np.roll(base, 3)
        series_a = TimeSeries("a", np.arange(n, dtype=float) * 5.0, base)
        series_b = TimeSeries("b", np.arange(n, dtype=float) * 5.0, follower)
        symbolizer = SAXSymbolizer(frame_duration=30.0, alphabet_size=3)
        symbolic_db = SymbolicDatabase(
            [symbolizer.fit(series_a).transform(series_a), symbolizer.fit(series_b).transform(series_b)]
        )
        sequence_db = split_into_sequences(symbolic_db, SplitConfig(window_length=300.0))
        result = HTPGM(
            MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=5.0, max_pattern_size=2)
        ).mine(sequence_db)
        assert len(result) > 0
