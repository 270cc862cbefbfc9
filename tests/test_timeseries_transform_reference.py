"""The vectorized transform layer against literal scalar references.

Symbolisation maps whole arrays (``Symbolizer.codes_for``), symbol runs are
found with ``np.flatnonzero`` and each window of the split binary-searches the
intervals that can meet it.  The references below are the per-value,
per-sample and per-window loops those replaced, kept here verbatim so the
properties can demand byte-identical output: the same symbols, the same
interval endpoints and the same ``DSEQ`` instance tuples, sign of zero
included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DataError, SymbolizationError, TimeSeries
from repro.timeseries import (
    EventInstance,
    MappingSymbolizer,
    QuantileSymbolizer,
    SAXSymbolizer,
    SplitConfig,
    SymbolicDatabase,
    SymbolicSeries,
    SymbolInterval,
    Symbolizer,
    ThresholdSymbolizer,
    UniformBinSymbolizer,
    split_into_sequences,
)

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ALPHABET = ("Off", "On", "Idle")


# --------------------------------------------------------------------------- references
def reference_symbol_for(symbolizer, value: float) -> str:
    """One value through the scalar mapping each symboliser used to hold."""
    if isinstance(symbolizer, ThresholdSymbolizer):
        return symbolizer.on_symbol if value >= symbolizer.threshold else symbolizer.off_symbol
    if isinstance(symbolizer, QuantileSymbolizer):
        idx = int(np.searchsorted(symbolizer._cuts, value, side="right"))
        return symbolizer.labels[idx]
    if isinstance(symbolizer, UniformBinSymbolizer):
        if not symbolizer._edges:
            return symbolizer.labels[0]
        idx = int(np.searchsorted(symbolizer._edges, value, side="right"))
        return symbolizer.labels[idx]
    if isinstance(symbolizer, MappingSymbolizer):
        for symbol, (lo, hi) in symbolizer.intervals.items():
            if lo <= value < hi:
                return symbol
        raise SymbolizationError(f"value {value} falls outside every mapped interval")
    if isinstance(symbolizer, SAXSymbolizer):
        z = (value - symbolizer._mean) / symbolizer._std
        index = int(np.searchsorted(symbolizer._breakpoints, z, side="right"))
        return symbolizer.symbols[index]
    raise TypeError(type(symbolizer))


def reference_symbols(symbolizer, series: TimeSeries) -> list[str]:
    """``transform`` as ``symbol_for`` per value."""
    return [reference_symbol_for(symbolizer, v) for v in series.values.tolist()]


def reference_sax(symbolizer: SAXSymbolizer, series: TimeSeries):
    """SAX with one full-series mask per PAA frame."""
    start, end = series.start_time, series.end_time
    frame_starts = np.arange(start, end + 1e-9, symbolizer.frame_duration)
    symbols = []
    kept_starts = []
    for frame_start in frame_starts:
        frame_end = frame_start + symbolizer.frame_duration
        mask = (series.timestamps >= frame_start) & (series.timestamps < frame_end)
        if not np.any(mask):
            continue
        frame_mean = float(np.mean(series.values[mask]))
        symbols.append(reference_symbol_for(symbolizer, frame_mean))
        kept_starts.append(float(frame_start))
    return symbols, np.asarray(kept_starts)


def reference_intervals(series: SymbolicSeries) -> list[SymbolInterval]:
    """Symbol runs found by walking the samples one by one."""
    step = series.sampling_interval or 1.0
    intervals: list[SymbolInterval] = []
    run_symbol = series.symbols[0]
    run_start = float(series.timestamps[0])
    for ts, symbol in zip(series.timestamps[1:].tolist(), series.symbols[1:]):
        if symbol != run_symbol:
            intervals.append(SymbolInterval(run_symbol, run_start, ts))
            run_symbol = symbol
            run_start = ts
    intervals.append(
        SymbolInterval(run_symbol, run_start, float(series.timestamps[-1]) + step)
    )
    return intervals


def reference_split(symbolic_db: SymbolicDatabase, config: SplitConfig):
    """Every window scans every interval of every series.

    Returns ``(sequence_id, instances)`` pairs, the instances deduplicated and
    sorted by :class:`EventInstance`'s own dataclass order.
    """
    start, end = symbolic_db.time_span
    if end - start < config.window_length:
        window_starts = [start]
    else:
        window_starts = []
        cursor = start
        while cursor < end:
            window_starts.append(cursor)
            cursor += config.stride
    intervals_by_series = {
        series.name: reference_intervals(series) for series in symbolic_db
    }
    sequences = []
    for seq_id, window_start in enumerate(window_starts):
        window_end = window_start + config.window_length
        instances = []
        for name, intervals in intervals_by_series.items():
            for interval in intervals:
                if interval.symbol in config.drop_symbols:
                    continue
                clipped_start = max(interval.start, window_start)
                clipped_end = min(interval.end, window_end)
                if clipped_end > clipped_start:
                    instances.append(
                        EventInstance(clipped_start, clipped_end, name, interval.symbol)
                    )
        if instances:
            sequences.append((seq_id, sorted(set(instances))))
    return sequences


def exact_sequences(sequences) -> list:
    """Instance tuples with floats as hex strings, so -0.0 differs from 0.0."""
    return [
        (seq_id, [(i.start.hex(), i.end.hex(), i.series, i.symbol) for i in instances])
        for seq_id, instances in sequences
    ]


def exact_intervals(intervals) -> list:
    return [(i.symbol, i.start.hex(), i.end.hex()) for i in intervals]


# --------------------------------------------------------------------------- strategies
@st.composite
def symbolic_series(draw, name: str, step: float | None = None, origin: float | None = None):
    """Runs of symbols on a strictly increasing grid, 1 to 25 samples.

    With ``step`` and ``origin`` the grid is regular and starts on a multiple
    of ``step``; otherwise start and gaps are irregular.
    """
    n = draw(st.integers(1, 25))
    symbols: list[str] = []
    while len(symbols) < n:
        symbols += [draw(st.sampled_from(ALPHABET))] * draw(st.integers(1, 6))
    symbols = symbols[:n]
    if step is None:
        start = draw(st.floats(-50.0, 50.0, allow_nan=False))
        gaps = draw(st.lists(st.sampled_from((0.5, 1.0, 2.5, 7.0, 10.0)), min_size=n - 1, max_size=n - 1))
        timestamps = start + np.concatenate([[0.0], np.cumsum(gaps)])
    else:
        timestamps = origin + step * np.arange(n, dtype=float)
    return SymbolicSeries(name, timestamps, symbols, ALPHABET)


@st.composite
def unaligned_databases(draw):
    """1-4 series with their own start, end and sampling, 1-sample series included."""
    n_series = draw(st.integers(1, 4))
    return SymbolicDatabase([draw(symbolic_series(f"S{k}")) for k in range(n_series)])


@st.composite
def split_configs(draw, span: float):
    """Windows shorter than the span with overlap 0 <= tov < window, or one window."""
    if draw(st.booleans()):
        window_length = draw(st.floats(5.0, 80.0, allow_nan=False))
    else:
        window_length = span + draw(st.floats(0.0, 50.0, allow_nan=False))
    overlap = window_length * draw(st.sampled_from((0.0, 0.1, 0.25, 0.5, 0.9)))
    drop = draw(st.frozensets(st.sampled_from(ALPHABET), max_size=2))
    return SplitConfig(window_length=window_length, overlap=overlap, drop_symbols=drop)


# --------------------------------------------------------------------------- run-length intervals
class TestIntervalsMatchReference:
    @RELAXED
    @given(symbolic_series("K"))
    def test_irregular_series(self, series):
        assert exact_intervals(series.to_intervals()) == exact_intervals(
            reference_intervals(series)
        )

    def test_one_sample_series(self):
        series = SymbolicSeries("K", np.array([3.0]), ["On"], ALPHABET)
        assert exact_intervals(series.to_intervals()) == exact_intervals(
            reference_intervals(series)
        )
        assert series.to_intervals() == [SymbolInterval("On", 3.0, 4.0)]


# --------------------------------------------------------------------------- window split
class TestSplitMatchesReference:
    def _check(self, symbolic_db: SymbolicDatabase, config: SplitConfig) -> None:
        expected = reference_split(symbolic_db, config)
        if not expected:
            with pytest.raises(DataError):
                split_into_sequences(symbolic_db, config)
            return
        actual = split_into_sequences(symbolic_db, config)
        assert exact_sequences(
            (q.sequence_id, q.instances) for q in actual
        ) == exact_sequences(expected)

    @RELAXED
    @given(st.data())
    def test_unaligned_series(self, data):
        symbolic_db = data.draw(unaligned_databases())
        start, end = symbolic_db.time_span
        self._check(symbolic_db, data.draw(split_configs(end - start)))

    @RELAXED
    @given(
        st.data(),
        st.sampled_from((1.0, 2.5, 10.0)),
        st.integers(1, 6),
        st.integers(0, 5),
    )
    def test_windows_ending_on_run_boundaries(self, data, step, samples_per_window, overlap_samples):
        """Window edges fall exactly on sample timestamps, so on run boundaries."""
        overlap_samples = min(overlap_samples, samples_per_window - 1)
        series = [
            data.draw(symbolic_series(f"S{k}", step=step, origin=step * data.draw(st.integers(0, 4))))
            for k in range(data.draw(st.integers(1, 3)))
        ]
        config = SplitConfig(
            window_length=step * samples_per_window,
            overlap=step * overlap_samples,
            drop_symbols=data.draw(st.frozensets(st.sampled_from(ALPHABET), max_size=1)),
        )
        self._check(SymbolicDatabase(series), config)

    @RELAXED
    @given(unaligned_databases())
    def test_single_window(self, symbolic_db):
        start, end = symbolic_db.time_span
        self._check(symbolic_db, SplitConfig(window_length=end - start + 1.0))

    def test_window_starts_accumulate_the_stride(self):
        # One run covering everything, so every instance starts at its
        # window's start.  Adding 0.1 ten times gives 0.9999999999999999,
        # not 1.0: starts computed as start + i * stride would differ.
        symbolic_db = SymbolicDatabase(
            [SymbolicSeries("K", np.arange(31) * 0.1, ["On"] * 31, ALPHABET)]
        )
        config = SplitConfig(window_length=0.2, overlap=0.1)
        self._check(symbolic_db, config)
        starts = [q.instances[0].start for q in split_into_sequences(symbolic_db, config)]
        assert starts[10] == sum([0.1] * 10) != 10 * 0.1

    def test_negative_zero_window_start_is_kept(self):
        # A window starting at -0.0 clips an interval starting at 0.0 to the
        # first argument of max(), exactly as the scan did.
        series = SymbolicSeries("K", np.array([-0.0, 1.0, 2.0]), ["On", "Off", "On"], ALPHABET)
        self._check(SymbolicDatabase([series]), SplitConfig(window_length=1.5, overlap=0.5))


# --------------------------------------------------------------------------- symbolisation
def _series(values) -> TimeSeries:
    return TimeSeries.from_values("x", list(values))


def outcome(call):
    """The result of ``call()``, or the message of the SymbolizationError it raised."""
    try:
        return "ok", call()
    except SymbolizationError as error:
        return "error", str(error)


class TestSymbolizersMatchReference:
    @RELAXED
    @given(st.lists(st.sampled_from((0.0, 0.05, np.nextafter(0.05, 0.0), np.nextafter(0.05, 1.0), 1.0, -3.0)), min_size=1, max_size=30))
    def test_threshold_values_on_the_threshold(self, values):
        symbolizer = ThresholdSymbolizer(threshold=0.05)
        series = _series(values)
        assert symbolizer.transform(series).symbols == reference_symbols(symbolizer, series)
        for value in values:
            assert symbolizer.symbol_for(value) == reference_symbol_for(symbolizer, value)

    @RELAXED
    @given(
        st.lists(st.integers(0, 6), min_size=1, max_size=40),
        st.sampled_from([None, (25.0, 50.0, 75.0), (10.0, 10.0, 90.0), (33.3, 50.0, 66.7)]),
    )
    def test_quantile_values_on_the_cuts(self, values, percentiles):
        # Integer data puts many percentiles exactly on a data value.
        symbolizer = QuantileSymbolizer(labels=("A", "B", "C", "D"), percentiles=percentiles)
        series = _series([float(v) for v in values])
        symbolizer.fit(series)
        assert symbolizer.transform(series).symbols == reference_symbols(symbolizer, series)
        for cut in symbolizer._cuts:
            for value in (cut, np.nextafter(cut, -np.inf), np.nextafter(cut, np.inf)):
                assert symbolizer.symbol_for(value) == reference_symbol_for(symbolizer, value)

    @RELAXED
    @given(st.lists(st.integers(-3, 9), min_size=1, max_size=40))
    def test_uniform_bins_values_on_the_edges(self, values):
        symbolizer = UniformBinSymbolizer(labels=("lo", "mid", "hi"))
        series = _series([float(v) for v in values])
        symbolizer.fit(series)
        assert symbolizer.transform(series).symbols == reference_symbols(symbolizer, series)
        for edge in symbolizer._edges:
            assert symbolizer.symbol_for(edge) == reference_symbol_for(symbolizer, edge)

    @RELAXED
    @given(st.lists(st.sampled_from((-11.0, -10.0, -0.5, 0.0, 0.5, 1.0, 2.5, np.nextafter(3.0, 0.0), 3.0)), min_size=1, max_size=30))
    def test_mapping_values_on_the_bounds(self, values):
        # Ranges listed out of value order; -11.0 and 3.0 fall outside all of
        # them, and the first such value names the error.
        symbolizer = MappingSymbolizer(
            {"warm": (1.0, 3.0), "cold": (-10.0, 0.0), "mild": (0.0, 1.0)}
        )
        series = _series(values)
        assert outcome(lambda: symbolizer.transform(series).symbols) == outcome(
            lambda: reference_symbols(symbolizer, series)
        )
        for value in values:
            assert outcome(lambda: symbolizer.symbol_for(value)) == outcome(
                lambda: reference_symbol_for(symbolizer, value)
            )

    @RELAXED
    @given(st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=2, max_size=40))
    def test_sax_codes_on_the_breakpoints(self, values):
        symbolizer = SAXSymbolizer(frame_duration=1.0, alphabet_size=5)
        series = _series(values)
        symbolizer.fit(series)
        on_breaks = [symbolizer._mean + b * symbolizer._std for b in symbolizer._breakpoints]
        for value in values + on_breaks:
            assert symbolizer.symbol_for(value) == reference_symbol_for(symbolizer, value)


class TestSAXFramesMatchMaskVersion:
    @RELAXED
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 200),
        st.sampled_from((0.7, 1.0, 5.0, 13.0, 60.0)),
        st.integers(2, 8),
        st.booleans(),
    )
    def test_random_irregular_series(self, seed, n, frame_duration, alphabet_size, on_grid):
        rng = np.random.default_rng(seed)
        # Mostly short gaps with some long ones, so some frames are empty; on
        # an integer grid many samples sit exactly on a frame boundary.
        long_gap = rng.random(n - 1) < 0.1
        if on_grid:
            gaps = np.where(long_gap, rng.integers(20, 120, n - 1), rng.integers(1, 4, n - 1))
            start = float(rng.integers(-100, 100))
        else:
            gaps = np.where(long_gap, rng.uniform(20, 120, n - 1), rng.uniform(0.1, 3, n - 1))
            start = rng.uniform(-100, 100)
        timestamps = start + np.concatenate([[0.0], np.cumsum(gaps)])
        series = TimeSeries("x", timestamps, rng.normal(0, 2, n))
        symbolizer = SAXSymbolizer(frame_duration=frame_duration, alphabet_size=alphabet_size)
        symbolic = symbolizer.fit_transform(series)
        symbols, starts = reference_sax(symbolizer, series)
        assert symbolic.symbols == symbols
        assert symbolic.timestamps.tobytes() == starts.tobytes()


# --------------------------------------------------------------------------- errors
class TestErrorsThroughBothEntryPoints:
    def test_mapping_names_the_first_unmapped_value(self):
        symbolizer = MappingSymbolizer({"a": (0.0, 1.0), "b": (1.0, 2.0)})
        message = "value 5.0 falls outside every mapped interval"
        with pytest.raises(SymbolizationError, match=message):
            symbolizer.symbol_for(5.0)
        with pytest.raises(SymbolizationError, match="value 7.5 falls outside"):
            symbolizer.transform(_series([0.5, 7.5, 1.5, -3.0]))
        with pytest.raises(SymbolizationError) as reference:
            reference_symbols(symbolizer, _series([0.5, 7.5, 1.5, -3.0]))
        with pytest.raises(SymbolizationError) as actual:
            symbolizer.transform(_series([0.5, 7.5, 1.5, -3.0]))
        assert str(actual.value) == str(reference.value)

    @pytest.mark.parametrize(
        "symbolizer",
        [QuantileSymbolizer(), SAXSymbolizer(frame_duration=2.0)],
        ids=["quantile", "sax"],
    )
    def test_use_before_fit_raises(self, symbolizer):
        with pytest.raises(SymbolizationError, match="before fit"):
            symbolizer.symbol_for(1.0)
        with pytest.raises(SymbolizationError, match="before fit"):
            symbolizer.transform(_series([1.0, 2.0, 3.0]))
        with pytest.raises(SymbolizationError, match="before fit"):
            symbolizer.codes_for(np.array([1.0]))

    def test_uniform_bins_before_fit_map_to_the_first_label(self):
        symbolizer = UniformBinSymbolizer(labels=("lo", "hi"))
        assert symbolizer.symbol_for(100.0) == "lo"
        assert symbolizer.transform(_series([1.0, 50.0])).symbols == ["lo", "lo"]


# --------------------------------------------------------------------------- interface
class TestSymbolizerInterface:
    def test_codes_for_is_the_one_abstract_mapping(self):
        assert Symbolizer.__abstractmethods__ == frozenset({"alphabet", "codes_for"})

    def test_custom_symbolizer_needs_only_alphabet_and_codes_for(self):
        class Sign(Symbolizer):
            @property
            def alphabet(self):
                return ("neg", "zero", "pos")

            def codes_for(self, values):
                return np.sign(np.asarray(values, dtype=float)).astype(np.intp) + 1

        symbolizer = Sign()
        assert symbolizer.symbol_for(-2.0) == "neg"
        assert symbolizer.symbol_for(0.0) == "zero"
        symbolic = symbolizer.fit_transform(_series([3.0, 0.0, -1.0]))
        assert symbolic.symbols == ["pos", "zero", "neg"]
        assert symbolic.alphabet == ("neg", "zero", "pos")
