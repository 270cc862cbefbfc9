"""Tests for the end-to-end FTPMfTS process (repro.pipeline)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ConfigurationError,
    FTPMfTS,
    MiningConfig,
    SplitConfig,
    ThresholdSymbolizer,
    TimeSeries,
    TimeSeriesSet,
    mine_time_series,
)


@pytest.fixture()
def toy_household() -> TimeSeriesSet:
    """Three days of two correlated appliances plus one independent appliance."""
    rng = np.random.default_rng(11)
    n_days, step = 12, 10.0
    samples_per_day = int(1440 / step)
    n = n_days * samples_per_day
    timestamps = np.arange(n) * step
    kitchen = np.full(n, 0.01)
    toaster = np.full(n, 0.01)
    lonely = np.full(n, 0.01)
    for day in range(n_days):
        base = day * samples_per_day
        start = base + int(6.5 * 60 / step) + rng.integers(-2, 3)
        kitchen[start : start + 6] = 0.4
        toaster[start + 1 : start + 3] = 1.2
        lonely_start = base + rng.integers(0, samples_per_day - 4)
        lonely[lonely_start : lonely_start + 2] = 0.8
    return TimeSeriesSet(
        [
            TimeSeries("Kitchen", timestamps.copy(), kitchen),
            TimeSeries("Toaster", timestamps.copy(), toaster),
            TimeSeries("Lonely", timestamps.copy(), lonely),
        ]
    )


class TestFTPMfTS:
    def test_transform_produces_both_databases(self, toy_household):
        process = FTPMfTS(split_config=SplitConfig(window_length=1440.0))
        symbolic_db, sequence_db = process.transform(toy_household)
        assert symbolic_db.names == ["Kitchen", "Toaster", "Lonely"]
        assert len(sequence_db) == 12
        assert ("Kitchen", "On") in sequence_db.event_keys()

    def test_exact_mining_finds_kitchen_toaster_pattern(self, toy_household):
        process = FTPMfTS(
            split_config=SplitConfig(window_length=1440.0),
            mining_config=MiningConfig(
                min_support=0.5, min_confidence=0.5, min_overlap=5.0, max_pattern_size=2
            ),
        )
        result = process.mine(toy_household)
        kitchen_toaster = [
            m
            for m in result
            if {key[0] for key in m.pattern.events} == {"Kitchen", "Toaster"}
            and all(key[1] == "On" for key in m.pattern.events)
        ]
        assert kitchen_toaster, "expected a Kitchen/Toaster On pattern"
        assert kitchen_toaster[0].confidence >= 0.5

    def test_approximate_mode_prunes_uncorrelated_series(self, toy_household):
        process = FTPMfTS(
            split_config=SplitConfig(window_length=1440.0),
            mining_config=MiningConfig(
                min_support=0.5, min_confidence=0.5, min_overlap=5.0, max_pattern_size=2
            ),
            approximate=True,
            mi_threshold=0.2,
        )
        result = process.mine(toy_household)
        assert result.algorithm == "A-HTPGM"
        assert "Lonely" not in (result.correlated_series or [])

    def test_mi_options_rejected_without_approximate(self):
        with pytest.raises(ConfigurationError):
            FTPMfTS(split_config=SplitConfig(window_length=100.0), mi_threshold=0.5)

    def test_default_symbolizer_is_threshold(self):
        process = FTPMfTS(split_config=SplitConfig(window_length=100.0))
        assert isinstance(process.symbolizers, ThresholdSymbolizer)

    def test_unaligned_input_is_aligned_automatically(self):
        series_set = TimeSeriesSet(
            [
                TimeSeries("a", np.array([0.0, 10.0, 20.0, 30.0]), np.array([0, 1, 1, 0])),
                TimeSeries("b", np.array([0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]), np.array([0, 0, 1, 1, 1, 0, 0])),
            ]
        )
        process = FTPMfTS(split_config=SplitConfig(window_length=20.0))
        symbolic_db, _ = process.transform(series_set)
        assert symbolic_db.is_aligned()


class TestMineTimeSeriesConvenience:
    def test_one_call_wrapper(self, toy_household):
        result = mine_time_series(
            toy_household,
            window_length=1440.0,
            min_support=0.5,
            min_confidence=0.5,
            min_overlap=5.0,
            max_pattern_size=2,
        )
        assert result.algorithm == "E-HTPGM"
        assert len(result) > 0

    def test_approximate_wrapper(self, toy_household):
        result = mine_time_series(
            toy_household,
            window_length=1440.0,
            min_support=0.5,
            min_confidence=0.5,
            min_overlap=5.0,
            max_pattern_size=2,
            approximate=True,
            graph_density=0.5,
        )
        assert result.algorithm == "A-HTPGM"

    def test_config_kwargs_forwarded(self, toy_household):
        result = mine_time_series(
            toy_household,
            window_length=1440.0,
            min_support=0.5,
            min_confidence=0.5,
            min_overlap=5.0,
            max_pattern_size=2,
            pruning="none",
        )
        assert result.config.pruning.value == "none"


def _restrict_days(series_set: TimeSeriesSet, start_day: int, end_day: int, step=10.0):
    """Slice whole days out of an aligned series set (windows stay aligned)."""
    samples_per_day = int(1440 / step)
    lo, hi = start_day * samples_per_day, end_day * samples_per_day
    return TimeSeriesSet(
        [
            TimeSeries(s.name, s.timestamps[lo:hi].copy(), s.values[lo:hi].copy())
            for s in series_set.series
        ]
    )


class TestIncrementalPipeline:
    CONFIG = MiningConfig(
        min_support=0.5, min_confidence=0.5, min_overlap=5.0, max_pattern_size=2
    )

    def _process(self, **overrides):
        return FTPMfTS(
            split_config=SplitConfig(window_length=1440.0),
            mining_config=overrides.pop("mining_config", self.CONFIG),
            **overrides,
        )

    @staticmethod
    def _tuples(result):
        return [
            (m.pattern.events, m.pattern.relations, m.support, m.confidence)
            for m in result
        ]

    def test_mine_incremental_matches_scratch(self, toy_household):
        process = self._process()
        base = _restrict_days(toy_household, 0, 10)
        delta = _restrict_days(toy_household, 10, 12)
        session = process.create_session()
        process.mine(base, session=session)
        incremental = process.mine_incremental(delta, session)
        scratch = process.mine(toy_household)
        assert self._tuples(incremental) == self._tuples(scratch)
        assert session.n_sequences == 12

    def test_mine_time_series_session_parameter(self, toy_household):
        from repro import MiningSession

        base = _restrict_days(toy_household, 0, 10)
        session = MiningSession(self.CONFIG)
        result = mine_time_series(
            base,
            window_length=1440.0,
            min_support=0.5,
            min_confidence=0.5,
            min_overlap=5.0,
            max_pattern_size=2,
            session=session,
        )
        assert session.mined
        assert session.n_sequences == 10
        assert self._tuples(result) == self._tuples(
            self._process().mine(base)
        )

    def test_mined_session_rejected_for_full_mine(self, toy_household):
        from repro import MiningError

        process = self._process()
        session = process.create_session()
        process.mine(toy_household, session=session)
        with pytest.raises(MiningError):
            process.mine(toy_household, session=session)

    def test_session_config_mismatch_rejected(self, toy_household):
        from repro import MiningSession

        process = self._process()
        foreign = MiningSession(MiningConfig(min_support=0.9))
        with pytest.raises(ConfigurationError):
            process.mine(toy_household, session=foreign)

    def test_engine_difference_is_not_a_mismatch(self, toy_household):
        """A serially mined session can be appended with the process engine."""
        from repro import MiningSession

        base = _restrict_days(toy_household, 0, 10)
        delta = _restrict_days(toy_household, 10, 12)
        session = MiningSession(self.CONFIG)
        serial_process = self._process()
        serial_process.mine(base, session=session)
        parallel_process = self._process(
            mining_config=self.CONFIG.with_engine("process", 2)
        )
        incremental = parallel_process.mine_incremental(delta, session)
        scratch = serial_process.mine(toy_household)
        assert self._tuples(incremental) == self._tuples(scratch)

    @pytest.mark.parametrize("per_series", [False, True])
    @pytest.mark.parametrize("family", ["quantile", "uniform", "sax"])
    def test_data_fitted_symbolizers_refused_on_append(
        self, toy_household, family, per_series
    ):
        """A symbolizer that overrides fit would be fitted to the delta alone
        on append; the refusal names its class, and the series when the
        symbolizers are given per series.  The session is left as it was."""
        from repro.timeseries.sax import SAXSymbolizer
        from repro.timeseries.symbolization import (
            QuantileSymbolizer,
            UniformBinSymbolizer,
        )

        fitted = {
            "quantile": QuantileSymbolizer(labels=("Low", "Medium", "High")),
            "uniform": UniformBinSymbolizer(),
            "sax": SAXSymbolizer(alphabet_size=3),
        }[family]
        symbolizers = (
            {"Kitchen": ThresholdSymbolizer(), "Toaster": fitted, "Lonely": fitted}
            if per_series
            else fitted
        )
        process = self._process(symbolizers=symbolizers)
        session = process.create_session()
        process.mine(_restrict_days(toy_household, 0, 10), session=session)
        with pytest.raises(ConfigurationError) as error:
            process.mine_incremental(_restrict_days(toy_household, 10, 12), session)
        assert type(fitted).__name__ in str(error.value)
        assert ("'Toaster'" in str(error.value)) == per_series
        assert session.n_sequences == 10 and session.appends == 0

    def test_threshold_symbolizers_append_per_series(self, toy_household):
        """Per-series symbolizers without a fit append like a shared one."""
        symbolizers = {name: ThresholdSymbolizer() for name in toy_household.names}
        process = self._process(symbolizers=symbolizers)
        session = process.create_session()
        process.mine(_restrict_days(toy_household, 0, 10), session=session)
        incremental = process.mine_incremental(
            _restrict_days(toy_household, 10, 12), session
        )
        assert self._tuples(incremental) == self._tuples(process.mine(toy_household))

    def test_approximate_pipeline_rejects_sessions(self, toy_household):
        process = FTPMfTS(
            split_config=SplitConfig(window_length=1440.0),
            mining_config=self.CONFIG,
            approximate=True,
            mi_threshold=0.2,
        )
        with pytest.raises(ConfigurationError):
            process.create_session()
        from repro import MiningSession

        with pytest.raises(ConfigurationError):
            process.mine(toy_household, session=MiningSession(self.CONFIG))
