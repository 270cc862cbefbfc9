"""Tests for CSV / JSON import-export (repro.io)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DataError, HTPGM, MiningConfig, TimeSeries, TimeSeriesSet
from repro.io import (
    read_patterns_json,
    read_time_series_csv,
    write_patterns_csv,
    write_patterns_json,
    write_symbolic_csv,
    write_time_series_csv,
)
from repro.timeseries import ThresholdSymbolizer, symbolize_set


@pytest.fixture()
def series_set() -> TimeSeriesSet:
    return TimeSeriesSet(
        [
            TimeSeries.from_values("a", [0.0, 1.0, 0.5], step=10.0),
            TimeSeries.from_values("b", [1.0, 0.0, 0.2], step=10.0),
        ]
    )


class TestTimeSeriesCSV:
    def test_roundtrip(self, series_set, tmp_path):
        path = write_time_series_csv(series_set, tmp_path / "data.csv")
        loaded = read_time_series_csv(path)
        assert loaded.names == ["a", "b"]
        for name in loaded.names:
            assert np.allclose(loaded[name].values, series_set[name].values)
            assert np.allclose(loaded[name].timestamps, series_set[name].timestamps)

    def test_write_requires_alignment(self, tmp_path):
        misaligned = TimeSeriesSet(
            [
                TimeSeries.from_values("a", [0.0, 1.0], step=10.0),
                TimeSeries.from_values("b", [0.0, 1.0, 2.0], step=10.0),
            ]
        )
        with pytest.raises(DataError):
            write_time_series_csv(misaligned, tmp_path / "x.csv")

    def test_write_empty_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_time_series_csv(TimeSeriesSet([]), tmp_path / "x.csv")

    def test_read_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,a\n0,1\n")
        with pytest.raises(DataError):
            read_time_series_csv(path)

    def test_read_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,a,b\n0,1\n")
        with pytest.raises(DataError):
            read_time_series_csv(path)

    def test_read_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,a\n0,not-a-number\n")
        with pytest.raises(DataError):
            read_time_series_csv(path)

    def test_read_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            read_time_series_csv(path)

    def test_read_rejects_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("timestamp,a\n")
        with pytest.raises(DataError):
            read_time_series_csv(path)


class TestSymbolicCSV:
    def test_write_symbolic(self, series_set, tmp_path):
        symbolic = symbolize_set(series_set, ThresholdSymbolizer(threshold=0.5))
        path = write_symbolic_csv(symbolic, tmp_path / "symbols.csv")
        content = path.read_text().splitlines()
        assert content[0] == "timestamp,a,b"
        assert content[1].split(",")[1:] == ["Off", "On"]


class TestPatternsIO:
    @pytest.fixture()
    def result(self, paper_sequence_db):
        return HTPGM(
            MiningConfig(min_support=0.5, min_confidence=0.5, min_overlap=1.0, max_pattern_size=3)
        ).mine(paper_sequence_db)

    def test_json_roundtrip(self, result, tmp_path):
        path = write_patterns_json(result, tmp_path / "patterns.json")
        payload = read_patterns_json(path)
        assert payload["algorithm"] == "E-HTPGM"
        assert payload["n_sequences"] == 4
        assert payload["config"]["min_support"] == 0.5
        assert len(payload["patterns"]) == len(result)
        first = payload["patterns"][0]
        assert {"pattern", "support", "confidence"} <= set(first)

    def test_json_roundtrip_field_by_field(self, result, tmp_path):
        """Every exported record and config field survives the round trip."""
        path = write_patterns_json(result, tmp_path / "patterns.json")
        payload = read_patterns_json(path)
        assert payload["patterns"] == result.to_records()
        config = payload["config"]
        assert config == {
            "min_support": result.config.min_support,
            "min_confidence": result.config.min_confidence,
            "epsilon": result.config.epsilon,
            "min_overlap": result.config.min_overlap,
            "tmax": result.config.tmax,
            "max_pattern_size": result.config.max_pattern_size,
            "pruning": result.config.pruning.value,
        }
        assert payload["correlated_series"] is None
        assert payload["runtime_seconds"] == result.runtime_seconds
        for record in payload["patterns"]:
            assert set(record) == {
                "pattern",
                "size",
                "events",
                "relations",
                "support",
                "relative_support",
                "confidence",
            }

    def test_csv_export(self, result, tmp_path):
        path = write_patterns_csv(result, tmp_path / "patterns.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "pattern,size,support,relative_support,confidence"
        assert len(lines) == len(result) + 1

    def test_csv_header_is_stable(self, result, tmp_path):
        """Downstream dashboards key on these exact columns in this order."""
        path = write_patterns_csv(result, tmp_path / "patterns.csv")
        header = path.read_text().splitlines()[0]
        assert header == "pattern,size,support,relative_support,confidence"
        # An empty result still writes the identical header.
        from repro.core.result import MiningResult

        empty = MiningResult(patterns=[], config=result.config, n_sequences=4)
        empty_path = write_patterns_csv(empty, tmp_path / "empty.csv")
        assert empty_path.read_text().splitlines() == [header]

    def test_process_engine_final_level_exports_like_serial(
        self, paper_sequence_db, tmp_path
    ):
        """Patterns of the max_pattern_size level mined by parallel workers
        keep their occurrences and export exactly like their serial
        counterparts."""
        from repro import ProcessPoolBackend

        config = MiningConfig(
            min_support=0.5, min_confidence=0.5, min_overlap=1.0, max_pattern_size=3
        )
        serial_miner = HTPGM(config)
        serial = serial_miner.mine(paper_sequence_db)
        with ProcessPoolBackend(n_workers=2, min_candidates_per_worker=1) as backend:
            miner = HTPGM(config, backend=backend)
            result = miner.mine(paper_sequence_db)
        final = [
            (entry, serial_entry)
            for node, serial_node in zip(
                miner.graph_.nodes_at(3), serial_miner.graph_.nodes_at(3)
            )
            for entry, serial_entry in zip(
                node.patterns.values(), serial_node.patterns.values()
            )
        ]
        assert final, "the paper database must reach the final level"
        level1, serial_level1 = miner.graph_.level1, serial_miner.graph_.level1
        assert all(
            entry.occurrences(level1)
            and entry.occurrences(level1) == serial_entry.occurrences(serial_level1)
            for entry, serial_entry in final
        )
        json_path = write_patterns_json(result, tmp_path / "patterns.json")
        payload = read_patterns_json(json_path)
        assert payload["patterns"] == serial.to_records()
        csv_path = write_patterns_csv(result, tmp_path / "patterns.csv")
        serial_csv = write_patterns_csv(serial, tmp_path / "serial.csv")
        assert csv_path.read_text() == serial_csv.read_text()
