"""Unit tests for the DSYB -> DSEQ splitting strategy (paper Section IV-B-2, Fig. 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ConfigurationError, DataError, SplitConfig, SymbolicDatabase, SymbolicSeries, split_into_sequences


def make_series(name, symbols, step=10.0, alphabet=("Off", "On")):
    timestamps = np.arange(len(symbols), dtype=float) * step
    return SymbolicSeries.from_symbols(name=name, timestamps=timestamps, symbols=symbols, alphabet=alphabet)


class TestSplitConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SplitConfig(window_length=0)
        with pytest.raises(ConfigurationError):
            SplitConfig(window_length=10, overlap=-1)
        with pytest.raises(ConfigurationError):
            SplitConfig(window_length=10, overlap=10)

    def test_stride(self):
        assert SplitConfig(window_length=100, overlap=25).stride == 75


class TestSplitIntoSequences:
    def test_no_overlap_produces_disjoint_windows(self):
        # 12 samples of 10 minutes = 120 minutes; windows of 60 -> 2 sequences.
        symbols = ["On", "On", "Off", "Off", "On", "On"] * 2
        db = SymbolicDatabase([make_series("K", symbols)])
        seq_db = split_into_sequences(db, SplitConfig(window_length=60.0))
        assert len(seq_db) == 2
        first_span = seq_db[0].span
        assert first_span[0] >= 0.0 and first_span[1] <= 60.0

    def test_overlap_repeats_boundary_events(self):
        symbols = ["Off"] * 5 + ["On", "On"] + ["Off"] * 5
        db = SymbolicDatabase([make_series("K", symbols)])
        no_overlap = split_into_sequences(db, SplitConfig(window_length=60.0))
        with_overlap = split_into_sequences(db, SplitConfig(window_length=60.0, overlap=30.0))
        # Overlapping windows create more sequences and repeat the On event.
        assert len(with_overlap) > len(no_overlap)
        on_count_overlap = sum(
            1 for seq in with_overlap for inst in seq if inst.symbol == "On"
        )
        on_count_plain = sum(
            1 for seq in no_overlap for inst in seq if inst.symbol == "On"
        )
        assert on_count_overlap >= on_count_plain

    def test_overlap_preserves_cross_boundary_pattern(self):
        """The Fig. 3 scenario: a pattern split across a window boundary survives
        in the overlapped window."""
        # Two events: A On around minute 55-65, B On around minute 65-75.
        a = ["Off"] * 5 + ["On", "Off", "Off", "Off", "Off", "Off", "Off"]
        b = ["Off"] * 6 + ["On", "Off", "Off", "Off", "Off", "Off"]
        db = SymbolicDatabase([make_series("A", a), make_series("B", b)])
        plain = split_into_sequences(db, SplitConfig(window_length=60.0))
        # Without overlap, no single window holds both On events.
        together_plain = any(
            {("A", "On"), ("B", "On")} <= seq.event_keys() for seq in plain
        )
        overlapped = split_into_sequences(db, SplitConfig(window_length=60.0, overlap=30.0))
        together_overlap = any(
            {("A", "On"), ("B", "On")} <= seq.event_keys() for seq in overlapped
        )
        assert not together_plain
        assert together_overlap

    def test_instances_clipped_to_window(self):
        symbols = ["On"] * 12  # one long On interval of 120 minutes
        db = SymbolicDatabase([make_series("K", symbols)])
        seq_db = split_into_sequences(db, SplitConfig(window_length=60.0))
        for sequence in seq_db:
            for instance in sequence:
                assert instance.duration <= 60.0

    def test_drop_symbols(self):
        symbols = ["On", "Off", "On", "Off"]
        db = SymbolicDatabase([make_series("K", symbols)])
        seq_db = split_into_sequences(
            db, SplitConfig(window_length=40.0, drop_symbols=frozenset({"Off"}))
        )
        assert all(inst.symbol == "On" for seq in seq_db for inst in seq)

    def test_window_longer_than_data_gives_single_sequence(self):
        db = SymbolicDatabase([make_series("K", ["On", "Off"])])
        seq_db = split_into_sequences(db, SplitConfig(window_length=1000.0))
        assert len(seq_db) == 1

    def test_empty_database_raises(self):
        with pytest.raises(DataError):
            split_into_sequences(SymbolicDatabase([]), SplitConfig(window_length=10.0))

    def test_sequence_ids_are_consecutive(self):
        symbols = ["On", "Off"] * 6
        db = SymbolicDatabase([make_series("K", symbols)])
        seq_db = split_into_sequences(db, SplitConfig(window_length=40.0))
        ids = [seq.sequence_id for seq in seq_db]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_stride_below_float_spacing_is_rejected(self):
        # Epoch-millisecond timestamps are spaced 2.4e-4 apart near 1.7e12,
        # so a 1e-4 stride leaves the window start where it is; the split
        # must refuse instead of appending that start until memory runs out.
        timestamps = 1.7e12 + 60000.0 * np.arange(3)
        db = SymbolicDatabase(
            [SymbolicSeries.from_symbols("K", timestamps, ["On", "Off", "On"], ("Off", "On"))]
        )
        config = SplitConfig(window_length=60000.0, overlap=60000.0 - 1e-4)
        with pytest.raises(ConfigurationError) as error:
            split_into_sequences(db, config)
        message = str(error.value)
        assert "window_length=60000.0" in message
        assert f"overlap={60000.0 - 1e-4}" in message
        assert f"timestamp {1.7e12}" in message
