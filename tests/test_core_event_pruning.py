"""Tests for the event-level MI pruning extension (paper future work)."""

from __future__ import annotations

import math

import pytest

from repro import AHTPGM, HTPGM, ConfigurationError, MiningConfig
from repro.core.event_pruning import (
    EventCorrelationIndex,
    binary_nmi,
    build_event_correlation_index,
)
from repro.timeseries import EventInstance, SequenceDatabase, TemporalSequence


def inst(series, symbol, start, end):
    return EventInstance(start=start, end=end, series=series, symbol=symbol)


@pytest.fixture()
def tracking_db() -> SequenceDatabase:
    """A:On and B:On always co-occur; Z:On occurs in alternating sequences."""
    sequences = []
    for seq_id in range(8):
        instances = [inst("A", "On", 0, 10), inst("B", "On", 2, 8)]
        if seq_id % 2 == 0:
            instances.append(inst("Z", "On", 20, 25))
        sequences.append(TemporalSequence(seq_id, instances))
    return SequenceDatabase(sequences)


def _closed_form_binary_nmi(joint_11, count_x, count_y, total):
    """binary_nmi as a closed-form Bernoulli entropy plus its own MI loop —
    the reference for the version built on the shared Eq. 7 / Eq. 9
    functions."""

    def binary_entropy(p):
        if p <= 0.0 or p >= 1.0:
            return 0.0
        return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))

    px = count_x / total
    py = count_y / total
    hx = binary_entropy(px)
    if hx == 0.0:
        return 0.0
    cells = {
        (1, 1): joint_11 / total,
        (1, 0): (count_x - joint_11) / total,
        (0, 1): (count_y - joint_11) / total,
        (0, 0): (total - count_x - count_y + joint_11) / total,
    }
    marginal_x = {1: px, 0: 1 - px}
    marginal_y = {1: py, 0: 1 - py}
    mi = 0.0
    for (x, y), pxy in cells.items():
        if pxy <= 0:
            continue
        mi += pxy * math.log2(pxy / (marginal_x[x] * marginal_y[y]))
    return min(max(mi, 0.0) / hx, 1.0)


class TestBinaryNMI:
    def test_equals_the_closed_form(self):
        """Every consistent (joint, count_x, count_y) for totals up to 30 and
        a sample of counts for larger totals; p = 0, p = 1, joint = 0 and
        joint = min(count_x, count_y) included."""
        grid = [(total, range(total + 1)) for total in range(1, 31)]
        for total in (97, 365, 1000, 4096):
            grid.append((total, sorted({0, 1, 2, total // 3, total // 2, total - 1, total})))
        cases = 0
        for total, counts in grid:
            for count_x in counts:
                for count_y in counts:
                    lowest = max(0, count_x + count_y - total)
                    for joint in range(lowest, min(count_x, count_y) + 1):
                        assert binary_nmi(joint, count_x, count_y, total) == (
                            _closed_form_binary_nmi(joint, count_x, count_y, total)
                        ), (joint, count_x, count_y, total)
                        cases += 1
        assert cases > 30_000

    def test_perfectly_dependent_indicators(self):
        assert binary_nmi(joint_11=4, count_x=4, count_y=4, total=8) == pytest.approx(1.0)

    def test_independent_indicators(self):
        # x occurs in half the sequences, y in half, jointly in a quarter.
        assert binary_nmi(joint_11=2, count_x=4, count_y=4, total=8) == pytest.approx(0.0, abs=1e-9)

    def test_constant_indicator_gives_zero(self):
        assert binary_nmi(joint_11=4, count_x=8, count_y=4, total=8) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            binary_nmi(joint_11=5, count_x=4, count_y=6, total=8)
        with pytest.raises(ConfigurationError):
            binary_nmi(joint_11=1, count_x=9, count_y=2, total=8)
        with pytest.raises(ConfigurationError):
            binary_nmi(joint_11=1, count_x=2, count_y=2, total=0)

    def test_bounded(self):
        for joint in range(0, 4):
            value = binary_nmi(joint, 4, 5, 10)
            assert 0.0 <= value <= 1.0


class TestEventCorrelationIndex:
    def test_correlated_events_kept_uncorrelated_pruned(self, tracking_db):
        index = build_event_correlation_index(tracking_db, mi_threshold=0.5)
        a_on, b_on, z_on = ("A", "On"), ("B", "On"), ("Z", "On")
        # A and B occur in every sequence: their indicators are constant, so the
        # NMI is 0 and the pair is below the threshold...
        assert not index.are_correlated(a_on, z_on)
        # ...but same-series pairs and identical events are never pruned.
        assert index.are_correlated(a_on, a_on)
        assert index.are_correlated(a_on, ("A", "Off"))

    def test_index_counts(self, tracking_db):
        index = build_event_correlation_index(tracking_db, mi_threshold=0.01)
        assert index.n_sequences == 8
        assert index.event_counts[("A", "On")] == 8
        assert index.event_counts[("Z", "On")] == 4
        assert isinstance(index, EventCorrelationIndex)

    def test_threshold_validation(self, tracking_db):
        with pytest.raises(ConfigurationError):
            build_event_correlation_index(tracking_db, mi_threshold=0.0)
        with pytest.raises(ConfigurationError):
            build_event_correlation_index(SequenceDatabase([]), mi_threshold=0.5)

    def test_lower_threshold_keeps_more_pairs(self, small_energy):
        _, _, sequence_db = small_energy
        loose = build_event_correlation_index(sequence_db, mi_threshold=0.01)
        strict = build_event_correlation_index(sequence_db, mi_threshold=0.5)
        assert strict.n_correlated_pairs <= loose.n_correlated_pairs


class TestEventLevelAHTPGM:
    CONFIG = MiningConfig(
        min_support=0.4, min_confidence=0.4, epsilon=1.0, min_overlap=5.0,
        tmax=360.0, max_pattern_size=3,
    )

    def test_event_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            AHTPGM(self.CONFIG, graph_density=0.5, event_mi_threshold=0.0)

    def test_event_level_pruning_is_a_subset_of_series_level(self, small_energy):
        _, symbolic_db, sequence_db = small_energy
        exact = HTPGM(self.CONFIG).mine(sequence_db)
        series_only = AHTPGM(self.CONFIG, graph_density=0.6).mine(sequence_db, symbolic_db)
        both = AHTPGM(
            self.CONFIG, graph_density=0.6, event_mi_threshold=0.05
        ).mine(sequence_db, symbolic_db)
        assert both.pattern_set() <= series_only.pattern_set() <= exact.pattern_set()

    def test_event_index_exposed_and_used(self, small_energy):
        _, symbolic_db, sequence_db = small_energy
        miner = AHTPGM(self.CONFIG, graph_density=0.8, event_mi_threshold=0.05)
        miner.mine(sequence_db, symbolic_db)
        assert miner.event_index_ is not None
        assert miner.event_index_.mi_threshold == 0.05
        # Without the option the index stays unset.
        plain = AHTPGM(self.CONFIG, graph_density=0.8)
        plain.mine(sequence_db, symbolic_db)
        assert plain.event_index_ is None

    def test_surviving_patterns_keep_exact_measures(self, small_energy):
        _, symbolic_db, sequence_db = small_energy
        exact_index = HTPGM(self.CONFIG).mine(sequence_db).pattern_index()
        result = AHTPGM(
            self.CONFIG, graph_density=0.8, event_mi_threshold=0.05
        ).mine(sequence_db, symbolic_db)
        for mined in result:
            assert exact_index[mined.pattern].support == mined.support
