"""Unit tests for MiningResult / MinedPattern / MiningStatistics."""

from __future__ import annotations

import pytest

from repro import HTPGM, MiningConfig, Relation, TemporalPattern
from repro.core.patterns import PatternMeasures
from repro.core.result import MinedPattern, MiningResult
from repro.core.stats import MiningStatistics

K = ("K", "On")
T = ("T", "On")
M = ("M", "On")


def mined(events, relations, support, n_sequences=4, confidence=0.5):
    return MinedPattern(
        pattern=TemporalPattern(events=events, relations=relations),
        measures=PatternMeasures(
            support=support,
            relative_support=support / n_sequences,
            confidence=confidence,
        ),
    )


@pytest.fixture()
def result() -> MiningResult:
    patterns = [
        mined((K, T), (Relation.CONTAIN,), support=3, confidence=0.75),
        mined((K, M), (Relation.CONTAIN,), support=2, confidence=0.5),
        mined((K, T, M), (Relation.CONTAIN, Relation.CONTAIN, Relation.FOLLOW), support=2, confidence=0.6),
    ]
    return MiningResult(
        patterns=patterns,
        config=MiningConfig(min_support=0.5, min_confidence=0.5, min_overlap=1.0),
        n_sequences=4,
        runtime_seconds=0.1,
    )


class TestMiningResult:
    def test_len_iter_contains(self, result):
        assert len(result) == 3
        assert all(isinstance(m, MinedPattern) for m in result)
        assert TemporalPattern((K, T), (Relation.CONTAIN,)) in result
        assert TemporalPattern((T, K), (Relation.CONTAIN,)) not in result

    def test_counts_by_size(self, result):
        assert result.counts_by_size() == {2: 2, 3: 1}

    def test_patterns_of_size(self, result):
        assert len(result.patterns_of_size(2)) == 2
        assert len(result.patterns_of_size(5)) == 0

    def test_involving_event_and_series(self, result):
        assert len(result.involving_event(M)) == 2
        assert len(result.involving_series("K")) == 3
        assert result.involving_series("Z") == []

    def test_top_by_support_and_confidence(self, result):
        by_support = result.top(2, by="support")
        assert by_support[0].support == 3
        by_confidence = result.top(1, by="confidence")
        assert by_confidence[0].confidence == pytest.approx(0.75)
        with pytest.raises(ValueError):
            result.top(1, by="unknown")

    def test_to_records(self, result):
        records = result.to_records()
        assert len(records) == 3
        first = records[0]
        assert set(first) == {
            "pattern",
            "size",
            "events",
            "relations",
            "support",
            "relative_support",
            "confidence",
        }
        assert first["events"] == ["K:On", "T:On"]

    def test_summary_mentions_counts(self, result):
        text = result.summary()
        assert "3 frequent patterns" in text
        assert "2-event patterns: 2" in text

    def test_mined_pattern_describe(self, result):
        text = result.patterns[0].describe()
        assert "K:On < T:On" in text
        assert "supp=75%" in text


class TestMiningStatistics:
    def test_counters_via_real_run(self, paper_sequence_db):
        miner = HTPGM(MiningConfig(min_support=0.5, min_confidence=0.5, min_overlap=1.0))
        result = miner.mine(paper_sequence_db)
        stats = result.statistics
        assert stats.n_sequences == 4
        assert stats.events_scanned == 6
        assert stats.frequent_events == 5
        assert stats.total_patterns >= len(result) + stats.frequent_events
        assert stats.max_level == 4
        assert stats.total_candidates > 0
        assert set(stats.level_seconds) >= {1, 2, 3, 4}

    def test_bump_and_totals(self):
        stats = MiningStatistics()
        stats.bump(stats.candidates_generated, 2)
        stats.bump(stats.candidates_generated, 2, 4)
        stats.bump(stats.pruned_support, 2)
        assert stats.candidates_generated[2] == 5
        assert stats.total_candidates == 5
        assert stats.total_pruned == 1
        assert stats.max_level == 0

    def test_zero_amount_bump_is_a_noop(self):
        """Regression: zero-amount bumps must not create {level: 0} entries."""
        stats = MiningStatistics()
        stats.bump(stats.pruned_transitivity_events, 3, 0)
        assert stats.pruned_transitivity_events == {}
        assert stats.as_dict()["pruned_transitivity_events"] == {}
        # An existing entry is left untouched by a later zero-amount bump.
        stats.bump(stats.pruned_transitivity_events, 3, 2)
        stats.bump(stats.pruned_transitivity_events, 3, 0)
        assert stats.pruned_transitivity_events == {3: 2}

    def test_real_run_counters_carry_no_zero_entries(self, paper_sequence_db):
        """The transitivity bump in
        MiningSession._generate_combination_candidates used to record zeros
        at every level where Lemma 5 removed nothing."""
        miner = HTPGM(MiningConfig(min_support=0.5, min_confidence=0.5, min_overlap=1.0))
        stats = miner.mine(paper_sequence_db).statistics
        assert 0 not in stats.pruned_transitivity_events.values()
        assert 0 not in stats.pruned_relation_checks.values()

    def test_as_dict_round_trips_counters(self):
        stats = MiningStatistics(n_sequences=7)
        stats.bump(stats.patterns_found, 2, 3)
        payload = stats.as_dict()
        assert payload["n_sequences"] == 7
        assert payload["patterns_found"] == {2: 3}
        assert payload["total_patterns"] == 3
        assert payload["correlation_seconds"] == 0.0

    def test_correlation_seconds_recorded_by_approximate_miner(self, small_energy):
        from repro import AHTPGM

        _, symbolic_db, sequence_db = small_energy
        config = MiningConfig(
            min_support=0.4, min_confidence=0.4, epsilon=1.0,
            min_overlap=5.0, tmax=360.0, max_pattern_size=2,
        )
        result = AHTPGM(config, graph_density=0.6).mine(sequence_db, symbolic_db)
        assert result.statistics.correlation_seconds > 0.0
        exact = HTPGM(config).mine(sequence_db)
        assert exact.statistics.correlation_seconds == 0.0


class TestStatisticsMerging:
    def test_absorb_counters_adds_per_level(self):
        main = MiningStatistics(n_sequences=10)
        main.bump(main.candidates_generated, 2, 3)
        shard = MiningStatistics()
        shard.bump(shard.candidates_generated, 2, 4)
        shard.bump(shard.patterns_found, 3, 2)
        main.absorb_counters(shard)
        assert main.candidates_generated == {2: 7}
        assert main.patterns_found == {3: 2}
        # Scalar database facts stay owned by the run-level object.
        assert main.n_sequences == 10

    def test_absorb_counters_ignores_level_seconds(self):
        main = MiningStatistics()
        shard = MiningStatistics()
        shard.level_seconds[2] = 5.0
        main.absorb_counters(shard)
        assert main.level_seconds == {}

    def test_merge_shard_takes_max_of_wall_clock_not_sum(self):
        """Concurrent shards overlap in time: the level costs its slowest shard.

        Summing the per-worker times would report ~n_workers times the true
        wall-clock for a perfectly balanced level.
        """
        main = MiningStatistics()
        for seconds in (0.4, 1.5, 0.9):
            shard = MiningStatistics()
            shard.level_seconds[2] = seconds
            shard.bump(shard.relation_checks, 2, 10)
            main.merge_shard(shard)
        assert main.level_seconds[2] == pytest.approx(1.5)  # max, not 2.8
        assert main.relation_checks[2] == 30  # counters still add

    def test_merge_shard_keeps_existing_levels(self):
        main = MiningStatistics()
        main.level_seconds[2] = 2.0
        shard = MiningStatistics()
        shard.level_seconds[2] = 1.0
        shard.level_seconds[3] = 0.5
        main.merge_shard(shard)
        assert main.level_seconds == {2: 2.0, 3: 0.5}
