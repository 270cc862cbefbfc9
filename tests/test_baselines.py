"""Tests for the baseline miners (H-DFS, IEMiner, TPMiner).

The central property is *equivalence*: on the same input and configuration all
baselines mine exactly the same frequent temporal patterns (with the same
measures) as E-HTPGM — the paper compares them on runtime and memory, not on
output.  A few structural tests per baseline check their distinctive data
representations.
"""

from __future__ import annotations

import pytest

from repro import HTPGM, MiningConfig
from repro.baselines import BaselineMiner, HDFSMiner, IEMiner, TPMiner
from repro.baselines.tpminer import Endpoint, to_endpoint_sequence
from repro.exceptions import MiningError
from repro.timeseries import EventInstance, SequenceDatabase

K = ("K", "On")
T = ("T", "On")
M = ("M", "On")
C = ("C", "On")

BASELINES = [HDFSMiner, IEMiner, TPMiner]


def config(**kwargs):
    defaults = dict(min_support=0.5, min_confidence=0.5, epsilon=0.0, min_overlap=1.0)
    defaults.update(kwargs)
    return MiningConfig(**defaults)


class TestEquivalenceWithExactMiner:
    @pytest.mark.parametrize("baseline_cls", BASELINES)
    def test_same_patterns_on_paper_database(self, paper_sequence_db, baseline_cls):
        reference = HTPGM(config()).mine(paper_sequence_db)
        baseline = baseline_cls(config()).mine(paper_sequence_db)
        assert baseline.pattern_set() == reference.pattern_set()
        ref_index = reference.pattern_index()
        for mined in baseline:
            assert ref_index[mined.pattern].support == mined.support
            assert ref_index[mined.pattern].confidence == pytest.approx(mined.confidence)

    @pytest.mark.parametrize("baseline_cls", BASELINES)
    @pytest.mark.parametrize("thresholds", [(0.5, 0.8), (0.75, 0.5)])
    def test_same_patterns_under_other_thresholds(self, paper_sequence_db, baseline_cls, thresholds):
        support, confidence = thresholds
        cfg = config(min_support=support, min_confidence=confidence)
        reference = HTPGM(cfg).mine(paper_sequence_db)
        baseline = baseline_cls(cfg).mine(paper_sequence_db)
        assert baseline.pattern_set() == reference.pattern_set()

    @pytest.mark.parametrize("baseline_cls", BASELINES)
    def test_same_patterns_on_synthetic_energy_data(self, small_energy, fast_config, baseline_cls):
        _, _, sequence_db = small_energy
        reference = HTPGM(fast_config).mine(sequence_db)
        baseline = baseline_cls(fast_config).mine(sequence_db)
        assert baseline.pattern_set() == reference.pattern_set()

    @pytest.mark.parametrize("baseline_cls", BASELINES)
    def test_max_pattern_size_respected(self, paper_sequence_db, baseline_cls):
        result = baseline_cls(config(max_pattern_size=2)).mine(paper_sequence_db)
        assert all(m.size <= 2 for m in result)
        assert result.counts_by_size() == {2: 7}

    @pytest.mark.parametrize("baseline_cls", BASELINES)
    def test_algorithm_name_recorded(self, paper_sequence_db, baseline_cls):
        result = baseline_cls(config(max_pattern_size=2)).mine(paper_sequence_db)
        assert result.algorithm == baseline_cls.algorithm_name

    @pytest.mark.parametrize("baseline_cls", BASELINES)
    def test_empty_database_raises(self, baseline_cls):
        with pytest.raises(MiningError):
            baseline_cls(config()).mine(SequenceDatabase([]))


class TestBaselineStatistics:
    @pytest.mark.parametrize("baseline_cls", BASELINES)
    def test_work_counters_populated(self, paper_sequence_db, baseline_cls):
        miner = baseline_cls(config())
        miner.mine(paper_sequence_db)
        stats = miner.statistics_
        assert stats is not None
        assert stats.frequent_events == 5
        assert stats.total_candidates > 0
        assert sum(stats.relation_checks.values()) > 0

    def test_baselines_do_more_relation_checks_than_htpgm(self, small_energy, fast_config):
        """The pruning advantage of HTPGM shows up as fewer instance-level checks."""
        _, _, sequence_db = small_energy
        exact = HTPGM(fast_config)
        exact.mine(sequence_db)
        exact_checks = sum(exact.statistics_.relation_checks.values())
        for baseline_cls in (HDFSMiner, IEMiner):
            baseline = baseline_cls(fast_config)
            baseline.mine(sequence_db)
            assert sum(baseline.statistics_.relation_checks.values()) >= exact_checks


class TestHDFSInternals:
    def test_id_lists_vertical_representation(self, paper_sequence_db):
        miner = HDFSMiner(config())
        frequent = {
            event: support
            for event, support in paper_sequence_db.event_support_counts().items()
            if support >= 2
        }
        id_lists = miner._build_id_lists(paper_sequence_db, frequent)
        assert set(id_lists) == set(frequent)
        assert sorted(id_lists[K]) == [0, 1, 2, 3]
        assert all(instances == sorted(instances) for instances in id_lists[K].values())


class TestTPMinerEndpoints:
    def test_endpoint_sequence_ordering(self):
        instances = [
            EventInstance(0, 10, "K", "On"),
            EventInstance(5, 8, "T", "On"),
        ]
        endpoints = to_endpoint_sequence(instances)
        assert len(endpoints) == 4
        times = [e.time for e in endpoints]
        assert times == sorted(times)
        # Starts come before ends at the same time.
        same_time = [e for e in endpoints if e.time == 5]
        assert same_time[0].is_start or len(same_time) == 1

    def test_endpoint_start_flag(self):
        endpoint = Endpoint(time=1.0, kind=0, instance=EventInstance(1, 2, "K", "On"))
        assert endpoint.is_start
        assert not Endpoint(time=2.0, kind=1, instance=EventInstance(1, 2, "K", "On")).is_start


class TestBaselineMinerIsAbstract:
    def test_cannot_instantiate_base(self):
        with pytest.raises(TypeError):
            BaselineMiner(config())  # type: ignore[abstract]
