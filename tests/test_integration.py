"""End-to-end integration tests across modules.

These tests run the full FTPMfTS process on the synthetic datasets and verify
the cross-cutting claims of the paper on a small scale: every miner produces
the same pattern set, A-HTPGM is a subset of E-HTPGM and prunes the search
space, the pruning ablation never changes outputs, and the exported artefacts
are consistent with the in-memory results.
"""

from __future__ import annotations

from repro import AHTPGM, HTPGM, PruningMode
from repro.baselines import HDFSMiner, IEMiner, TPMiner
from repro.evaluation import ExperimentRunner, accuracy
from repro.io import read_patterns_json, write_patterns_json


class TestEnergyEndToEnd:
    def test_all_miners_agree_on_energy_data(self, small_energy, fast_config):
        _, _, sequence_db = small_energy
        reference = HTPGM(fast_config).mine(sequence_db)
        assert len(reference) > 0, "fixture dataset should produce some patterns"
        for miner in (TPMiner(fast_config), IEMiner(fast_config), HDFSMiner(fast_config)):
            assert miner.mine(sequence_db).pattern_set() == reference.pattern_set()

    def test_pruning_statistics_reflect_configuration(self, small_energy, fast_config):
        _, _, sequence_db = small_energy
        all_miner = HTPGM(fast_config)
        none_miner = HTPGM(fast_config.with_pruning(PruningMode.NONE))
        all_result = all_miner.mine(sequence_db)
        none_result = none_miner.mine(sequence_db)
        assert all_result.pattern_set() == none_result.pattern_set()
        # Apriori pruning counters only move when apriori pruning is active.
        assert sum(all_miner.statistics_.pruned_support.values()) > 0
        assert sum(none_miner.statistics_.pruned_support.values()) == 0
        # Without pruning at least as many candidates are generated.
        assert (
            none_miner.statistics_.total_candidates
            >= all_miner.statistics_.total_candidates
        )

    def test_approximate_accuracy_increases_with_density(self, small_energy, fast_config):
        _, symbolic_db, sequence_db = small_energy
        exact = HTPGM(fast_config).mine(sequence_db)
        accuracies = []
        for density in (0.2, 0.5, 0.9):
            approx = AHTPGM(fast_config, graph_density=density).mine(sequence_db, symbolic_db)
            assert approx.pattern_set() <= exact.pattern_set()
            accuracies.append(accuracy(exact, approx))
        assert accuracies[0] <= accuracies[-1]
        assert accuracies[-1] > 0.5

    def test_mi_pruning_reduces_level2_candidates(self, small_energy, fast_config):
        _, symbolic_db, sequence_db = small_energy
        exact_miner = HTPGM(fast_config)
        exact_miner.mine(sequence_db)
        approx_miner = AHTPGM(fast_config, graph_density=0.3)
        approx_miner.mine(sequence_db, symbolic_db)
        exact_candidates = exact_miner.statistics_.candidates_generated.get(2, 0)
        approx_candidates = approx_miner.miner_.statistics_.candidates_generated.get(2, 0)
        assert approx_candidates < exact_candidates


class TestSmartCityEndToEnd:
    def test_multi_state_dataset_mines_patterns(self, small_smartcity, fast_config):
        _, symbolic_db, sequence_db = small_smartcity
        result = HTPGM(fast_config).mine(sequence_db)
        assert len(result) > 0
        # Multi-state alphabets: some events use symbols beyond On/Off.
        symbols = {key[1] for mined in result for key in mined.pattern.events}
        assert symbols - {"On", "Off"}

    def test_approximate_subset_on_smartcity(self, small_smartcity, fast_config):
        _, symbolic_db, sequence_db = small_smartcity
        exact = HTPGM(fast_config).mine(sequence_db)
        approx = AHTPGM(fast_config, graph_density=0.4).mine(sequence_db, symbolic_db)
        assert approx.pattern_set() <= exact.pattern_set()


class TestRunnerRoundTrip:
    def test_runner_results_exportable_and_reloadable(self, small_energy, fast_config, tmp_path):
        _, symbolic_db, sequence_db = small_energy
        runner = ExperimentRunner(sequence_db=sequence_db, symbolic_db=symbolic_db)
        record = runner.run("E-HTPGM", fast_config)
        path = write_patterns_json(record.result, tmp_path / "result.json")
        payload = read_patterns_json(path)
        assert payload["algorithm"] == "E-HTPGM"
        assert len(payload["patterns"]) == record.n_patterns

    def test_overlapping_split_preserves_or_extends_patterns(self, small_energy, fast_config):
        """The Fig. 3 claim: overlap never loses patterns found without it."""
        dataset, _, _ = small_energy
        from repro.timeseries import SplitConfig, split_into_sequences
        from repro.timeseries.symbolization import symbolize_set

        symbolic_db = symbolize_set(dataset.series_set, dataset.symbolizers)
        plain = split_into_sequences(symbolic_db, SplitConfig(window_length=1440.0))
        overlapped = split_into_sequences(
            symbolic_db, SplitConfig(window_length=1440.0, overlap=fast_config.tmax)
        )
        plain_patterns = HTPGM(fast_config).mine(plain).pattern_set()
        overlap_patterns = HTPGM(fast_config).mine(overlapped).pattern_set()
        # Identities of frequent patterns found without overlap are (weakly)
        # preserved: overlapping windows only add supporting evidence.
        recovered = len(plain_patterns & overlap_patterns) / max(len(plain_patterns), 1)
        assert recovered >= 0.7
