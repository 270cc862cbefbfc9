"""Tests for A-HTPGM (approximate mining via mutual information)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import AHTPGM, HTPGM, ConfigurationError, MiningConfig, SymbolicDatabase, SymbolicSeries
from repro.timeseries import EventInstance, SequenceDatabase, TemporalSequence


def make_symbolic(name, symbols):
    return SymbolicSeries.from_symbols(
        name=name,
        timestamps=np.arange(len(symbols), dtype=float) * 10.0,
        symbols=symbols,
        alphabet=("Off", "On"),
    )


@pytest.fixture()
def correlated_world():
    """Two correlated series (a, b) and one independent series (z).

    Both the symbolic database and a matching sequence database are built by
    hand: a and b switch On together in every sequence, z switches On in a
    pattern unrelated to either.
    """
    n_sequences = 6
    symbolic_a, symbolic_b, symbolic_z = [], [], []
    sequences = []
    rng = np.random.default_rng(5)
    for seq_id in range(n_sequences):
        offset = seq_id * 60.0
        instances = [
            EventInstance(offset + 10, offset + 30, "a", "On"),
            EventInstance(offset + 15, offset + 25, "b", "On"),
        ]
        # a and b share the same on-window -> identical symbols.
        symbolic_a.extend(["Off", "On", "On", "Off", "Off", "Off"])
        symbolic_b.extend(["Off", "On", "On", "Off", "Off", "Off"])
        # z alternates independently of the sequence structure.
        z_on = rng.integers(0, 2, 6)
        symbolic_z.extend(["On" if v else "Off" for v in z_on])
        if z_on.any():
            first_on = int(np.argmax(z_on))
            instances.append(
                EventInstance(offset + first_on * 10, offset + first_on * 10 + 10, "z", "On")
            )
        sequences.append(TemporalSequence(seq_id, instances))
    symbolic_db = SymbolicDatabase(
        [make_symbolic("a", symbolic_a), make_symbolic("b", symbolic_b), make_symbolic("z", symbolic_z)]
    )
    return symbolic_db, SequenceDatabase(sequences)


CONFIG = MiningConfig(min_support=0.5, min_confidence=0.5, min_overlap=1.0, max_pattern_size=3)


class TestConstruction:
    def test_requires_exactly_one_threshold_source(self):
        with pytest.raises(ConfigurationError):
            AHTPGM(CONFIG)
        with pytest.raises(ConfigurationError):
            AHTPGM(CONFIG, mi_threshold=0.5, graph_density=0.5)

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            AHTPGM(CONFIG, mi_threshold=0.0)
        with pytest.raises(ConfigurationError):
            AHTPGM(CONFIG, graph_density=1.5)


class TestMIPruning:
    def test_uncorrelated_series_is_pruned(self, correlated_world):
        symbolic_db, sequence_db = correlated_world
        miner = AHTPGM(CONFIG, mi_threshold=0.6)
        result = miner.mine(sequence_db, symbolic_db)
        assert result.algorithm == "A-HTPGM"
        assert set(result.correlated_series) == {"a", "b"}
        assert not result.involving_series("z")
        # The strong a-b pattern survives.
        assert any({k[0] for k in m.pattern.events} == {"a", "b"} for m in result)

    def test_exact_miner_still_finds_z_patterns_if_frequent(self, correlated_world):
        symbolic_db, sequence_db = correlated_world
        exact = HTPGM(CONFIG).mine(sequence_db)
        approx = AHTPGM(CONFIG, mi_threshold=0.6).mine(sequence_db, symbolic_db)
        assert approx.pattern_set() <= exact.pattern_set()

    def test_density_parameterisation(self, correlated_world):
        symbolic_db, sequence_db = correlated_world
        miner = AHTPGM(CONFIG, graph_density=0.34)  # keep ~1 of 3 edges
        result = miner.mine(sequence_db, symbolic_db)
        graph = miner.correlation_graph_
        assert graph is not None
        assert graph.n_edges == 1
        assert set(result.correlated_series) == {"a", "b"}

    def test_correlation_graph_and_miner_exposed(self, correlated_world):
        symbolic_db, sequence_db = correlated_world
        miner = AHTPGM(CONFIG, mi_threshold=0.6)
        miner.mine(sequence_db, symbolic_db)
        assert miner.correlation_graph_ is not None
        assert miner.miner_ is not None
        assert miner.miner_.graph_ is not None


class TestSubsetOfExactOnSyntheticData:
    def test_approximate_subset_and_high_density_recovers_more(self, small_energy, fast_config):
        _, symbolic_db, sequence_db = small_energy
        exact = HTPGM(fast_config).mine(sequence_db)
        low = AHTPGM(fast_config, graph_density=0.2).mine(sequence_db, symbolic_db)
        high = AHTPGM(fast_config, graph_density=0.8).mine(sequence_db, symbolic_db)
        assert low.pattern_set() <= exact.pattern_set()
        assert high.pattern_set() <= exact.pattern_set()
        assert len(high.pattern_set()) >= len(low.pattern_set())

    def test_measures_match_exact_for_recovered_patterns(self, small_energy, fast_config):
        """A-HTPGM only prunes the search space; surviving patterns keep their
        exact support and confidence."""
        _, symbolic_db, sequence_db = small_energy
        exact_index = HTPGM(fast_config).mine(sequence_db).pattern_index()
        approx = AHTPGM(fast_config, graph_density=0.5).mine(sequence_db, symbolic_db)
        for mined in approx:
            exact_mined = exact_index[mined.pattern]
            assert exact_mined.support == mined.support
            assert exact_mined.confidence == pytest.approx(mined.confidence)
