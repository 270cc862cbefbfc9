"""Empirical validation of the paper's lemmas and Theorem 1.

The unit tests elsewhere pin down individual components; the tests in this
module check the *paper's analytical claims* against the behaviour of the
implementation on concrete data:

* Lemma 1 — the search-space bound O(m^h 3^(h^2)) dominates the number of
  patterns actually stored in the Hierarchical Pattern Graph;
* Lemmas 2/3 — support and confidence of a pattern never exceed the support
  and confidence of its event combination;
* Lemma 4 — transitivity: a chronologically later instance always forms some
  relation with every earlier instance (given a permissive overlap);
* Lemma 8 — support of an event pair in DSYB never exceeds its support in DSEQ;
* Theorem 1 — the confidence lower bound holds for frequent event pairs of
  correlated series.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    HTPGM,
    MiningConfig,
    SplitConfig,
    ThresholdSymbolizer,
    TimeSeries,
    TimeSeriesSet,
    confidence_lower_bound,
    normalized_mutual_information,
    split_into_sequences,
    symbolize_set,
)
from repro.core.relations import classify
from repro.timeseries import EventInstance

from reference_miner import shared_sequences


class TestLemma1SearchSpaceBound:
    def test_stored_patterns_below_analytical_bound(self, paper_sequence_db):
        miner = HTPGM(MiningConfig(min_support=0.5, min_confidence=0.5, min_overlap=1.0))
        result = miner.mine(paper_sequence_db)
        graph = miner.graph_
        m = len(graph.frequent_events())
        h = graph.max_level()
        bound = (m**h) * (3 ** (h * h))
        assert len(result) < bound
        assert result.statistics.total_candidates < bound


class TestLemmas2and3:
    def test_pattern_measures_bounded_by_event_combination(self, paper_sequence_db):
        miner = HTPGM(MiningConfig(min_support=0.5, min_confidence=0.5, min_overlap=1.0))
        result = miner.mine(paper_sequence_db)
        graph = miner.graph_
        for mined in result:
            node = graph.node_for(tuple(sorted(mined.pattern.events)))
            assert node is not None
            # The combination's support (Def. 3.13): the sequences holding
            # every one of its events.
            support = len(shared_sequences(graph.level1, node.events))
            # Lemma 2: supp(P) <= supp(event combination).
            assert mined.support <= support
            # Lemma 3: conf(P) <= conf(event combination).
            max_event_support = max(
                graph.event_support(event) for event in mined.pattern.events
            )
            combination_confidence = support / max_event_support
            assert mined.confidence <= combination_confidence + 1e-12


class TestLemma4Transitivity:
    def test_later_instance_always_relates_to_earlier_ones(self):
        """With d_o no larger than the shortest overlap, a chronologically later
        instance forms Follow, Contain or Overlap with every earlier instance."""
        rng = np.random.default_rng(3)
        for _ in range(200):
            s1 = rng.uniform(0, 50)
            e1 = s1 + rng.uniform(1, 30)
            s2 = s1 + rng.uniform(0, 40)
            e2 = s2 + rng.uniform(1, 30)
            first = EventInstance(s1, e1, "A", "On")
            second = EventInstance(s2, e2, "B", "On")
            overlap = e1 - s2
            if 0 < overlap < 1e-6:
                continue  # degenerate touching intervals
            min_overlap = min(max(overlap, 1e-9), 1e-9) if overlap <= 0 else min(overlap, 1.0)
            relation = classify(first, second, epsilon=0.0, min_overlap=max(min_overlap, 1e-9))
            assert relation is not None, (first, second)


def _two_series_world(seed: int = 0, n_days: int = 40):
    """Two strongly coupled On/Off series used by the Lemma 8 / Theorem 1 tests."""
    rng = np.random.default_rng(seed)
    step = 10.0
    samples_per_day = int(1440 / step)
    n = n_days * samples_per_day
    timestamps = np.arange(n) * step
    x = np.full(n, 0.0)
    y = np.full(n, 0.0)
    for day in range(n_days):
        base = day * samples_per_day
        start = base + int(rng.normal(60, 3))
        x[start : start + 12] = 1.0
        if rng.random() < 0.9:
            y[start + 2 : start + 10] = 1.0
    return TimeSeriesSet(
        [TimeSeries("X", timestamps.copy(), x), TimeSeries("Y", timestamps.copy(), y)]
    )


class TestLemma8AndTheorem1:
    @pytest.fixture(scope="class")
    def world(self):
        series_set = _two_series_world()
        symbolic_db = symbolize_set(series_set, ThresholdSymbolizer(threshold=0.5))
        sequence_db = split_into_sequences(symbolic_db, SplitConfig(window_length=1440.0))
        return symbolic_db, sequence_db

    @staticmethod
    def _dsyb_pair_support(symbolic_db, symbol_x="On", symbol_y="On") -> float:
        xs = symbolic_db["X"].symbols
        ys = symbolic_db["Y"].symbols
        joint = sum(1 for a, b in zip(xs, ys) if a == symbol_x and b == symbol_y)
        return joint / len(xs)

    def test_lemma8_dsyb_support_below_dseq_support(self, world):
        symbolic_db, sequence_db = world
        dsyb_support = self._dsyb_pair_support(symbolic_db)
        x_on, y_on = ("X", "On"), ("Y", "On")
        dseq_support = sum(
            1
            for sequence in sequence_db
            if sequence.contains_event(x_on) and sequence.contains_event(y_on)
        ) / len(sequence_db)
        assert dsyb_support <= dseq_support + 1e-12

    def test_theorem1_confidence_lower_bound_holds(self, world):
        symbolic_db, sequence_db = world
        x_on, y_on = ("X", "On"), ("Y", "On")

        # Per-symbol supports in DSYB.
        xs = symbolic_db["X"].symbols
        ys = symbolic_db["Y"].symbols
        supp_x = sum(1 for s in xs if s == "On") / len(xs)
        supp_y = sum(1 for s in ys if s == "On") / len(ys)
        pair_support = self._dsyb_pair_support(symbolic_db)
        sigma = pair_support * 0.99            # the pair is frequent at this sigma
        sigma_m = max(supp_x, supp_y)

        mu = min(
            normalized_mutual_information(symbolic_db, "X", "Y"),
            normalized_mutual_information(symbolic_db, "Y", "X"),
        )
        assert mu > 0, "the two series are constructed to be correlated"

        bound = confidence_lower_bound(
            min_support=sigma, max_support=sigma_m, n_symbols=2, mi_threshold=mu
        )

        # Measured confidence of the event pair in DSEQ (Def. 3.15).
        counts = sequence_db.event_support_counts()
        joint = sum(
            1
            for sequence in sequence_db
            if sequence.contains_event(x_on) and sequence.contains_event(y_on)
        )
        confidence = joint / max(counts[x_on], counts[y_on])
        assert confidence >= bound - 1e-9

    def test_theorem1_bound_is_nontrivial_for_strong_correlation(self):
        """For near-perfectly correlated series the bound should be clearly
        positive (otherwise the theorem would never prune anything useful)."""
        bound = confidence_lower_bound(
            min_support=0.4, max_support=0.5, n_symbols=2, mi_threshold=0.9
        )
        assert bound > 0.3
