"""Property-based tests (hypothesis) for the core data structures and invariants.

These cover the library's load-bearing invariants:

* relation classification is a function (never two relations for one pair) and
  agrees with the individual predicates;
* pattern extend/project round-trips;
* entropy / NMI bounds, and the all-pairs NMI equal to the per-pair one;
* on random small sequence databases: support anti-monotonicity (Lemma 2),
  confidence anti-monotonicity (Lemma 6), pruning-mode invariance, baseline
  equivalence and the A ⊆ E containment;
* on random base/delta splits: an append equals the scratch mine of both,
  store and result, and the bound it settles patterns by is exact;
* on random chains of two appends with a session-file round trip before
  each append and after the last: every step equals the scratch mine.
"""

from __future__ import annotations

import tempfile
from contextlib import nullcontext
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import HTPGM, MiningConfig, MiningSession, PruningMode, Relation
from repro.baselines import HDFSMiner, TPMiner
from repro.core.correlation import pairwise_nmi
from repro.core.engine import admits
from repro.core.mutual_information import (
    entropy,
    nmi_matrix,
    normalized_mutual_information,
)
from repro.core.patterns import TemporalPattern, relation_pairs
from repro.core.relations import classify, contains, follows, overlaps
from repro.core.session import _confidence_floor
from repro.io import read_session, write_session
from repro.timeseries import (
    EventInstance,
    SequenceDatabase,
    SymbolicDatabase,
    SymbolicSeries,
    TemporalSequence,
)

from reference_miner import reference_evaluation
from test_engine_parity import store_snapshot
from test_session import mined_tuples, work_counters

# --------------------------------------------------------------------------- strategies
@st.composite
def instance_pairs(draw):
    """Two chronologically ordered instances with small integer endpoints."""
    s1 = draw(st.integers(0, 50))
    d1 = draw(st.integers(1, 30))
    s2 = draw(st.integers(s1, 60))
    d2 = draw(st.integers(1, 30))
    first = EventInstance(float(s1), float(s1 + d1), "A", "On")
    second = EventInstance(float(s2), float(s2 + d2), "B", "On")
    return first, second


@st.composite
def small_databases(draw):
    """Random sequence databases: 3-6 sequences, 3 series, short instances."""
    n_sequences = draw(st.integers(3, 6))
    series_names = ["X", "Y", "Z"]
    sequences = []
    for seq_id in range(n_sequences):
        instances = []
        n_instances = draw(st.integers(2, 6))
        for _ in range(n_instances):
            series = draw(st.sampled_from(series_names))
            start = draw(st.integers(0, 40))
            duration = draw(st.integers(2, 20))
            instances.append(
                EventInstance(float(start), float(start + duration), series, "On")
            )
        sequences.append(TemporalSequence(seq_id, instances))
    return SequenceDatabase(sequences)


@st.composite
def aligned_symbolic_databases(draw):
    """2-6 aligned series of 1-40 steps over alphabets of 1-5 symbols.  Each
    series draws from a subset of its alphabet, so some symbols never occur
    and some series are constant."""
    n_steps = draw(st.integers(1, 40))
    series = []
    for index in range(draw(st.integers(2, 6))):
        alphabet = tuple(f"s{k}" for k in range(draw(st.integers(1, 5))))
        used = draw(st.lists(st.sampled_from(alphabet), min_size=1, unique=True))
        symbols = draw(
            st.lists(st.sampled_from(used), min_size=n_steps, max_size=n_steps)
        )
        timestamps = np.arange(n_steps, dtype=float)
        series.append(SymbolicSeries.from_symbols(f"x{index}", timestamps, symbols, alphabet))
    return SymbolicDatabase(series)


def _delta(draw, base, first_id: int, max_size: int) -> list[TemporalSequence]:
    """1 to ``max_size`` sequences numbered from ``first_id``, over the series
    of :func:`small_databases`.  Half repeat a base sequence, so deltas often
    promote a pattern the base just missed."""
    delta = []
    for _ in range(draw(st.integers(1, max_size))):
        if draw(st.booleans()):
            instances = list(draw(st.sampled_from(base.sequences)).instances)
        else:
            instances = draw(small_databases()).sequences[0].instances
        delta.append(TemporalSequence(first_id + len(delta), list(instances)))
    return delta


@st.composite
def append_splits(draw):
    """A base database of 3-6 sequences and a delta of 1-4 more."""
    base = draw(small_databases())
    return base, _delta(draw, base, len(base), 4)


@st.composite
def append_chains(draw):
    """A base database of 3-6 sequences and two deltas of 1-3 more each."""
    base = draw(small_databases())
    first = _delta(draw, base, len(base), 3)
    return base, [first, _delta(draw, base, len(base) + len(first), 3)]


RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

MINING_CONFIG = MiningConfig(
    min_support=0.5, min_confidence=0.5, min_overlap=1.0, max_pattern_size=3
)


# --------------------------------------------------------------------------- relations
class TestRelationProperties:
    @given(instance_pairs(), st.floats(0, 2), st.floats(0.5, 5))
    def test_classification_agrees_with_predicates(self, pair, epsilon, min_overlap):
        first, second = pair
        if epsilon > min_overlap:
            epsilon = min_overlap
        relation = classify(first, second, epsilon, min_overlap)
        if relation is Relation.FOLLOW:
            assert follows(first, second, epsilon)
        elif relation is Relation.CONTAIN:
            assert contains(first, second, epsilon)
        elif relation is Relation.OVERLAP:
            assert overlaps(first, second, epsilon, min_overlap)
        else:
            assert not follows(first, second, epsilon)
            assert not contains(first, second, epsilon)
            assert not overlaps(first, second, epsilon, min_overlap)

    @given(instance_pairs())
    def test_classification_is_deterministic(self, pair):
        first, second = pair
        assert classify(first, second, 0.0, 1.0) is classify(first, second, 0.0, 1.0)


# --------------------------------------------------------------------------- patterns
class TestPatternProperties:
    @given(st.lists(st.sampled_from(list(Relation)), min_size=1, max_size=4))
    def test_extend_project_roundtrip(self, new_relations):
        """Extending by one event then dropping it returns the original pattern."""
        size = len(new_relations)
        events = tuple((f"S{i}", "On") for i in range(size))
        base_relations = tuple(
            Relation.FOLLOW for _ in relation_pairs(size)
        )
        base = TemporalPattern(events=events, relations=base_relations)
        extended = base.extend(("NEW", "On"), tuple(new_relations))
        assert extended.project(tuple(range(size))) == base
        assert extended.size == size + 1

    @given(st.integers(2, 6))
    def test_relation_pairs_count(self, size):
        assert len(relation_pairs(size)) == size * (size - 1) // 2


# --------------------------------------------------------------------------- information theory
class TestInformationProperties:
    @given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6))
    def test_entropy_bounds(self, weights):
        total = sum(weights)
        distribution = {f"s{i}": w / total for i, w in enumerate(weights)}
        h = entropy(distribution)
        assert 0.0 <= h <= len(weights).bit_length() + 1
        # Entropy is maximised by the uniform distribution of the same arity.
        uniform = {f"s{i}": 1 / len(weights) for i in range(len(weights))}
        assert h <= entropy(uniform) + 1e-9

    @settings(max_examples=200, deadline=None)
    @given(aligned_symbolic_databases())
    def test_nmi_matrix_equals_the_per_pair_function(self, db):
        """Both directions of one joint count (the second read transposed)
        and the zero-entropy branch give the per-pair value exactly."""
        matrix = nmi_matrix(db)
        names = db.names
        assert set(matrix) == {(x, y) for x in names for y in names if x != y}
        for (name_x, name_y), value in matrix.items():
            assert value == normalized_mutual_information(db, name_x, name_y)
        for pair, value in pairwise_nmi(db).items():
            name_x, name_y = sorted(pair)
            assert value == min(matrix[(name_x, name_y)], matrix[(name_y, name_x)])


# --------------------------------------------------------------------------- mining invariants
class TestMiningProperties:
    @RELAXED
    @given(small_databases())
    def test_support_and_confidence_anti_monotone(self, database):
        """Lemmas 2 and 6 on random databases."""
        result = HTPGM(MINING_CONFIG).mine(database)
        index = {m.pattern: m for m in result.patterns}
        for mined in result.patterns:
            if mined.size < 3:
                continue
            for sub in mined.pattern.sub_patterns(mined.size - 1):
                assert sub in index
                assert index[sub].support >= mined.support
                assert index[sub].confidence >= mined.confidence - 1e-12

    @RELAXED
    @given(small_databases())
    def test_measures_within_bounds(self, database):
        result = HTPGM(MINING_CONFIG).mine(database)
        min_count = MINING_CONFIG.support_count(len(database))
        for mined in result.patterns:
            assert mined.support >= min_count
            assert 0.0 <= mined.relative_support <= 1.0
            assert MINING_CONFIG.min_confidence <= mined.confidence <= 1.0

    @RELAXED
    @given(small_databases())
    def test_confidence_is_the_exact_unclamped_ratio(self, database):
        """Pattern support never exceeds max event support by construction, so
        confidence = support / max_event_support lies in (0, 1] without any
        clamp (the dead ``min(confidence, 1.0)`` was removed)."""
        miner = HTPGM(MINING_CONFIG)
        result = miner.mine(database)
        graph = miner.graph_
        for mined in result.patterns:
            max_event_support = max(
                graph.event_support(event) for event in mined.pattern.events
            )
            assert 0 < mined.support <= max_event_support
            assert mined.confidence == mined.support / max_event_support
            assert 0.0 < mined.confidence <= 1.0

    @RELAXED
    @given(small_databases())
    def test_pruning_modes_agree(self, database):
        reference = HTPGM(MINING_CONFIG).mine(database).pattern_set()
        for mode in (PruningMode.NONE, PruningMode.APRIORI, PruningMode.TRANSITIVITY):
            assert HTPGM(MINING_CONFIG.with_pruning(mode)).mine(database).pattern_set() == reference

    @RELAXED
    @given(small_databases())
    def test_baselines_agree_with_exact_miner(self, database):
        reference = HTPGM(MINING_CONFIG).mine(database).pattern_set()
        assert HDFSMiner(MINING_CONFIG).mine(database).pattern_set() == reference
        assert TPMiner(MINING_CONFIG).mine(database).pattern_set() == reference

    @RELAXED
    @given(
        append_splits(),
        st.sampled_from(list(PruningMode)),
        st.sampled_from([0.3, 0.5]),
        st.sampled_from([0.3, 0.5, 0.6]),
    )
    def test_append_equals_the_scratch_mine(self, split, pruning, support, confidence):
        """mine(D); append(ΔD) ≡ mine(D ∪ ΔD): the result and the store,
        with the append's counters equal on the scalar and vectorized paths."""
        base, delta = split
        config = MINING_CONFIG.with_thresholds(
            min_support=support, min_confidence=confidence
        ).with_pruning(pruning)
        scratch = MiningSession(config)
        full = SequenceDatabase(base.sequences + delta)
        expected = [(m.pattern, m.support, m.confidence) for m in scratch.mine(full)]
        counters = []
        for evaluation in (nullcontext(), reference_evaluation()):
            session = MiningSession(config)
            with evaluation:
                session.mine(base)
                result = session.append(delta)
            assert [(m.pattern, m.support, m.confidence) for m in result] == expected
            assert store_snapshot(session.graph) == store_snapshot(scratch.graph)
            counters.append(work_counters(session.statistics))
        assert counters[0] == counters[1]

    @RELAXED
    @given(
        append_chains(),
        st.sampled_from(list(PruningMode)),
        st.sampled_from([0.3, 0.5]),
        st.sampled_from([0.3, 0.5, 0.6]),
    )
    def test_saved_appends_equal_the_scratch_mine(
        self, chain, pruning, support, confidence
    ):
        """mine(D); save; load; append(ΔD1); save; load; append(ΔD2); save;
        load: after every step the result and the store equal the scratch
        mine of every sequence so far."""
        base, deltas = chain
        config = MINING_CONFIG.with_thresholds(
            min_support=support, min_confidence=confidence
        ).with_pruning(pruning)
        sequences = list(base.sequences)

        def assert_scratch(session):
            scratch = MiningSession(config)
            expected = scratch.mine(SequenceDatabase(sequences))
            assert mined_tuples(session.result()) == mined_tuples(expected)
            assert store_snapshot(session.graph) == store_snapshot(scratch.graph)

        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "state.bin"
            session = MiningSession(config)
            session.mine(base)
            assert_scratch(session)
            for delta in deltas:
                session = read_session(write_session(session, path))
                assert_scratch(session)
                session.append(delta)
                sequences += delta
                assert_scratch(session)
            session = read_session(write_session(session, path))
            assert_scratch(session)

    @given(st.integers(1, 500), st.floats(0.01, 1.0))
    def test_confidence_floor_is_the_largest_failing_support(self, es, confidence):
        """The append's bound uses the largest support whose confidence
        over ``es`` fails the admission rule."""
        config = MINING_CONFIG.with_thresholds(min_confidence=confidence)
        failing = [s for s in range(es + 1) if not admits(s, es, 0, config)]
        assert _confidence_floor(es, config) == max(failing, default=-1)

    @RELAXED
    @given(small_databases(), st.floats(0.1, 0.9))
    def test_higher_support_threshold_mines_fewer_patterns(self, database, support):
        low = HTPGM(MINING_CONFIG.with_thresholds(min_support=min(0.3, support))).mine(database)
        high = HTPGM(MINING_CONFIG.with_thresholds(min_support=max(0.7, support))).mine(database)
        assert high.pattern_set() <= low.pattern_set()
