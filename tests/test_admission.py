"""Candidate admission in chunks against the per-candidate reference.

``engine._ExtensionBatch.admit`` runs the Apriori checks (Lemmas 2–3) over
packed bitmap words, finds every (candidate, new event) decomposition's
parent with one ``_RowIndex`` search and tests Lemma 5 with one gather, a
chunk of candidates at a time.  ``reference_miner.admit`` does the same one
candidate at a time, on the sets of the events' level-1 instance-dict keys
(Def. 3.13) and dict lookups.  Both must keep the same nodes pending, with
the same queued decompositions, and bump the same counters.  Random level
contexts cover every pruning mode, self pairs, delta passes, absent
parents, the admission chunk's edges and the word edges of the bitmap
packing.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine
from repro import MiningConfig, PruningMode, Relation, TemporalPattern
from repro.core.engine import LevelContext, _RowIndex
from repro.core.hpg import CombinationNode, EventNode, PatternEntry
from repro.core.stats import MiningStatistics
from repro.timeseries import EventInstance

import reference_miner

#: The counters admission bumps.
COUNTERS = (
    "candidates_generated",
    "pruned_support",
    "pruned_confidence",
    "pruned_relation_checks",
)


def _level1(rng: random.Random, n_events: int, n_sequences: int):
    """Events occurring in random sequences, one instance in each."""
    level1 = {}
    for number in range(n_events):
        event = (f"S{number}", "On")
        density = rng.choice((0.1, 0.5, 0.9, 1.0))
        sequences = [s for s in range(n_sequences) if rng.random() < density]
        sequences = sequences or [rng.randrange(n_sequences)]
        instances = {
            s: [EventInstance(start=1.0, end=2.0, series=event[0], symbol="On")]
            for s in sequences
        }
        level1[event] = EventNode(event, instances)
    return level1


def _entry(rng: random.Random, pattern: TemporalPattern, n_sequences: int):
    """A stored entry over random sequences, one or two rows in each."""
    sequences = sorted(rng.sample(range(n_sequences), rng.randint(1, n_sequences)))
    ids = [sequence for sequence in sequences for _ in range(rng.randint(1, 2))]
    return PatternEntry(
        pattern,
        np.array(ids, dtype=np.int32),
        np.zeros((len(ids), len(pattern.events)), dtype=np.int32),
    )


def _parents(rng: random.Random, events, level: int, n_sequences: int):
    """Random ``(level - 1)``-nodes, some combinations absent."""
    parents = {}
    size = level - 1
    relations = size * (size - 1) // 2
    for key in combinations(sorted(events), size):
        if rng.random() < 0.3:
            continue
        patterns = [
            TemporalPattern(events=key, relations=(relation,) * relations)
            for relation in rng.sample(list(Relation), rng.randint(1, 3))
        ]
        entries = {p: _entry(rng, p, n_sequences) for p in patterns}
        parents[key] = CombinationNode(events=key, patterns=entries)
    return parents


def _pair_patterns(rng: random.Random, events):
    """Random frequent pairs (Lemma 5's ``has_pair``)."""
    return {
        (a, b): frozenset(
            {TemporalPattern(events=(a, b), relations=(Relation.FOLLOW,))}
        )
        for a, b in combinations(sorted(events), 2)
        if rng.random() < 0.7
    }


@st.composite
def admission_cases(draw):
    n_sequences = draw(st.sampled_from([1, 63, 64, 65, 129]))
    level = draw(st.integers(2, 4))
    n_events = draw(st.integers(level, 6))
    pruning = draw(st.sampled_from(list(PruningMode)))
    allow_self = draw(st.booleans())
    delta_start = draw(st.sampled_from([0, 0, n_sequences // 2, n_sequences - 1]))
    min_count = draw(st.integers(0, n_sequences))
    min_confidence = draw(st.sampled_from([0.1, 0.5, 0.75, 1.0]))
    chunk = draw(st.sampled_from([1, 10**9]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    level1 = _level1(rng, n_events, n_sequences)
    events = list(level1)
    if level == 2:
        order = rng.sample(events, len(events))
        candidates = list(combinations(order, 2))
        if allow_self:
            candidates += [(event, event) for event in order]
    else:
        candidates = list(combinations(sorted(events), level))
    candidates = [c for c in candidates if rng.random() < 0.8] or candidates[:1]
    config = MiningConfig(
        min_support=0.5,
        min_confidence=min_confidence,
        min_overlap=1.0,
        pruning=pruning,
        allow_self_relations=allow_self,
    )
    context = LevelContext(
        level=level,
        config=config,
        min_count=min_count,
        level1=level1,
        n_sequences=n_sequences,
        parents=_parents(rng, events, level, n_sequences) if level >= 3 else {},
        pair_patterns=_pair_patterns(rng, events) if level >= 3 else {},
        delta_start=delta_start,
    )
    return context, candidates, chunk


def chunked_admission(context, candidates, chunk):
    """The batch's pending nodes and queued decompositions after admitting
    ``candidates`` ``chunk`` at a time, with no pass run."""
    stats = MiningStatistics()
    batch = engine._ExtensionBatch(context, stats, [])
    with mock.patch.object(engine, "_ADMISSION_CHUNK", chunk), mock.patch.object(
        engine, "_EXTENSION_BATCH_ROWS", 10**18
    ):
        batch.admit(candidates)
    decompositions = [[] for _ in batch.pending]
    for segment in batch.queue:
        for node, parent, new in zip(*map(np.ndarray.tolist, segment[:3])):
            if context.level == 2:
                key = (batch.events[parent],)
            else:
                key = batch.parent_nodes[parent].events
            decompositions[node].append((batch.events[new], key))
    return list(zip(batch.pending, decompositions)), stats


@settings(max_examples=150, deadline=None)
@given(admission_cases())
def test_chunk_admission_equals_the_per_candidate_reference(case):
    context, candidates, chunk = case
    admitted, stats = chunked_admission(context, candidates, chunk)
    reference_stats = MiningStatistics()
    expected = reference_miner.admit(context, candidates, reference_stats)
    assert [node.events for node, _ in admitted] == [
        node.events for node, _ in expected
    ]
    assert [queued for _, queued in admitted] == [queued for _, queued in expected]
    for counter in COUNTERS:
        assert getattr(stats, counter) == getattr(reference_stats, counter), counter


def test_the_packed_words_hold_every_bitmap_bit():
    """Bit ``s`` of an event's packed row is set exactly when ``s`` is a key
    of its level-1 instance dict (Def. 3.13), across the 64-bit word edges;
    the padding past |DSEQ| stays clear."""
    rng = random.Random(3)
    for n_sequences in (1, 63, 64, 65, 129):
        level1 = _level1(rng, 4, n_sequences)
        table = LevelContext(
            level=2,
            config=MiningConfig(),
            min_count=1,
            level1=level1,
            n_sequences=n_sequences,
        ).instances
        assert table.bitmaps.shape == (4, (n_sequences + 63) // 64)
        for event, row in table.index.items():
            bits = np.unpackbits(table.bitmaps[row].view(np.uint8), bitorder="little")
            assert np.flatnonzero(bits).tolist() == sorted(
                level1[event].instances_by_sequence
            )


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4),
    st.sampled_from([2, 7, 2**21, 2**40, 2**62]),
    st.integers(0, 2**32 - 1),
)
def test_row_index_is_exact_for_any_value_count(width, n_values, seed):
    """The parent lookup matches whole rows, also when ``n_values ** width``
    is far past ``2**63`` (the fold then takes a step per column)."""
    rng = random.Random(seed)
    draw = lambda: tuple(rng.randrange(n_values) for _ in range(width))
    indexed = list(dict.fromkeys(draw() for _ in range(rng.randint(0, 40))))
    queries = [rng.choice(indexed) for _ in range(20) if indexed]
    queries += [draw() for _ in range(20)]
    # Rows sharing a prefix with an indexed row, but not the row itself.
    queries += [row[:-1] + ((row[-1] + 1) % n_values,) for row in indexed]
    as_array = lambda rows: np.array(rows, dtype=np.int64).reshape(len(rows), width)
    found = _RowIndex(as_array(indexed), n_values).find(as_array(queries))
    position = {row: i for i, row in enumerate(indexed)}
    assert found.tolist() == [position.get(row, -1) for row in queries]


def test_row_index_folds_a_wide_level_without_overflow():
    """130 events at level 10: ``130 ** 9 > 2**63``, so one key per row
    would wrap; the fold finds every parent exactly."""
    rng = random.Random(11)
    rows = {tuple(sorted(rng.sample(range(130), 9))) for _ in range(300)}
    indexed = sorted(rows)
    index = _RowIndex(np.array(indexed), 130)
    assert 130**9 >= 1 << 63 and len(index.steps) > 1
    queries = indexed + [tuple(range(9)), tuple(range(121, 130))]
    expected = list(range(len(indexed))) + [
        indexed.index(q) if q in rows else -1 for q in queries[-2:]
    ]
    assert index.find(np.array(queries)).tolist() == expected


def test_level_2_self_pairs_queue_one_orientation():
    """Exhaustive over a small context: every pair and self pair."""
    rng = random.Random(5)
    level1 = _level1(rng, 4, 65)
    events = list(level1)
    candidates = [pair for pair in product(events, repeat=2)]
    config = MiningConfig(min_support=0.1, min_confidence=0.1, min_overlap=1.0)
    context = LevelContext(
        level=2, config=config, min_count=1, level1=level1, n_sequences=65
    )
    admitted, stats = chunked_admission(context, candidates, 3)
    reference_stats = MiningStatistics()
    expected = reference_miner.admit(context, candidates, reference_stats)
    assert [(n.events, q) for n, q in admitted] == [(n.events, q) for n, q in expected]
    assert all(len(q) == 1 for n, q in admitted if len(set(n.events)) == 1)
    assert stats.candidates_generated == reference_stats.candidates_generated
