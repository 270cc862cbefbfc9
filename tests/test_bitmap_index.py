"""The bitmap index (Sec. IV-C): the instance table's packed words.

Each frequent event's row of ``InstanceTable.bitmaps`` holds one bit per
sequence of DSEQ, set when the event occurs there, i.e. when the sequence is
a key of the event's level-1 instance dict (Def. 3.13).  The Apriori checks
(Lemmas 2–3, :func:`repro.core.engine.apriori`) AND the rows of a
candidate's events and count the bits, a chunk of candidates at a time;
``LevelContext.event_support`` reads an event's support off the table.
These tests hold the words, the joint supports and the prune masks to the
set algebra of the instance-dict keys, across the 64-bit word edges.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine
from repro import MiningConfig, MiningSession, PruningMode
from repro.core.engine import LevelContext, apriori, candidate_chunks
from repro.core.hpg import EventNode
from repro.datasets import make_dataset
from repro.timeseries import EventInstance, SequenceDatabase

from test_session import random_database

CONFIG = MiningConfig(min_support=0.1, min_confidence=0.1, min_overlap=1.0)


def _level1(sequence_sets) -> dict:
    """``{(series, "On"): EventNode}`` with one instance in each listed
    sequence of each series, in the given order."""
    level1 = {}
    for series, sequences in sequence_sets.items():
        event = (series, "On")
        instance = EventInstance(start=1.0, end=2.0, series=series, symbol="On")
        level1[event] = EventNode(event, {s: [instance] for s in sequences})
    return level1


def _context(sequence_sets, n_sequences, config=CONFIG, min_count=1):
    return LevelContext(
        level=2,
        config=config,
        min_count=min_count,
        level1=_level1(sequence_sets),
        n_sequences=n_sequences,
    )


def _bits(table, series) -> list[int]:
    """Every set bit of an event's row, padding included."""
    words = table.bitmaps[table.index[(series, "On")]]
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return np.flatnonzero(bits).tolist()


def _rows(context, *candidates) -> np.ndarray:
    """The ``(n, k)`` table rows of candidates given as series names."""
    index = context.instances.index
    return np.array(
        [[index[(s, "On")] for s in candidate] for candidate in candidates]
    )


def _supports(context, *candidates) -> list[int]:
    support, _, _, _ = apriori(context, _rows(context, *candidates))
    return support.tolist()


class TestPacking:
    def test_each_row_holds_its_events_sequences(self):
        table = _context({"A": [0, 3, 9], "B": [1, 2]}, 10).instances
        assert _bits(table, "A") == [0, 3, 9]
        assert _bits(table, "B") == [1, 2]

    def test_rows_follow_event_key_order(self):
        table = _context({"Z": [0], "A": [1], "M": [2]}, 3).instances
        assert table.index == {("A", "On"): 0, ("M", "On"): 1, ("Z", "On"): 2}
        assert [_bits(table, s) for s in "AMZ"] == [[1], [2], [0]]

    def test_one_little_endian_word_per_64_sequences(self):
        for n_sequences in (1, 63, 64, 65, 128, 129):
            table = _context({"A": [n_sequences - 1]}, n_sequences).instances
            assert table.bitmaps.dtype == np.dtype("<u8")
            assert table.bitmaps.shape == (1, -(-n_sequences // 64))
            assert _bits(table, "A") == [n_sequences - 1]

    def test_padding_past_dseq_stays_clear(self):
        table = _context({"A": range(65)}, 65).instances
        assert table.bitmaps.tolist() == [[2**64 - 1, 1]]
        assert _bits(table, "A") == list(range(65))

    def test_bits_mark_occurrence_not_instance_count(self):
        instance = EventInstance(start=1.0, end=2.0, series="A", symbol="On")
        event = ("A", "On")
        level1 = {event: EventNode(event, {2: [instance] * 3, 5: [instance]})}
        context = LevelContext(
            level=2, config=CONFIG, min_count=1, level1=level1, n_sequences=6
        )
        table = context.instances
        assert table.count.tolist() == [[0, 0, 3, 0, 0, 1]]
        assert _bits(table, "A") == [2, 5]
        assert context.event_support(event) == 2

    def test_zero_sequences_pack_zero_words(self):
        context = _context({"A": []}, 0)
        assert context.instances.bitmaps.shape == (1, 0)
        assert _supports(context, "AA") == [0]
        assert context.event_support(("A", "On")) == 0


class TestApriori:
    def test_and_is_support_of_combination(self):
        # The paper's level-2 step: supp(Ei, Ej) = popcount(AND(b_i, b_j)),
        # here with shared bits in the first, second and third word.
        context = _context(
            {"A": [0, 1, 63, 64, 100, 129], "B": [1, 63, 65, 129]}, 130
        )
        assert _supports(context, "AB", "BA") == [3, 3]

    def test_k_way_and_matches_set_intersection(self):
        sets = {
            "A": set(range(0, 200, 2)),
            "B": set(range(0, 200, 3)),
            "C": set(range(0, 200, 5)),
            "D": {0, 30, 60, 64, 90, 199},
        }
        context = _context(sets, 200)
        assert _supports(context, "ABC", "BCD") == [
            len(sets["A"] & sets["B"] & sets["C"]),
            len(sets["B"] & sets["C"] & sets["D"]),
        ]
        assert _supports(context, "ABCD") == [len({0, 30, 60, 90})]

    def test_self_pair_support_is_the_event_support(self):
        context = _context({"A": [0, 64, 65], "B": [1]}, 66)
        support, max_support, _, _ = apriori(context, _rows(context, "AA"))
        assert support.tolist() == max_support.tolist() == [3]

    def test_max_support_is_the_largest_event_support(self):
        context = _context({"A": [0, 1, 2, 3], "B": [0, 1], "C": [3]}, 4)
        _, max_support, _, _ = apriori(context, _rows(context, "AB", "BC", "CB"))
        assert max_support.tolist() == [4, 2, 2]
        _, max_support, _, _ = apriori(context, _rows(context, "ABC"))
        assert max_support.tolist() == [4]

    def test_disjoint_events_have_zero_support(self):
        context = _context({"A": [0, 64], "B": [1, 65]}, 66)
        support, _, low, _ = apriori(context, _rows(context, "AB"))
        assert support.tolist() == [0]
        assert low.tolist() == [True]

    def test_lemma_2_prunes_below_min_count(self):
        context = _context(
            {"A": [0, 1, 2], "B": [0, 1], "C": [0, 1, 2]}, 3, min_count=3
        )
        support, _, low, weak = apriori(context, _rows(context, "AB", "AC"))
        assert support.tolist() == [2, 3]
        assert low.tolist() == [True, False]
        assert weak.tolist() == [False, False]

    def test_lemma_3_prunes_only_lemma_2_survivors(self):
        # (A, B): support 2 of A's 5, confidence 0.4; (A, C): support 1,
        # below min_count, so Lemma 2 prunes it first; (A, D): 3 of 5.
        config = MiningConfig(min_support=0.1, min_confidence=0.5, min_overlap=1.0)
        context = _context(
            {"A": range(5), "B": [0, 1], "C": [4, 5], "D": [0, 1, 2]},
            6,
            config=config,
            min_count=2,
        )
        support, max_support, low, weak = apriori(
            context, _rows(context, "AB", "AC", "AD")
        )
        assert support.tolist() == [2, 1, 3]
        assert max_support.tolist() == [5, 5, 5]
        assert low.tolist() == [False, True, False]
        assert weak.tolist() == [True, False, False]

    @pytest.mark.parametrize("mode", [PruningMode.NONE, PruningMode.TRANSITIVITY])
    def test_without_apriori_pruning_no_candidate_is_pruned(self, mode):
        config = MiningConfig(
            min_support=0.1, min_confidence=0.9, min_overlap=1.0, pruning=mode
        )
        context = _context({"A": [0, 1, 2], "B": [3]}, 4, config=config, min_count=3)
        support, _, low, weak = apriori(context, _rows(context, "AB", "AA"))
        assert support.tolist() == [0, 3]
        assert not low.any() and not weak.any()

    def test_apriori_leaves_the_table_words_untouched(self):
        context = _context({"A": [0, 64], "B": [64, 65], "C": [0, 1, 65]}, 66)
        before = context.instances.bitmaps.copy()
        apriori(context, _rows(context, "AB", "BC", "AC", "CA"))
        apriori(context, _rows(context, "ABC"))
        assert np.array_equal(context.instances.bitmaps, before)


class TestEventSupport:
    def test_event_support_is_the_number_of_sequences(self):
        sets = {"A": [0, 5, 64, 70], "B": [3], "C": range(71)}
        context = _context(sets, 71)
        words = context.instances.bitmaps
        for series, sequences in sets.items():
            event = (series, "On")
            row = context.instances.index[event]
            assert context.event_support(event) == len(sequences)
            assert context.event_support(event) == context.level1[event].support
            assert int(np.bitwise_count(words[row]).sum()) == len(sequences)

    def test_absent_event_has_no_support(self):
        context = _context({"A": [0]}, 1)
        assert context.event_support(("B", "On")) == 0

    def test_event_support_reads_the_table_not_the_lists(self):
        context = _context({"A": [0, 2], "B": [1]}, 3)
        for node in context.level1.values():
            node.instances_by_sequence.clear()
        assert context.event_support(("A", "On")) == 2
        assert context.event_support(("B", "On")) == 1


def test_candidate_chunks_map_candidates_to_table_rows_in_order(monkeypatch):
    monkeypatch.setattr(engine, "_ADMISSION_CHUNK", 2)
    context = _context({"A": [0], "B": [0], "C": [0]}, 1)
    names = ["AB", "CA", "BB", "BC", "AC"]
    candidates = [tuple((s, "On") for s in name) for name in names]
    chunks = list(candidate_chunks(context.instances, candidates))
    assert [first for first, _ in chunks] == [0, 2, 4]
    assert [rows.shape for _, rows in chunks] == [(2, 2), (2, 2), (1, 2)]
    rows = np.concatenate([rows for _, rows in chunks])
    assert rows.tolist() == _rows(context, *names).tolist()


# --------------------------------------------------------------------------- properties
@st.composite
def sequence_sets(draw, min_events=2, max_events=4):
    """|DSEQ| across the word edges, and each event's set of sequences."""
    n_sequences = draw(st.integers(min_value=1, max_value=200))
    n_events = draw(st.integers(min_value=min_events, max_value=max_events))
    ids = st.integers(min_value=0, max_value=n_sequences - 1)
    sets = {
        f"S{number}": draw(st.sets(ids, max_size=n_sequences))
        for number in range(n_events)
    }
    return n_sequences, sets


class TestBitmapIndexProperties:
    @settings(max_examples=100, deadline=None)
    @given(sequence_sets(min_events=1))
    def test_packed_words_match_the_sequence_sets(self, data):
        n_sequences, sets = data
        table = _context(sets, n_sequences).instances
        assert table.bitmaps.shape == (len(sets), -(-n_sequences // 64))
        for series, sequences in sets.items():
            assert _bits(table, series) == sorted(sequences)

    @settings(max_examples=100, deadline=None)
    @given(sequence_sets())
    def test_joint_support_matches_set_intersection(self, data):
        n_sequences, sets = data
        context = _context(sets, n_sequences)
        names = list(sets)
        for k in range(2, len(names) + 1):
            assert _supports(context, names[:k]) == [
                len(set.intersection(*(sets[s] for s in names[:k])))
            ]

    @settings(max_examples=100, deadline=None)
    @given(sequence_sets(max_events=2))
    def test_joint_support_never_exceeds_an_operand(self, data):
        n_sequences, sets = data
        context = _context(sets, n_sequences)
        support, max_support, _, _ = apriori(context, _rows(context, ["S0", "S1"]))
        assert support[0] <= min(len(sets["S0"]), len(sets["S1"]))
        assert max_support[0] == max(len(sets["S0"]), len(sets["S1"]))

    @settings(max_examples=100, deadline=None)
    @given(sequence_sets(max_events=2))
    def test_subset_relation_consistent(self, data):
        n_sequences, sets = data
        context = _context(sets, n_sequences)
        [joint] = _supports(context, ["S0", "S1"])
        assert (joint == len(sets["S0"])) == (sets["S0"] <= sets["S1"])


# --------------------------------------------------------------------------- the miner
class TestArrayAdmission:
    """Guard against candidate admission drifting back to one candidate at
    a time: on a dataport stand-in, every Apriori call of the pass takes a
    full admission chunk but the last of its level, and together they take
    each generated candidate once."""

    def test_dataport_admits_a_chunk_per_apriori_call(self, monkeypatch):
        _, database = make_dataset(
            "dataport", scale=0.01, attribute_fraction=0.5, seed=103
        ).transform()
        config = MiningConfig(
            min_support=0.45, min_confidence=0.45, epsilon=0.0, min_overlap=1.0
        )
        chunk = 16
        monkeypatch.setattr(engine, "_ADMISSION_CHUNK", chunk)
        calls: list[tuple[int, int]] = []

        def counting(context, rows):
            calls.append((context.level, len(rows)))
            return apriori(context, rows)

        monkeypatch.setattr(engine, "apriori", counting)
        result = MiningSession(config).mine(database)
        generated = result.statistics.candidates_generated
        assert generated.get(3, 0) > chunk
        for level, n_candidates in generated.items():
            sizes = [size for at, size in calls if at == level]
            full, last = divmod(n_candidates, chunk)
            assert sizes == [chunk] * full + ([last] if last else []), level
        assert {level for level, _ in calls} == set(generated)


def test_appended_events_index_every_sequence():
    """After an append, the level-1 keys — and so the packed words of every
    table built from them — are a scratch mine's over the whole database."""
    database = random_database(11, n_sequences=70)
    config = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
    session = MiningSession(config)
    session.mine(SequenceDatabase(database.sequences[:60]))
    session.append(database.sequences[60:])
    scratch = MiningSession(config)
    scratch.mine(database)
    keys = {e: set(n.instances_by_sequence) for e, n in session.events.items()}
    assert keys == {e: set(n.instances_by_sequence) for e, n in scratch.events.items()}
    graph = session.graph
    context = LevelContext(
        level=2,
        config=config,
        min_count=1,
        level1=graph.level1,
        n_sequences=graph.n_sequences,
    )
    table = context.instances
    assert table.bitmaps.shape == (len(graph.level1), 2)
    for event, node in graph.level1.items():
        words = table.bitmaps[table.index[event]]
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        assert np.flatnonzero(bits).tolist() == sorted(node.instances_by_sequence)
        assert context.event_support(event) == graph.event_support(event)
