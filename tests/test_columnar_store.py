"""The columnar occurrence store: index matrices, gather parity, chunking
and the row bound of the vectorized pass.

The store's contract (see :class:`repro.core.hpg.PatternEntry`) is that the
CSR arrays — ascending sequence ids, row offsets and one int32 row block,
whose per-sequence index matrices are views — are a lossless re-encoding of
the historical instance-tuple lists: endpoint blocks gathered through the
flat :class:`~repro.core.hpg.InstanceTable` equal the old per-call list
comprehensions bit for bit, per-hit and batched inserts build the identical
arrays, and the lazy ``occurrences`` view materialises the exact tuples the
old store held.  Chunking and the pass's row bound are pure scheduling
choices and must never change a mined result.
"""

from __future__ import annotations

import os
import pickle
import random
from collections import Counter
from dataclasses import replace
from itertools import combinations
from typing import NamedTuple

import numpy as np
import pytest

import repro.core.engine as engine_module
import repro.core.hpg as hpg_module
from repro import (
    ConfigurationError,
    HTPGM,
    MiningConfig,
    MiningSession,
    ProcessPoolBackend,
    PruningMode,
    Relation,
    TemporalPattern,
)
from repro.core.engine import LevelContext, _anchor_chunks
from repro.core.hpg import EventNode, InstanceTable, PatternEntry
from repro.core.stats import MiningStatistics
from repro.core.bitmap import Bitmap
from repro.datasets import make_dataset
from repro.timeseries import EventInstance, SequenceDatabase, TemporalSequence

from test_engine_parity import (
    assert_parity,
    mined_tuples,
    random_database,
    store_snapshot,
)


def _pattern(size: int) -> TemporalPattern:
    events = tuple((f"S{i}", "On") for i in range(size))
    n_relations = size * (size - 1) // 2
    return TemporalPattern(events=events, relations=(Relation.FOLLOW,) * n_relations)


def _event_node(series: str, instances_by_sequence) -> EventNode:
    return EventNode(
        event=(series, "On"),
        bitmap=Bitmap.from_indices(
            max(instances_by_sequence) + 1, instances_by_sequence.keys()
        ),
        instances_by_sequence=instances_by_sequence,
    )


def _random_instances(rng: random.Random, series: str, count: int):
    """A chronologically sorted instance list (duplicates collapsed)."""
    instances = set()
    while len(instances) < count:
        start = round(rng.uniform(0.0, 500.0), 1)
        instances.add(
            EventInstance(start, start + round(rng.uniform(1.0, 30.0), 1), series, "On")
        )
    return sorted(instances)


def _positions(table: InstanceTable, events, sequence_id: int, matrix) -> np.ndarray:
    """Flat table positions of an index matrix's instances, the way the
    vectorized pass gathers them: ``offset[event, sequence] + list index``."""
    rows = [table.index[event] for event in events]
    return table.offset[rows, sequence_id] + matrix


class TestIndexStore:
    def test_per_hit_and_batched_inserts_build_the_identical_matrix(self):
        """The scalar path's per-hit rows and the vectorized pass's whole
        checked block (``from_arrays``) build the same three arrays."""
        rng = random.Random(3)
        pattern = _pattern(3)
        rows = [
            (sequence_id, tuple(rng.randrange(50) for _ in range(3)))
            for sequence_id in (2, 7, 9)
            for _ in range(rng.randint(1, 80))
        ]
        per_hit = PatternEntry(pattern=pattern)
        for sequence_id, row in rows:
            per_hit.add_index_row(sequence_id, row)
        block = hpg_module._checked_rows(np.asarray([row for _, row in rows]))
        counts = Counter(sequence_id for sequence_id, _ in rows)
        batched = PatternEntry.from_arrays(
            pattern,
            None,
            np.array([2, 7, 9], dtype=np.int32),
            np.cumsum([0, counts[2], counts[7], counts[9]]),
            block,
        )
        for name in ("sequences", "offsets", "rows"):
            built, expected = getattr(per_hit, name), getattr(batched, name)
            assert built.dtype == expected.dtype
            assert np.array_equal(built, expected)
        assert np.array_equal(per_hit.index_matrix(7), batched.index_matrix(7))
        assert per_hit == batched
        assert per_hit.n_occurrences == batched.n_occurrences == len(rows)

    def test_mixed_rows_and_blocks_consolidate_in_arrival_order(self):
        pattern = _pattern(2)
        block = np.asarray([(0, 1), (2, 3)], dtype=np.int32)
        entry = PatternEntry.from_arrays(
            pattern, None, np.array([0], dtype=np.int32), np.array([0, 2]), block
        )
        entry.add_index_row(0, (4, 5))
        entry.add_index_row(0, (6, 7))
        assert entry.index_matrix(0).tolist() == [[0, 1], [2, 3], [4, 5], [6, 7]]
        # Appending after consolidation reopens the build buffer.
        entry.add_index_row(0, (8, 9))
        assert entry.index_matrix(0).tolist()[-1] == [8, 9]
        assert entry.index_matrix(0).dtype == np.int32

    def test_rows_arriving_out_of_sequence_order_fold_in_stably(self):
        """The block is sorted by sequence; each sequence keeps its rows in
        arrival order."""
        entry = PatternEntry(pattern=_pattern(2))
        for sequence_id, row in ((5, (0, 0)), (1, (1, 1)), (5, (2, 2)), (1, (3, 3))):
            entry.add_index_row(sequence_id, row)
        assert entry.sequences.tolist() == [1, 5]
        assert entry.offsets.tolist() == [0, 2, 4]
        assert entry.rows.tolist() == [[1, 1], [3, 3], [0, 0], [2, 2]]

    def test_counts_read_the_pending_rows(self):
        """Support, row counts and sequence ids fold the pending rows into
        the block on the first read."""
        entry = PatternEntry(pattern=_pattern(2))
        entry.add_index_row(0, (0, 0))
        entry.add_index_row(0, (1, 0))
        entry.add_index_row(3, (0, 1))
        assert entry.support == 2 and entry.n_occurrences == 3
        assert entry.sequence_ids() == {0, 3}
        assert entry.sequences.tolist() == [0, 3]
        assert entry.offsets.tolist() == [0, 2, 3]
        assert entry.rows.tolist() == [[0, 0], [1, 0], [0, 1]]

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_matrices_are_ascending_views_of_the_one_block(self, vectorized):
        config = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
        session = MiningSession(config.with_vectorized(vectorized))
        session.mine(random_database(5, n_sequences=10, max_instances=12))
        checked = 0
        for _level, _node, entry in session.graph.iter_pattern_entries():
            sequence_ids = [sid for sid, _ in entry.iter_index_matrices()]
            assert sequence_ids == sorted(set(sequence_ids))
            assert sequence_ids == entry.sequences.tolist()
            for sequence_id, matrix in entry.iter_index_matrices():
                assert np.shares_memory(matrix, entry.rows)
                assert np.shares_memory(entry.index_matrix(sequence_id), entry.rows)
                assert len(matrix) > 0
                checked += 1
        assert checked > 0
        with pytest.raises(KeyError):
            entry.index_matrix(max(sequence_ids) + 1)

    def test_pickled_state_is_the_pattern_and_three_arrays(self):
        entry = PatternEntry(pattern=_pattern(2))
        entry.add_index_row(0, (0, 1))
        entry.add_index_row(4, (2, 3))
        state = entry.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2]
        assert set(state) == {"pattern", "sequences", "offsets", "rows"}
        assert state["sequences"].tolist() == [0, 4]
        assert state["offsets"].tolist() == [0, 1, 2]
        assert state["rows"].tolist() == [[0, 1], [2, 3]]

    def test_unbound_entry_raises_on_materialisation(self):
        entry = PatternEntry(pattern=_pattern(2))
        entry.add_index_row(0, (0, 0))
        assert not entry.is_bound
        with pytest.raises(ValueError, match="no bound instance sources"):
            entry.materialise(0)

    def test_pickle_ships_matrices_only_and_rebinds(self):
        rng = random.Random(11)
        instances_a = _random_instances(rng, "A", 20)
        instances_b = _random_instances(rng, "B", 20)
        node_a = _event_node("A", {0: instances_a})
        node_b = _event_node("B", {0: instances_b})
        level1 = {node_a.event: node_a, node_b.event: node_b}
        pattern = TemporalPattern(
            events=(node_a.event, node_b.event), relations=(Relation.FOLLOW,)
        )
        entry = PatternEntry(
            pattern=pattern,
            sources=(node_a.instances_by_sequence, node_b.instances_by_sequence),
        )
        for _ in range(30):
            entry.add_index_row(0, (rng.randrange(20), rng.randrange(20)))
        restored = pickle.loads(pickle.dumps(entry))
        assert not restored.is_bound  # sources are process-local
        assert np.array_equal(restored.index_matrix(0), entry.index_matrix(0))
        assert restored == entry
        restored.bind_sources(level1)
        assert restored.occurrences == entry.occurrences

    def test_gather_built_endpoint_blocks_match_list_comprehension_fuzz(self):
        """The core equivalence: gathers through the instance table == the
        legacy per-call list comprehension over instance objects, fuzzed over
        random stores."""
        rng = random.Random(29)
        for _ in range(25):
            k = rng.randint(2, 4)
            nodes = [
                _event_node(f"S{j}", {0: _random_instances(rng, f"S{j}", rng.randint(5, 40))})
                for j in range(k)
            ]
            pattern = TemporalPattern(
                events=tuple(node.event for node in nodes),
                relations=(Relation.FOLLOW,) * (k * (k - 1) // 2),
            )
            entry = PatternEntry(
                pattern=pattern,
                sources=tuple(node.instances_by_sequence for node in nodes),
            )
            for _ in range(rng.randint(1, 60)):
                entry.add_index_row(
                    0,
                    tuple(
                        rng.randrange(len(node.instances_by_sequence[0]))
                        for node in nodes
                    ),
                )
            matrix = entry.index_matrix(0)
            table = InstanceTable({node.event: node for node in nodes}, 1)
            positions = _positions(table, pattern.events, 0, matrix)
            gathered_starts = table.starts[positions]
            gathered_ends = table.ends[positions]
            occurrences = entry.materialise(0)
            legacy_starts = np.array(
                [[instance.start for instance in occ] for occ in occurrences],
                dtype=np.float64,
            )
            legacy_ends = np.array(
                [[instance.end for instance in occ] for occ in occurrences],
                dtype=np.float64,
            )
            assert np.array_equal(gathered_starts, legacy_starts)
            assert np.array_equal(gathered_ends, legacy_ends)

    def test_mined_store_blocks_match_legacy_construction(self):
        """Same equivalence over a store a real mine produced."""
        session = MiningSession(
            MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
        )
        session.mine(random_database(5, n_sequences=10, max_instances=12))
        graph = session.graph
        table = InstanceTable(graph.level1, graph.n_sequences)
        checked = 0
        for _level, _node, entry in graph.iter_pattern_entries():
            for sequence_id, matrix in entry.iter_index_matrices():
                gathered = table.starts[
                    _positions(table, entry.pattern.events, sequence_id, matrix)
                ]
                legacy = np.array(
                    [
                        [instance.start for instance in occurrence]
                        for occurrence in entry.materialise(sequence_id)
                    ],
                    dtype=np.float64,
                )
                assert np.array_equal(gathered, legacy)
                checked += 1
        assert checked > 0


class TestOverflowGuard:
    """Insertions past the int32 index ceiling must raise, never wrap.

    ``np.astype(int32)`` wraps silently, so without the guard an instance
    list longer than ``2**31 - 1`` would corrupt the store in place.  The
    boundary is exercised by shrinking the mocked ceiling — allocating real
    2-billion-row inputs is obviously off the table.
    """

    def test_error_is_exported_and_a_mining_error(self):
        from repro import MiningError, RepresentationOverflowError

        assert issubclass(RepresentationOverflowError, MiningError)

    def test_block_insert_past_the_ceiling_raises(self, monkeypatch):
        """The vectorized pass checks each survivor block before storing it."""
        from repro import RepresentationOverflowError

        monkeypatch.setattr(hpg_module, "_INDEX_MAX", 100)
        assert hpg_module._checked_rows(np.array([[0, 1], [2, 3]])).dtype == np.int32
        with pytest.raises(RepresentationOverflowError, match="does not fit"):
            hpg_module._checked_rows(np.array([[0, 101]], dtype=np.int64))

    def test_mining_past_the_ceiling_raises_on_both_paths(self, monkeypatch):
        """End to end: a store position past the ceiling fails the mine,
        scalar and vectorized alike, instead of wrapping."""
        from repro import RepresentationOverflowError

        monkeypatch.setattr(hpg_module, "_INDEX_MAX", 2)
        database = random_database(31, n_sequences=6, n_series=2, max_instances=40)
        config = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
        for vectorized in (True, False):
            with pytest.raises(RepresentationOverflowError, match="does not fit"):
                HTPGM(config.with_vectorized(vectorized)).mine(database)

    def test_scalar_rows_past_the_ceiling_raise_on_consolidation(self, monkeypatch):
        from repro import RepresentationOverflowError

        monkeypatch.setattr(hpg_module, "_INDEX_MAX", 100)
        entry = PatternEntry(pattern=_pattern(2))
        entry.add_index_row(0, (0, 101))
        with pytest.raises(RepresentationOverflowError, match="does not fit"):
            entry.index_matrix(0)

    def test_true_int32_boundary(self):
        from repro import RepresentationOverflowError

        limit = 2**31 - 1
        block = hpg_module._checked_rows(np.array([[0, limit]], dtype=np.int64))
        assert block.dtype == np.int32
        assert int(block[0, 1]) == limit
        with pytest.raises(RepresentationOverflowError):
            hpg_module._checked_rows(np.array([[0, limit + 1]], dtype=np.int64))

    def test_in_range_blocks_are_unaffected(self, monkeypatch):
        monkeypatch.setattr(hpg_module, "_INDEX_MAX", 100)
        entry = PatternEntry(pattern=_pattern(2))
        entry.add_index_row(0, (99, 100))
        entry.add_index_row(1, (7, 8))
        assert entry.index_matrix(0).tolist() == [[99, 100]]
        assert entry.index_matrix(1).tolist() == [[7, 8]]
        assert entry.index_matrix(0).dtype == np.int32


class TestKernelChunking:
    def test_anchor_chunks_cover_everything_in_order(self):
        lo = np.array([0, 0, 2, 5, 5], dtype=np.intp)
        hi = np.array([4, 3, 9, 5, 30], dtype=np.intp)
        for max_pairs in (1, 3, 7, 100, None):
            ranges = list(_anchor_chunks(lo, hi, max_pairs))
            assert ranges[0][0] == 0 and ranges[-1][1] == len(lo)
            for (_, stop), (next_start, _) in zip(ranges, ranges[1:]):
                assert stop == next_start
            if max_pairs is None:
                assert ranges == [(0, len(lo))]

    def test_anchor_chunks_respect_the_budget(self):
        lo = np.zeros(20, dtype=np.intp)
        hi = np.full(20, 10, dtype=np.intp)  # 10 pairs per anchor, 200 total
        ranges = list(_anchor_chunks(lo, hi, 25))
        assert all(stop - start <= 3 for start, stop in ranges)  # 2.5 anchors/chunk
        assert sum(stop - start for start, stop in ranges) == 20

    def test_single_oversized_anchor_still_progresses(self):
        lo = np.array([0], dtype=np.intp)
        hi = np.array([1000], dtype=np.intp)
        assert list(_anchor_chunks(lo, hi, 10)) == [(0, 1)]

    def test_empty_anchors(self):
        empty = np.empty(0, dtype=np.intp)
        assert list(_anchor_chunks(empty, empty, 10)) == []

    @pytest.mark.parametrize("tmax", [None, 60.0])
    def test_tiny_chunk_budget_changes_nothing(self, tmax):
        """A pathologically small mask budget forces many chunks in the
        vectorized pass at every level; results and counters must be
        untouched — including on the ``tmax=None`` dense workload the budget
        exists for."""
        database = random_database(31, n_sequences=6, n_series=2, max_instances=40)
        base = MiningConfig(
            min_support=0.3,
            min_confidence=0.3,
            min_overlap=1.0,
            tmax=tmax,
            max_pattern_size=3,
        )
        chunked = HTPGM(replace(base, kernel_chunk_bytes=64)).mine(database)
        unchunked = HTPGM(replace(base, kernel_chunk_bytes=None)).mine(database)
        assert mined_tuples(chunked) == mined_tuples(unchunked)
        assert (
            chunked.statistics.relation_checks == unchunked.statistics.relation_checks
        )
        assert (
            chunked.statistics.pruned_relation_checks
            == unchunked.statistics.pruned_relation_checks
        )

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MiningConfig(kernel_chunk_bytes=0)
        with pytest.raises(ConfigurationError):
            MiningConfig(kernel_chunk_bytes=-1)
        assert MiningConfig(kernel_chunk_bytes=None).kernel_chunk_bytes is None
        assert MiningConfig().kernel_chunk_bytes == 64 * 1024 * 1024


class Pass(NamedTuple):
    """One vectorized pass: its level, its queued parent rows and how many
    ``classify_pairs`` calls it made."""

    level: int
    rows: int
    kernel_calls: int


@pytest.fixture
def passes(monkeypatch):
    """Every pass of ``_ExtensionBatch._evaluate`` the engine runs, in order."""
    log: list[Pass] = []
    calls = [0]
    classify_pairs = engine_module.classify_pairs
    evaluate = engine_module._ExtensionBatch._evaluate

    def counting_classify_pairs(*args):
        calls[0] += 1
        return classify_pairs(*args)

    def logging_evaluate(batch):
        before = calls[0]
        evaluate(batch)
        log.append(Pass(batch.context.level, batch.rows, calls[0] - before))

    monkeypatch.setattr(engine_module, "classify_pairs", counting_classify_pairs)
    monkeypatch.setattr(engine_module._ExtensionBatch, "_evaluate", logging_evaluate)
    return log


class TestExtensionBatchBound:
    """Every level queues whole candidates and evaluates them in passes of
    ``_EXTENSION_BATCH_ROWS`` rows.  A bound of 1 evaluates every candidate
    alone, 10**9 the whole shard in one pass per level; both must build what
    the scalar reference builds — result, store and both check counters.
    ``max_pattern_size=2`` cases watch level 2 on its own."""

    @staticmethod
    def _assert_bound_parity(config, database, bound, monkeypatch, passes):
        monkeypatch.setattr(engine_module, "_EXTENSION_BATCH_ROWS", bound)
        batched = MiningSession(config)
        batched_result = batched.mine(database)
        per_level = Counter(step.level for step in passes)
        scalar = MiningSession(config.with_vectorized(False))
        scalar_result = scalar.mine(database)
        assert sum(per_level.values()) == len(passes), "the scalar run made a pass"
        # Mined tuples and every work counter, both check counters included.
        assert_parity(scalar_result, batched_result)
        assert store_snapshot(batched.graph) == store_snapshot(scalar.graph)
        # The bound really scheduled the passes: one pass per level when
        # unbounded (the default chunk budget keeps each pass one chunk),
        # one per candidate with rows when the bound is 1.
        assert 2 in per_level, "level 2 must run in passes"
        if config.max_pattern_size == 2:
            assert set(per_level) == {2}
        else:
            assert max(per_level) >= 3, "the database must reach level 3"
        if config.kernel_chunk_bytes is None or config.kernel_chunk_bytes > 1 << 20:
            assert all(step.kernel_calls <= 1 for step in passes)
            if bound == 1:
                assert len(passes) > len(per_level)
            else:
                assert set(per_level.values()) == {1}

    @pytest.mark.parametrize("max_size", [2, None])
    @pytest.mark.parametrize("bound", [1, 10**9])
    @pytest.mark.parametrize("pruning", list(PruningMode))
    @pytest.mark.parametrize("allow_self", [True, False])
    def test_every_pruning_mode(
        self, bound, pruning, allow_self, max_size, monkeypatch, passes
    ):
        config = MiningConfig(
            min_support=0.25,
            min_confidence=0.25,
            min_overlap=1.0,
            pruning=pruning,
            allow_self_relations=allow_self,
            max_pattern_size=max_size,
        )
        self._assert_bound_parity(
            config, random_database(19, n_sequences=8), bound, monkeypatch, passes
        )

    @pytest.mark.parametrize("bound", [1, 10**9])
    def test_epsilon_min_overlap_and_tmax(self, bound, monkeypatch, passes):
        config = MiningConfig(
            min_support=0.25,
            min_confidence=0.25,
            epsilon=1.0,
            min_overlap=2.0,
            tmax=45.0,
            max_pattern_size=4,
        )
        self._assert_bound_parity(
            config,
            random_database(1, n_sequences=12, max_instances=20),
            bound,
            monkeypatch,
            passes,
        )

    @pytest.mark.parametrize("max_size", [2, 4])
    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("tmax", [None, 4.0, 7.0])
    def test_tied_endpoints_and_tmax_boundaries(
        self, tmax, shifted, max_size, monkeypatch, passes
    ):
        """Integer endpoints in a narrow range tie starts, ends and whole
        intervals across events (point events included) and put many pairs
        exactly on tmax: the edges of the pass's successor and tmax windows.
        Shifted, the earliest instances start at ``-tmax``, so a window's
        ``first start + tmax`` is exactly 0.0."""
        rng = random.Random(5)
        shift = -(tmax or 4.0) if shifted else 0.0
        sequences = []
        for sequence_id in range(10):
            instances = set()
            for _ in range(14):
                start = float(rng.randrange(8)) + shift
                instances.add(
                    EventInstance(
                        start, start + rng.choice((0, 1, 2, 3)), f"S{rng.randrange(3)}", "On"
                    )
                )
            sequences.append(TemporalSequence(sequence_id, sorted(instances)))
        config = MiningConfig(
            min_support=0.3,
            min_confidence=0.3,
            epsilon=1.0,
            min_overlap=1.0,
            tmax=tmax,
            max_pattern_size=max_size,
        )
        self._assert_bound_parity(
            config, SequenceDatabase(sequences), 10**9, monkeypatch, passes
        )

    @pytest.mark.parametrize("max_size", [2, None])
    @pytest.mark.parametrize("bound", [1, 10**9])
    def test_tiny_kernel_chunks(self, bound, max_size, monkeypatch, passes):
        """A 64-byte chunk budget cuts every pass into one-row chunks."""
        config = MiningConfig(
            min_support=0.25,
            min_confidence=0.25,
            min_overlap=1.0,
            kernel_chunk_bytes=64,
            max_pattern_size=max_size,
        )
        self._assert_bound_parity(
            config, random_database(19, n_sequences=8), bound, monkeypatch, passes
        )

    def test_level_2_passes_run_inside_fork_workers(self, monkeypatch, tmp_path):
        """Fork pools start per batch, after the patch, so level-2 passes
        run (and are logged) in the workers — and the pooled result equals
        the scalar one."""
        log = tmp_path / "passes"
        evaluate = engine_module._ExtensionBatch._evaluate

        def logging_evaluate(batch):
            with log.open("a") as handle:
                handle.write(f"{os.getpid()} {batch.context.level}\n")
            evaluate(batch)

        monkeypatch.setattr(engine_module._ExtensionBatch, "_evaluate", logging_evaluate)
        config = MiningConfig(
            min_support=0.25, min_confidence=0.25, min_overlap=1.0, max_pattern_size=2
        )
        database = random_database(19, n_sequences=8)
        with ProcessPoolBackend(
            n_workers=2, min_candidates_per_worker=1, start_method="fork"
        ) as backend:
            pooled = HTPGM(config, backend=backend).mine(database)
        logged = [line.split() for line in log.read_text().splitlines()]
        assert {level for _, level in logged} == {"2"}
        assert {pid for pid, _ in logged} - {str(os.getpid())}
        assert_parity(HTPGM(config.with_vectorized(False)).mine(database), pooled)

    @pytest.mark.parametrize("with_parents", [False, True], ids=["no-parent", "lemma-5"])
    def test_candidates_that_queue_nothing_are_not_pending(self, with_parents):
        """A level-3 candidate that passes the Apriori checks but queues no
        decomposition — its parent nodes are absent, or Lemma 5 fails for
        each — can only finalise empty, so the batch keeps no node of it."""
        config = MiningConfig(min_support=0.25, min_confidence=0.25, min_overlap=1.0)
        session = MiningSession(replace(config, max_pattern_size=2))
        session.mine(random_database(19, n_sequences=8))
        graph = session.graph
        # Without pair patterns the Lemma 5 table is all False.
        context = LevelContext(
            level=3,
            config=config,
            min_count=1,
            level1=graph.level1,
            parents=dict(graph.levels[2]) if with_parents else {},
        )
        stats = MiningStatistics()
        batch = engine_module._ExtensionBatch(context, stats, [])
        for candidate in combinations(sorted(graph.level1), 3):
            batch.add(context, candidate, stats)
        survivors = (
            stats.candidates_generated[3]
            - stats.pruned_support.get(3, 0)
            - stats.pruned_confidence.get(3, 0)
        )
        assert survivors > 0
        assert bool(stats.pruned_relation_checks) == with_parents
        assert batch.queue == [] and batch.pending == []


class TestInstanceTable:
    def test_built_once_per_level(self, monkeypatch):
        """One table per level context, never one per shard or candidate:
        fork workers inherit the coordinator's."""
        built = []
        table = engine_module.InstanceTable
        monkeypatch.setattr(
            engine_module,
            "InstanceTable",
            lambda *args: (built.append(args[0].keys()), table(*args))[1],
        )
        config = MiningConfig(min_support=0.25, min_confidence=0.25, min_overlap=1.0)
        database = random_database(19, n_sequences=8)
        with ProcessPoolBackend(
            n_workers=2, min_candidates_per_worker=1, start_method="fork"
        ) as backend:
            result = HTPGM(config, backend=backend).mine(database)
        levels = [level for level in result.statistics.level_seconds if level >= 2]
        assert len(levels) >= 3
        assert len(built) == len(levels)


def _short_passes_per_level(passes) -> Counter:
    """Passes that hold fewer rows than the bound, per level: only a level's
    (or a shard's) last pass may, so the passes are not one per candidate."""
    bound = engine_module._EXTENSION_BATCH_ROWS
    return Counter(step.level for step in passes if step.rows < bound)


class TestLevelKBatching:
    """Guard against the level-k work drifting back to per-(entry, sequence)
    scalar calls: on a dataport stand-in every level-k classification goes
    through the batched pass, in at most one ``classify_pairs`` call per
    row-bounded pass."""

    def test_dataport_level_k_runs_in_row_bounded_passes(self, monkeypatch, passes):
        _, database = make_dataset(
            "dataport", scale=0.01, attribute_fraction=0.5, seed=103
        ).transform()
        config = MiningConfig(
            min_support=0.45, min_confidence=0.45, epsilon=0.0, min_overlap=1.0
        )
        scalar_calls = []
        extend = engine_module._extend_sequence_scalar
        monkeypatch.setattr(
            engine_module,
            "_extend_sequence_scalar",
            lambda *args: (scalar_calls.append(1), extend(*args))[1],
        )
        batched = HTPGM(config).mine(database)
        levelk = lambda counter: {k: v for k, v in counter.items() if k >= 3}
        levels = levelk(batched.statistics.relation_checks)
        assert len(levels) >= 3
        levelk_passes = [step for step in passes if step.level >= 3]
        assert levelk_passes and not scalar_calls
        assert sum(step.kernel_calls for step in levelk_passes) <= len(levelk_passes)
        assert set(_short_passes_per_level(levelk_passes).values()) <= {1}
        reference = HTPGM(config.with_vectorized(False)).mine(database)
        assert scalar_calls
        assert levels == levelk(reference.statistics.relation_checks)
        assert mined_tuples(batched) == mined_tuples(reference)


class TestLevel2Batching:
    """The level-2 twin of :class:`TestLevelKBatching`: on a smart-city
    stand-in with ``tmax``, ε and d_o set, vectorized level 2 never calls the
    scalar pair evaluation and runs in row-bounded passes that rebuild the
    scalar run's counters and store."""

    def test_smartcity_level_2_runs_in_row_bounded_passes(self, monkeypatch, passes):
        _, database = make_dataset(
            "smartcity", scale=0.03, attribute_fraction=0.5, seed=104
        ).transform()
        config = MiningConfig(
            min_support=0.4,
            min_confidence=0.4,
            epsilon=1.0,
            min_overlap=30.0,
            tmax=720.0,
            max_pattern_size=2,
        )
        pair_calls = []
        evaluate_pair = engine_module._evaluate_pair
        monkeypatch.setattr(
            engine_module,
            "_evaluate_pair",
            lambda *args: (pair_calls.append(1), evaluate_pair(*args))[1],
        )
        batched = MiningSession(config)
        batched_result = batched.mine(database)
        assert not pair_calls
        assert {step.level for step in passes} == {2} and len(passes) > 1
        assert set(_short_passes_per_level(passes).values()) <= {1}
        scalar = MiningSession(config.with_vectorized(False))
        scalar_result = scalar.mine(database)
        assert pair_calls
        checks = batched_result.statistics.relation_checks
        assert checks[2] == scalar_result.statistics.relation_checks[2] > 0
        assert store_snapshot(batched.graph) == store_snapshot(scalar.graph)
        assert mined_tuples(batched_result) == mined_tuples(scalar_result)
