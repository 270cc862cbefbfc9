"""Cross-engine parity: every backend must mine the identical pattern set.

The execution layer's contract (see :mod:`repro.core.engine`) is that backends
are semantically transparent — sharding candidate evaluation across processes
may change *when* work happens but never *what* is mined.  These tests enforce
the contract with seeded-random databases swept across every
:class:`PruningMode` and both ``allow_self_relations`` settings, comparing the
full mined output (events, relations, support, confidence — in order) and the
work-counter totals between :class:`SerialBackend` and
:class:`ProcessPoolBackend`.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    AHTPGM,
    HTPGM,
    ConfigurationError,
    MiningConfig,
    ProcessPoolBackend,
    PruningMode,
    SerialBackend,
)
from repro.core.correlation import pairwise_nmi
from repro.core.engine import (
    _split_cost_balanced,
    _split_contiguous_indices,
    available_workers,
    backend_from_config,
)
from repro.timeseries import EventInstance, SequenceDatabase, TemporalSequence

#: Counter dicts that must agree exactly between engines (same work performed).
_COUNTER_NAMES = (
    "candidates_generated",
    "pruned_support",
    "pruned_confidence",
    "pruned_transitivity_events",
    "pruned_relation_checks",
    "relation_checks",
    "patterns_found",
)


def random_database(
    seed: int,
    n_sequences: int = 10,
    n_series: int = 4,
    symbols: tuple[str, ...] = ("On", "Off"),
    max_instances: int = 9,
) -> SequenceDatabase:
    """A reproducible random temporal sequence database."""
    rng = random.Random(seed)
    sequences = []
    for sequence_id in range(n_sequences):
        instances = []
        for _ in range(rng.randint(3, max_instances)):
            start = round(rng.uniform(0.0, 80.0), 1)
            duration = round(rng.uniform(1.0, 25.0), 1)
            instances.append(
                EventInstance(
                    start=start,
                    end=start + duration,
                    series=f"S{rng.randrange(n_series)}",
                    symbol=rng.choice(symbols),
                )
            )
        sequences.append(TemporalSequence(sequence_id, instances))
    return SequenceDatabase(sequences)


def mined_tuples(result):
    """The full observable mining output, in result order."""
    return [
        (
            mined.pattern.events,
            mined.pattern.relations,
            mined.support,
            mined.confidence,
        )
        for mined in result
    ]


def assert_parity(serial_result, parallel_result):
    """Patterns and work counters must match between the two engines."""
    assert mined_tuples(serial_result) == mined_tuples(parallel_result)
    serial_stats = serial_result.statistics
    parallel_stats = parallel_result.statistics
    for name in _COUNTER_NAMES:
        assert getattr(serial_stats, name) == getattr(parallel_stats, name), name


@pytest.fixture(scope="module")
def process_backend():
    """One worker pool shared by the whole module (pool startup is the slow part).

    ``min_candidates_per_worker=1`` forces real sharding even on the small
    parity databases, so the tests exercise the merge path rather than the
    small-batch serial fallback.
    """
    with ProcessPoolBackend(n_workers=2, min_candidates_per_worker=1) as backend:
        yield backend


@pytest.fixture(scope="module")
def spawn_backend():
    """The other executor: a persistent spawn pool, whose workers receive the
    level context pickled with every shard instead of inheriting it through
    fork copy-on-write."""
    with ProcessPoolBackend(
        n_workers=2, min_candidates_per_worker=1, start_method="spawn"
    ) as backend:
        yield backend


class TestRandomDatabaseParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_default_config(self, seed, process_backend):
        database = random_database(seed)
        config = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
        serial = HTPGM(config, backend=SerialBackend()).mine(database)
        parallel = HTPGM(config, backend=process_backend).mine(database)
        assert serial.engine == "serial"
        assert parallel.engine == "process"
        assert_parity(serial, parallel)

    @pytest.mark.parametrize("pruning", list(PruningMode))
    @pytest.mark.parametrize("allow_self", [True, False])
    def test_all_pruning_modes_and_self_relations(
        self, pruning, allow_self, process_backend
    ):
        database = random_database(seed=7, n_sequences=8)
        config = MiningConfig(
            min_support=0.25,
            min_confidence=0.25,
            min_overlap=1.0,
            pruning=pruning,
            allow_self_relations=allow_self,
        )
        serial = HTPGM(config, backend=SerialBackend()).mine(database)
        parallel = HTPGM(config, backend=process_backend).mine(database)
        assert_parity(serial, parallel)

    def test_tmax_and_max_pattern_size(self, process_backend):
        database = random_database(seed=11, n_sequences=12, max_instances=7)
        config = MiningConfig(
            min_support=0.25,
            min_confidence=0.25,
            min_overlap=1.0,
            tmax=60.0,
            max_pattern_size=3,
        )
        serial = HTPGM(config, backend=SerialBackend()).mine(database)
        parallel = HTPGM(config, backend=process_backend).mine(database)
        assert_parity(serial, parallel)


class TestPaperExampleParity:
    def test_paper_database(self, paper_sequence_db, default_config, process_backend):
        serial = HTPGM(default_config, backend=SerialBackend()).mine(paper_sequence_db)
        parallel = HTPGM(default_config, backend=process_backend).mine(paper_sequence_db)
        assert_parity(serial, parallel)


class TestSpawnPoolParity(TestRandomDatabaseParity, TestPaperExampleParity):
    """Every sweep above, rerun on the persistent spawn pool: the executor
    used where fork is unavailable or a non-fork start method is asked for."""

    @pytest.fixture
    def process_backend(self, spawn_backend):
        return spawn_backend


class TestVectorizedScalarParity:
    """The relation kernel is a pure performance switch: scalar and vectorized
    runs must agree on the full mined output *and* on every work counter —
    including ``relation_checks``, whose scalar early-exit semantics the
    kernel reconstructs from the first failing position of each batch row."""

    def test_vectorized_is_the_default(self):
        assert MiningConfig().vectorized is True
        assert MiningConfig().with_vectorized(False).vectorized is False

    @pytest.mark.parametrize("pruning", list(PruningMode))
    @pytest.mark.parametrize("allow_self", [True, False])
    def test_all_pruning_modes_and_self_relations(self, pruning, allow_self):
        database = random_database(seed=19, n_sequences=8)
        config = MiningConfig(
            min_support=0.25,
            min_confidence=0.25,
            min_overlap=1.0,
            pruning=pruning,
            allow_self_relations=allow_self,
        )
        vectorized = HTPGM(config).mine(database)
        scalar = HTPGM(config.with_vectorized(False)).mine(database)
        assert_parity(scalar, vectorized)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_epsilon_min_overlap_and_tmax(self, seed):
        """The boundary-sensitive parameters all active at once."""
        database = random_database(seed, n_sequences=12)
        config = MiningConfig(
            min_support=0.25,
            min_confidence=0.25,
            epsilon=1.0,
            min_overlap=2.0,
            tmax=45.0,
            max_pattern_size=4,
        )
        vectorized = HTPGM(config).mine(database)
        scalar = HTPGM(config.with_vectorized(False)).mine(database)
        assert_parity(scalar, vectorized)

    def test_dense_batches_cross_the_kernel_threshold(self):
        """A dense database whose sequence batches actually hit the kernel
        (the small parity databases may stay under the hybrid-dispatch
        threshold and run scalar either way)."""
        database = random_database(seed=31, n_sequences=6, n_series=2, max_instances=80)
        config = MiningConfig(
            min_support=0.3, min_confidence=0.3, min_overlap=1.0, tmax=50.0
        )
        vectorized = HTPGM(config).mine(database)
        scalar = HTPGM(config.with_vectorized(False)).mine(database)
        assert_parity(scalar, vectorized)
        # Sanity: the workload is dense enough that the kernel routing fired.
        from repro.core.engine import _KERNEL_MIN_PAIRS

        pair_sizes = [
            len(sequence.instances_of(event_a)) * len(sequence.instances_of(event_b))
            for sequence in database
            for event_a in sequence.event_keys()
            for event_b in sequence.event_keys()
            if event_a < event_b
        ]
        assert max(pair_sizes) >= _KERNEL_MIN_PAIRS

    def test_vectorized_process_engine_matches_scalar_serial(self, process_backend):
        database = random_database(seed=37, n_sequences=10)
        config = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
        scalar_serial = HTPGM(
            config.with_vectorized(False), backend=SerialBackend()
        ).mine(database)
        vectorized_parallel = HTPGM(config, backend=process_backend).mine(database)
        assert_parity(scalar_serial, vectorized_parallel)

    def test_vectorized_append_matches_scalar_scratch(self):
        """Incremental append through the kernel path == scalar from-scratch."""
        from repro import MiningSession

        database = random_database(seed=41, n_sequences=14, max_instances=14)
        base = SequenceDatabase(database.sequences[:10])
        delta = [
            TemporalSequence(index, list(sequence.instances))
            for index, sequence in enumerate(database.sequences[10:])
        ]
        config = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
        session = MiningSession(config)
        session.mine(base)
        appended = session.append(delta)
        scratch = HTPGM(config.with_vectorized(False)).mine(database)
        assert mined_tuples(appended) == mined_tuples(scratch)


def store_snapshot(graph):
    """The full columnar occurrence store, in iteration (= insertion) order.

    Summarised entries contribute their counts, columnar ones the per-sequence
    index matrices — comparing snapshots therefore asserts byte-identical
    evidence, not just byte-identical results."""
    snapshot = []
    for level, node, entry in graph.iter_pattern_entries():
        if entry.is_summary:
            evidence = ("summary", tuple(entry.occurrence_counts.items()))
        else:
            evidence = (
                "index",
                tuple(
                    (sequence_id, matrix.tolist())
                    for sequence_id, matrix in entry.iter_index_matrices()
                ),
            )
        snapshot.append((level, node.events, entry.pattern, evidence))
    return snapshot


class TestColumnarStoreParity:
    """The occurrence store itself — not just the mined result — is identical
    no matter which path built it: scalar or kernel, serial or process, full
    mine or incremental append."""

    CONFIG = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)

    def _session_store(self, database, config, backend=None):
        from repro import MiningSession

        session = MiningSession(config)
        session.mine(database, backend=backend)
        return session

    def test_scalar_and_vectorized_build_the_identical_store(self):
        database = random_database(seed=23, n_sequences=10, max_instances=14)
        vectorized = self._session_store(database, self.CONFIG)
        scalar = self._session_store(database, self.CONFIG.with_vectorized(False))
        assert store_snapshot(vectorized.graph) == store_snapshot(scalar.graph)

    def _assert_pool_builds_the_serial_store(self, backend):
        database = random_database(seed=23, n_sequences=10, max_instances=14)
        serial = self._session_store(database, self.CONFIG)
        parallel = self._session_store(database, self.CONFIG, backend=backend)
        assert store_snapshot(serial.graph) == store_snapshot(parallel.graph)
        for (_, _, serial_entry), (_, _, parallel_entry) in zip(
            serial.graph.iter_pattern_entries(),
            parallel.graph.iter_pattern_entries(),
        ):
            assert serial_entry.occurrences == parallel_entry.occurrences

    def test_process_engine_builds_the_identical_store(self, process_backend):
        """Retaining sessions disable worker-side summaries, so the process
        engine must ship back the exact index matrices serial builds — and
        the coordinator must rebind them so the tuple views materialise."""
        self._assert_pool_builds_the_serial_store(process_backend)

    def test_spawn_pool_builds_the_identical_store(self, spawn_backend):
        """The same through the spawn pool, whose workers rebuild their
        columnar caches from the pickled context on every shard."""
        self._assert_pool_builds_the_serial_store(spawn_backend)

    @pytest.mark.parametrize("engine", ["serial", "process", "spawn"])
    def test_append_builds_the_scratch_store(self, engine, request):
        database = random_database(seed=41, n_sequences=14, max_instances=14)
        base = SequenceDatabase(database.sequences[:10])
        delta = [
            TemporalSequence(index, list(sequence.instances))
            for index, sequence in enumerate(database.sequences[10:])
        ]
        from repro import MiningSession

        backend = (
            None if engine == "serial" else request.getfixturevalue(f"{engine}_backend")
        )
        session = MiningSession(self.CONFIG)
        session.mine(base, backend=backend)
        appended = session.append(delta, backend=backend)
        scratch = self._session_store(database, self.CONFIG)
        assert mined_tuples(appended) == mined_tuples(
            HTPGM(self.CONFIG).mine(database)
        )
        assert store_snapshot(session.graph) == store_snapshot(scratch.graph)


class TestWorkerPoolParity:
    """Two more pool axes: a scalar config evaluated by workers, and the
    spawn start method's persistent pool (context pickled with every shard
    instead of inherited through fork copy-on-write)."""

    CONFIG = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)

    def test_scalar_config_through_the_pool(self, process_backend):
        database = random_database(seed=19, n_sequences=8)
        config = self.CONFIG.with_vectorized(False)
        serial = HTPGM(config, backend=SerialBackend()).mine(database)
        parallel = HTPGM(config, backend=process_backend).mine(database)
        assert_parity(serial, parallel)

    def test_scalar_config_through_the_spawn_pool(self, spawn_backend):
        database = random_database(seed=19, n_sequences=8)
        config = self.CONFIG.with_vectorized(False)
        serial = HTPGM(config, backend=SerialBackend()).mine(database)
        parallel = HTPGM(config, backend=spawn_backend).mine(database)
        assert_parity(serial, parallel)

    def test_plain_spawn_parity(self):
        """start_method="spawn": the per-shard pickle transport on a
        persistent pool mines what serial mines."""
        database = random_database(seed=7, n_sequences=8)
        serial = HTPGM(self.CONFIG, backend=SerialBackend()).mine(database)
        with ProcessPoolBackend(
            n_workers=2, min_candidates_per_worker=1, start_method="spawn"
        ) as backend:
            parallel = HTPGM(self.CONFIG, backend=backend).mine(database)
        assert_parity(serial, parallel)


class TestCostBalancedSharding:
    """The greedy LPT splitter and its count-balanced fallback."""

    def test_lpt_partition_covers_every_index_once_in_ascending_order(self):
        costs = [100.0, 1.0, 1.0, 50.0, 1.0, 80.0, 1.0, 1.0, 60.0, 1.0]
        shards = _split_cost_balanced(costs, 3)
        flattened = sorted(index for shard in shards for index in shard)
        assert flattened == list(range(len(costs)))
        for shard in shards:
            assert shard == sorted(shard)

    def test_lpt_balances_skewed_costs_better_than_contiguous(self):
        # Heavy candidates clustered at the front, as level 2 produces when
        # a high-instance-count event sorts first.
        costs = [90.0, 80.0, 70.0, 60.0] + [1.0] * 12
        lpt = _split_cost_balanced(costs, 4)
        contiguous = _split_contiguous_indices(len(costs), 4)
        load = lambda shard: sum(costs[i] for i in shard)
        assert max(map(load, lpt)) < max(map(load, contiguous))
        # Perfect split here: one heavy candidate per shard.
        assert max(map(load, lpt)) <= 90.0 + 3 * 1.0

    def test_lpt_partition_is_deterministic(self):
        costs = [5.0, 5.0, 3.0, 3.0, 3.0, 1.0, 1.0, 1.0]
        assert _split_cost_balanced(costs, 3) == _split_cost_balanced(costs, 3)

    def test_cost_estimate_length_mismatch_rejected(self, paper_sequence_db):
        from repro.core.engine import LevelContext

        backend = ProcessPoolBackend(n_workers=2, min_candidates_per_worker=1)
        context = LevelContext(level=2, config=MiningConfig(), min_count=1, level1={})
        with pytest.raises(ConfigurationError):
            backend.run(context, [(("A", "On"), ("B", "On"))], costs=[1.0, 2.0])
        with pytest.raises(ConfigurationError):
            backend.map_shards(
                lambda payload, shard: shard, None, list(range(10)), costs=[1.0] * 8
            )

    def test_count_balanced_fallback_parity(self):
        """cost_balanced=False (contiguous equal-count shards) mines the same set."""
        database = random_database(seed=13)
        config = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
        serial = HTPGM(config, backend=SerialBackend()).mine(database)
        with ProcessPoolBackend(
            n_workers=2, min_candidates_per_worker=1, cost_balanced=False
        ) as backend:
            parallel = HTPGM(config, backend=backend).mine(database)
        assert_parity(serial, parallel)

    def test_wants_costs_capability_flag(self):
        assert SerialBackend().wants_costs is False
        assert ProcessPoolBackend(n_workers=2).wants_costs is True
        assert ProcessPoolBackend(n_workers=2, cost_balanced=False).wants_costs is False

    def test_miner_skips_estimation_for_backends_that_ignore_costs(self, monkeypatch):
        """Backends without wants_costs never pay for cost estimation."""
        import repro.core.session as session_module

        calls = []
        for name in ("_estimate_pair_costs", "_estimate_combination_costs"):
            original = getattr(session_module, name)
            monkeypatch.setattr(
                session_module,
                name,
                lambda *args, _original=original, _name=name: (
                    calls.append(_name),
                    _original(*args),
                )[1],
            )
        database = random_database(seed=3)
        config = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
        HTPGM(config, backend=SerialBackend()).mine(database)
        assert calls == []
        # A process backend whose batches all fall below the sharding
        # threshold would discard the estimates too — also skipped.
        with ProcessPoolBackend(
            n_workers=2, min_candidates_per_worker=10_000
        ) as backend:
            HTPGM(config, backend=backend).mine(database)
        assert calls == []
        with ProcessPoolBackend(n_workers=2, min_candidates_per_worker=1) as backend:
            HTPGM(config, backend=backend).mine(database)
        assert "_estimate_pair_costs" in calls


class TestShardOverDecomposition:
    """ProcessPoolBackend(shards_per_worker=N): finer shards, same answer."""

    def test_shard_count_honours_shards_per_worker(self):
        backend = ProcessPoolBackend(
            n_workers=2, min_candidates_per_worker=1, shards_per_worker=4
        )
        assert backend._shard_count(100) == 8
        assert backend._shard_count(3) == 3  # still capped by the batch size
        assert backend.would_shard(2)
        single = ProcessPoolBackend(n_workers=2, min_candidates_per_worker=1)
        assert single.shards_per_worker == 1
        assert single._shard_count(100) == 2

    def test_split_cost_balanced_shard_counts(self):
        """The LPT splitter produces the over-decomposed shard count, each
        shard ascending, covering every index exactly once."""
        costs = [float(c) for c in [90, 80, 70, 60] + [1] * 28]
        backend = ProcessPoolBackend(
            n_workers=2, min_candidates_per_worker=1, shards_per_worker=4
        )
        shards = backend._shard_indices(backend._shard_count(len(costs)), costs, len(costs))
        assert len(shards) == 8
        flattened = sorted(index for shard in shards for index in shard)
        assert flattened == list(range(len(costs)))
        assert all(shard == sorted(shard) for shard in shards)
        # No shard carries two of the four heavy candidates.
        heavy_per_shard = [sum(1 for i in shard if i < 4) for shard in shards]
        assert max(heavy_per_shard) == 1

    def test_empty_shards_are_dropped(self):
        # More shards than items with all-equal costs: LPT leaves some empty.
        shards = _split_cost_balanced([1.0, 1.0, 1.0], 8)
        assert len(shards) == 3
        assert all(shard for shard in shards)

    def test_over_decomposed_mining_parity(self):
        database = random_database(seed=17)
        config = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
        serial = HTPGM(config, backend=SerialBackend()).mine(database)
        with ProcessPoolBackend(
            n_workers=2, min_candidates_per_worker=1, shards_per_worker=4
        ) as backend:
            parallel = HTPGM(config, backend=backend).mine(database)
        assert_parity(serial, parallel)

    def test_invalid_shards_per_worker_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(n_workers=2, shards_per_worker=0)


class TestDeadEndSummaries:
    """Nodes that provably cannot be extended ship as summaries (Lemma 5)."""

    @staticmethod
    def _two_triangle_database(n_sequences=12):
        """Two disjoint series triangles (A,B,C) and (D,E,F).

        Cross-triangle events never co-occur in a sequence, so no frequent
        pair bridges the triangles: every 3-event node is confined to one
        triangle and has no fourth event sharing a pair with all three — a
        guaranteed dead end, with enough level-3 candidates to shard.
        """
        sequences = []
        for sequence_id in range(n_sequences):
            triangle = ("A", "B", "C") if sequence_id % 2 == 0 else ("D", "E", "F")
            instances = [
                EventInstance(
                    start=float(offset * 20),
                    end=float(offset * 20 + 10),
                    series=series,
                    symbol="On",
                )
                for offset, series in enumerate(triangle)
            ]
            sequences.append(TemporalSequence(sequence_id, instances))
        return SequenceDatabase(sequences)

    def test_dead_end_level3_nodes_ship_as_summaries(self):
        """No max_pattern_size is set, yet the level-3 entries arrive
        summarised because no fourth event shares a pair with all three."""
        with ProcessPoolBackend(n_workers=2, min_candidates_per_worker=1) as backend:
            self._assert_dead_ends_ship_as_summaries(backend)

    def test_spawn_workers_summarise_dead_ends_too(self, spawn_backend):
        """The Lemma-5 check reads only the shard context, which spawn
        workers receive pickled: the same entries arrive summarised."""
        self._assert_dead_ends_ship_as_summaries(spawn_backend)

    def _assert_dead_ends_ship_as_summaries(self, backend):
        database = self._two_triangle_database()
        config = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
        serial_miner = HTPGM(config, backend=SerialBackend())
        serial = serial_miner.mine(database)
        parallel_miner = HTPGM(config, backend=backend)
        parallel = parallel_miner.mine(database)
        assert_parity(serial, parallel)
        final_entries = [
            entry
            for node in parallel_miner.graph_.nodes_at(3)
            for entry in node.patterns.values()
        ]
        assert final_entries, "the database must produce 3-event patterns"
        assert all(entry.is_summary for entry in final_entries)
        assert all(entry.occurrences == {} for entry in final_entries)
        # Supports survive, matching the serial graph entry for entry.
        serial_supports = {
            (node.events, entry.pattern): entry.support
            for node in serial_miner.graph_.nodes_at(3)
            for entry in node.patterns.values()
        }
        parallel_supports = {
            (node.events, entry.pattern): entry.support
            for node in parallel_miner.graph_.nodes_at(3)
            for entry in node.patterns.values()
        }
        assert serial_supports == parallel_supports
        # The serial graph is untouched by the optimisation.
        assert all(
            not entry.is_summary
            for node in serial_miner.graph_.nodes_at(3)
            for entry in node.patterns.values()
        )

    def test_no_summaries_without_transitivity_pruning(self):
        """Without Lemma 5 a worker cannot prove a node dead: no summaries."""
        database = self._two_triangle_database()
        config = MiningConfig(
            min_support=0.3,
            min_confidence=0.3,
            min_overlap=1.0,
            pruning=PruningMode.APRIORI,
        )
        with ProcessPoolBackend(n_workers=2, min_candidates_per_worker=1) as backend:
            miner = HTPGM(config, backend=backend)
            serial = HTPGM(config, backend=SerialBackend()).mine(database)
            parallel = miner.mine(database)
        assert_parity(serial, parallel)
        assert all(
            not entry.is_summary
            for node in miner.graph_.nodes_at(3)
            for entry in node.patterns.values()
        )

    def test_extendable_nodes_keep_their_occurrences(self):
        """With a fourth series around, level-3 nodes may extend: full lists."""
        database = random_database(seed=29, n_sequences=10, n_series=4)
        config = MiningConfig(min_support=0.25, min_confidence=0.25, min_overlap=1.0)
        with ProcessPoolBackend(n_workers=2, min_candidates_per_worker=1) as backend:
            miner = HTPGM(config, backend=backend)
            parallel = miner.mine(database)
        serial = HTPGM(config, backend=SerialBackend()).mine(database)
        assert_parity(serial, parallel)
        levels = miner.graph_.levels
        if 4 in levels and levels[4]:
            # Any level-3 node that fed a level-4 node must have kept its
            # occurrences when it was mined (the extension read them).
            extended_parents = {
                tuple(sorted(set(events) - {event}))
                for events in levels[4]
                for event in events
            }
            assert any(key in levels.get(3, {}) for key in extended_parents)


class TestFinalLevelSummaries:
    def test_process_workers_return_summaries_at_max_pattern_size(self):
        """Final-level entries ship as counts, not occurrence lists, yet the
        mined output (support, confidence, order) matches serial exactly."""
        with ProcessPoolBackend(n_workers=2, min_candidates_per_worker=1) as backend:
            self._assert_final_level_ships_summaries(backend)

    def test_spawn_workers_return_summaries_at_max_pattern_size(self, spawn_backend):
        self._assert_final_level_ships_summaries(spawn_backend)

    def _assert_final_level_ships_summaries(self, backend):
        database = random_database(seed=0)
        config = MiningConfig(
            min_support=0.3, min_confidence=0.3, min_overlap=1.0, max_pattern_size=3
        )
        serial_miner = HTPGM(config, backend=SerialBackend())
        serial = serial_miner.mine(database)
        parallel_miner = HTPGM(config, backend=backend)
        parallel = parallel_miner.mine(database)
        assert_parity(serial, parallel)

        final_entries = [
            entry
            for node in parallel_miner.graph_.nodes_at(3)
            for entry in node.patterns.values()
        ]
        assert final_entries, "the seed must reach the final level"
        assert all(entry.is_summary for entry in final_entries)
        assert all(entry.occurrences == {} for entry in final_entries)
        assert all(entry.n_occurrences > 0 for entry in final_entries)
        # Supports survive summarisation (compared against the serial graph).
        serial_supports = {
            (node.events, entry.pattern): entry.support
            for node in serial_miner.graph_.nodes_at(3)
            for entry in node.patterns.values()
        }
        parallel_supports = {
            (node.events, entry.pattern): entry.support
            for node in parallel_miner.graph_.nodes_at(3)
            for entry in node.patterns.values()
        }
        assert serial_supports == parallel_supports
        # Intermediate levels keep full occurrences — they fed the next level.
        assert all(
            not entry.is_summary
            for node in parallel_miner.graph_.nodes_at(2)
            for entry in node.patterns.values()
        )
        # The serial graph is untouched by the optimisation.
        assert all(
            not entry.is_summary
            for node in serial_miner.graph_.nodes_at(3)
            for entry in node.patterns.values()
        )


class TestApproximateMinerParity:
    def test_ahtpgm_runs_on_process_engine(self, small_energy, fast_config):
        """A-HTPGM's correlation filters run in the coordinator, so any engine works."""
        _, symbolic_db, sequence_db = small_energy
        serial = AHTPGM(fast_config, graph_density=0.6).mine(sequence_db, symbolic_db)
        parallel = AHTPGM(
            fast_config.with_engine("process", 2), graph_density=0.6
        ).mine(sequence_db, symbolic_db)
        assert parallel.algorithm == "A-HTPGM"
        assert parallel.engine == "process"
        assert serial.correlated_series == parallel.correlated_series
        assert_parity(serial, parallel)

    @pytest.mark.parametrize("pruning", list(PruningMode))
    def test_parallel_nmi_parity_across_pruning_modes(
        self, pruning, small_energy, fast_config
    ):
        """The sharded NMI phase + cost-balanced mining leave A-HTPGM unchanged."""
        _, symbolic_db, sequence_db = small_energy
        config = fast_config.with_pruning(pruning)
        serial = AHTPGM(config, graph_density=0.6).mine(sequence_db, symbolic_db)
        parallel = AHTPGM(
            config.with_engine("process", 2), graph_density=0.6
        ).mine(sequence_db, symbolic_db)
        assert serial.correlated_series == parallel.correlated_series
        assert_parity(serial, parallel)
        assert parallel.statistics.correlation_seconds > 0.0

    def test_parallel_nmi_values_bit_identical(self, small_energy):
        """Sharding series pairs across workers changes nothing about the NMI."""
        _, symbolic_db, _ = small_energy
        serial_values = pairwise_nmi(symbolic_db)
        with ProcessPoolBackend(n_workers=2, min_candidates_per_worker=1) as backend:
            parallel_values = pairwise_nmi(symbolic_db, backend=backend)
        assert serial_values == parallel_values

    def test_spawn_pool_nmi_values_bit_identical(self, small_energy, spawn_backend):
        """Spawn workers receive the symbolic database pickled with every
        shard of series pairs; the values still match bit for bit."""
        _, symbolic_db, _ = small_energy
        assert pairwise_nmi(symbolic_db, backend=spawn_backend) == pairwise_nmi(
            symbolic_db
        )


class TestBackendBehaviour:
    def test_backend_reuse_across_mines(self, process_backend):
        """An injected backend survives multiple mining runs unchanged."""
        config = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
        for seed in (21, 22):
            database = random_database(seed)
            serial = HTPGM(config).mine(database)
            parallel = HTPGM(config, backend=process_backend).mine(database)
            assert_parity(serial, parallel)

    def test_config_engine_resolution(self):
        assert isinstance(backend_from_config(MiningConfig()), SerialBackend)
        config = MiningConfig(engine="process", n_workers=3)
        process = backend_from_config(config)
        assert isinstance(process, ProcessPoolBackend)
        assert process.n_workers == 3
        assert process.retry == config.retry
        assert process.governor is None
        default_workers = backend_from_config(MiningConfig(engine="process"))
        assert default_workers.n_workers == available_workers()

    def test_config_rejects_bad_engine_settings(self):
        with pytest.raises(ConfigurationError):
            MiningConfig(engine="gpu")
        with pytest.raises(ConfigurationError):
            MiningConfig(engine="process", n_workers=0)
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(n_workers=-1)

    def test_small_batch_falls_back_inline(self):
        """Below the sharding threshold no pool is spun up, but results match."""
        database = random_database(seed=5, n_sequences=6, n_series=2)
        config = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
        backend = ProcessPoolBackend(n_workers=2, min_candidates_per_worker=10_000)
        try:
            parallel = HTPGM(config, backend=backend).mine(database)
            assert backend._executor is None  # fallback never created workers
        finally:
            backend.close()
        serial = HTPGM(config).mine(database)
        assert_parity(serial, parallel)

    def test_with_engine_round_trip(self):
        config = MiningConfig().with_engine("process", 4)
        assert config.engine == "process"
        assert config.n_workers == 4
        back = config.with_engine("serial")
        assert back.engine == "serial"
        assert back.n_workers is None

    def test_worker_exception_leaves_the_backend_usable(self):
        with ProcessPoolBackend(n_workers=2, min_candidates_per_worker=1) as backend:
            with pytest.raises(ValueError, match="worker says no"):
                backend.map_shards(_failing_shard, None, list(range(8)))
            results = backend.map_shards(_echo_shard, None, list(range(8)))
        assert sorted(sum(results, [])) == list(range(8))

    def test_double_close_is_idempotent(self):
        backend = ProcessPoolBackend(n_workers=2, start_method="spawn")
        backend.map_shards(_echo_shard, None, list(range(8)))
        backend.close()
        backend.close()
        assert backend._executor is None

    def test_invalid_start_method_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(n_workers=2, start_method="telepathy")


# Module-level so the spawn start method can pickle references to them.
def _echo_shard(payload, items):
    return list(items)


def _failing_shard(payload, items):
    raise ValueError("worker says no")
