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

import os
import random

import pytest

from repro import (
    AHTPGM,
    HTPGM,
    ConfigurationError,
    MiningConfig,
    MiningSession,
    ProcessPoolBackend,
    PruningMode,
    SerialBackend,
)
from repro.core.engine import (
    _split_lpt_indices,
    available_workers,
    backend_from_config,
    evaluate_candidates,
)
from repro.timeseries import EventInstance, SequenceDatabase, TemporalSequence

from reference_miner import reference_evaluation

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
    """The pass against the scalar reference (``tests/reference_miner.py``):
    both must agree on the full mined output *and* on every work counter —
    including ``relation_checks``, whose scalar early-exit semantics the
    kernel reconstructs from the first failing position of each batch row."""

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
        with reference_evaluation():
            scalar = HTPGM(config).mine(database)
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
        with reference_evaluation():
            scalar = HTPGM(config).mine(database)
        assert_parity(scalar, vectorized)

    def test_dense_level_2_runs_in_row_bounded_passes(self, monkeypatch):
        """A dense database's level 2 goes through the vectorized pass in
        passes of at least the row bound (a level's last pass excepted),
        many candidates per pass, and still matches the scalar loop."""
        import repro.core.engine as engine_module

        database = random_database(seed=31, n_sequences=6, n_series=2, max_instances=80)
        config = MiningConfig(
            min_support=0.3, min_confidence=0.3, min_overlap=1.0, tmax=50.0
        )
        bound = 512
        monkeypatch.setattr(engine_module, "_EXTENSION_BATCH_ROWS", bound)
        passes = []
        evaluate = engine_module._ExtensionBatch._evaluate

        def logging_evaluate(batch):
            passes.append((batch.context.level, batch.rows))
            evaluate(batch)

        monkeypatch.setattr(engine_module._ExtensionBatch, "_evaluate", logging_evaluate)
        vectorized = HTPGM(config).mine(database)
        level2 = [rows for level, rows in passes if level == 2]
        assert 1 < len(level2) < vectorized.statistics.candidates_generated[2]
        assert all(rows >= bound for rows in level2[:-1])
        with reference_evaluation():
            scalar = HTPGM(config).mine(database)
        assert_parity(scalar, vectorized)

    def test_vectorized_process_engine_matches_scalar_serial(self, process_backend):
        database = random_database(seed=37, n_sequences=10)
        config = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
        with reference_evaluation():
            scalar_serial = HTPGM(config, backend=SerialBackend()).mine(database)
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
        with reference_evaluation():
            scratch = HTPGM(config).mine(database)
        assert mined_tuples(appended) == mined_tuples(scratch)


def store_snapshot(graph):
    """The full columnar occurrence store, in iteration (= insertion) order.

    Every entry contributes its per-sequence index matrices and, for each of
    its two arrays, the dtype, shape and raw bytes — comparing snapshots
    therefore asserts byte-identical evidence, not just byte-identical
    results (``tolist`` alone would not see a dtype)."""
    return [
        (
            level,
            node.events,
            entry.pattern,
            tuple(
                (sequence_id, matrix.tolist())
                for sequence_id, matrix in entry.iter_index_matrices()
            ),
            tuple(
                (array.dtype.str, array.shape, array.tobytes())
                for array in (entry.sequences, entry.rows)
            ),
        )
        for level, node, entry in graph.iter_pattern_entries()
    ]


def assert_same_occurrences(graph, other):
    """Every entry's instance-tuple view equals the other graph's, each side
    resolved against its own graph's level 1 — so the check compares
    instances, not only index rows."""
    entries = list(graph.iter_pattern_entries())
    others = list(other.iter_pattern_entries())
    assert len(entries) == len(others)
    for (_, _, entry), (_, _, other_entry) in zip(entries, others):
        assert entry.occurrences(graph.level1) == other_entry.occurrences(
            other.level1
        )


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
        with reference_evaluation():
            scalar = self._session_store(database, self.CONFIG)
        assert store_snapshot(vectorized.graph) == store_snapshot(scalar.graph)

    def _assert_pool_builds_the_serial_store(self, backend):
        database = random_database(seed=23, n_sequences=10, max_instances=14)
        serial = self._session_store(database, self.CONFIG)
        parallel = self._session_store(database, self.CONFIG, backend=backend)
        assert store_snapshot(serial.graph) == store_snapshot(parallel.graph)
        assert_same_occurrences(serial.graph, parallel.graph)

    def test_process_engine_builds_the_identical_store(self, process_backend):
        """The process engine ships back the exact index matrices serial
        builds, and they resolve to the same instances against the
        coordinator's level 1."""
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
    """Two more pool axes: the scalar reference evaluated by workers, and
    the spawn start method's persistent pool (context pickled with every
    shard instead of inherited through fork copy-on-write)."""

    CONFIG = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)

    def test_scalar_config_through_the_pool(self, process_backend):
        database = random_database(seed=19, n_sequences=8)
        with reference_evaluation():
            serial = HTPGM(self.CONFIG, backend=SerialBackend()).mine(database)
            parallel = HTPGM(self.CONFIG, backend=process_backend).mine(database)
        assert_parity(serial, parallel)

    def test_scalar_config_through_the_spawn_pool(self, spawn_backend):
        database = random_database(seed=19, n_sequences=8)
        with reference_evaluation():
            serial = HTPGM(self.CONFIG, backend=SerialBackend()).mine(database)
            parallel = HTPGM(self.CONFIG, backend=spawn_backend).mine(database)
        assert_parity(serial, parallel)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pool_workers_run_the_reference(self, start_method, tmp_path, monkeypatch):
        """Inside ``reference_evaluation`` a fresh pool's workers evaluate
        with the reference, and no pass runs in the coordinator or a forked
        worker; otherwise the pool cells above would compare the pass with
        itself."""
        import repro.core.engine as engine_module

        config = MiningConfig(min_support=0.25, min_confidence=0.25, min_overlap=1.0)
        database = random_database(seed=19, n_sequences=8)
        expected = HTPGM(config).mine(database)

        def no_pass(*args):
            raise AssertionError("the vectorized pass ran")

        monkeypatch.setattr(engine_module._ExtensionBatch, "__init__", no_pass)
        log = tmp_path / "evaluations"
        log.touch()
        with ProcessPoolBackend(
            n_workers=2, min_candidates_per_worker=1, start_method=start_method
        ) as backend, reference_evaluation(log):
            pooled = HTPGM(config, backend=backend).mine(database)
        logged = [line.split() for line in log.read_text().splitlines()]
        in_workers = {level for pid, level in logged if pid != str(os.getpid())}
        assert {"2", "3"} <= in_workers
        assert_parity(expected, pooled)

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
        shards = _split_lpt_indices(costs, 3)
        flattened = sorted(index for shard in shards for index in shard)
        assert flattened == list(range(len(costs)))
        for shard in shards:
            assert shard == sorted(shard)

    def test_lpt_balances_skewed_costs_better_than_contiguous(self):
        # Heavy candidates clustered at the front, as level 2 produces when
        # a high-instance-count event sorts first.
        costs = [90.0, 80.0, 70.0, 60.0] + [1.0] * 12
        lpt = _split_lpt_indices(costs, 4)
        contiguous = [list(range(first, first + 4)) for first in range(0, 16, 4)]
        load = lambda shard: sum(costs[i] for i in shard)
        assert max(map(load, lpt)) < max(map(load, contiguous))
        # Perfect split here: one heavy candidate per shard.
        assert max(map(load, lpt)) <= 90.0 + 3 * 1.0

    def test_lpt_partition_is_deterministic(self):
        costs = [5.0, 5.0, 3.0, 3.0, 3.0, 1.0, 1.0, 1.0]
        assert _split_lpt_indices(costs, 3) == _split_lpt_indices(costs, 3)

    def test_cost_estimate_length_mismatch_rejected(self, paper_sequence_db):
        from repro.core.engine import LevelContext

        backend = ProcessPoolBackend(n_workers=2, min_candidates_per_worker=1)
        context = LevelContext(
            level=2, config=MiningConfig(), min_count=1, level1={}, n_sequences=0
        )
        with pytest.raises(ConfigurationError):
            backend.run(context, [(("A", "On"), ("B", "On"))], costs=[1.0, 2.0])

    def test_miner_skips_estimation_for_backends_that_ignore_costs(self, monkeypatch):
        """Only a batch the process backend shards pays for cost estimation."""
        import repro.core.engine as engine_module

        calls = []
        for name in ("_estimate_pair_costs", "_estimate_combination_costs"):
            original = getattr(engine_module, name)
            monkeypatch.setattr(
                engine_module,
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


def _walked_combination_costs(graph, candidates, level):
    """The level-k cost estimate as a Python walk over every parent entry's
    per-sequence matrices, the reference for the array estimator."""
    occurrence_counts = {}
    for parent_key, parent in graph.levels.get(level - 1, {}).items():
        counts = {}
        for entry in parent.patterns.values():
            for sequence_id, matrix in entry.iter_index_matrices():
                counts[sequence_id] = counts.get(sequence_id, 0) + len(matrix)
        occurrence_counts[parent_key] = counts
    costs = []
    for candidate in candidates:
        cost = 0
        for new_event in candidate:
            parent_key = tuple(e for e in candidate if e != new_event)
            instances = graph.level1[new_event].instances_by_sequence
            for sequence_id, n_occurrences in occurrence_counts.get(
                parent_key, {}
            ).items():
                cost += n_occurrences * len(instances.get(sequence_id, ()))
        costs.append(float(max(cost, 1)))
    return costs


class TestCombinationCostEstimate:
    def test_csr_estimate_equals_the_per_sequence_walk(self):
        """The level-k estimator reads the entries' per-row sequence ids and
        the instance table; its costs are the exact integer sums of the walk
        at every level of a dataport stand-in."""
        from repro import MiningSession
        from repro.core.engine import _estimate_combination_costs
        from repro.core.stats import MiningStatistics
        from repro.datasets import make_dataset

        _, database = make_dataset(
            "dataport", scale=0.01, attribute_fraction=0.5, seed=103
        ).transform()
        session = MiningSession(
            MiningConfig(min_support=0.45, min_confidence=0.45, min_overlap=1.0)
        )
        session.mine(database)
        graph = session.graph
        levels = range(3, graph.max_level() + 2)
        assert len(levels) >= 3
        for level in levels:
            candidates = session._generate_combination_candidates(
                graph, MiningStatistics(), level
            )
            context = session._level_context(graph, level, 1, candidates)
            estimated = _estimate_combination_costs(context, candidates)
            assert estimated == _walked_combination_costs(graph, candidates, level)
            assert candidates and max(estimated) > 1.0


def _walked_pair_costs(context, candidates):
    """The level-2 cost estimate one pair at a time: Apriori on the pair's
    shared sequences (the intersection of the events' level-1 instance-dict
    keys, Def. 3.13), then a dot product over the shared sequences from
    ``delta_start`` on; the reference for the Gram-matrix estimator."""
    from reference_miner import apriori_prune, shared_sequences

    table, config = context.instances, context.config
    costs = []
    for event_a, event_b in candidates:
        node_a, node_b = context.level1[event_a], context.level1[event_b]
        joint = shared_sequences(context.level1, (event_a, event_b))
        if not joint or apriori_prune(
            len(joint),
            max(node_a.support, node_b.support),
            context.min_count,
            config,
        ):
            costs.append(1.0)
            continue
        shared = [s for s in sorted(joint) if s >= context.delta_start]
        counts_a = table.count[table.index[event_a], shared]
        if event_a == event_b:
            pair_count = float(counts_a @ (counts_a - 1.0)) / 2.0
        else:
            pair_count = float(counts_a @ table.count[table.index[event_b], shared])
        costs.append(max(pair_count, 1.0))
    return costs


class TestPairCostEstimate:
    @pytest.mark.parametrize("pruning", [PruningMode.ALL, PruningMode.NONE])
    @pytest.mark.parametrize("delta_start", [0, 7])
    def test_gram_estimate_equals_the_per_pair_walk(
        self, pruning, delta_start, monkeypatch
    ):
        """The level-2 estimator's costs are the walk's, self pairs, pruned
        pairs and delta passes included, across admission chunks."""
        from dataclasses import replace

        import repro.core.engine as engine_module
        from repro import MiningSession
        from repro.core.engine import LevelContext
        from repro.core.engine import _estimate_pair_costs

        config = MiningConfig(
            min_support=0.3,
            min_confidence=0.6,
            min_overlap=1.0,
            pruning=pruning,
            allow_self_relations=True,
        )
        session = MiningSession(replace(config, max_pattern_size=1))
        session.mine(random_database(seed=5, n_sequences=14, max_instances=14))
        graph = session.graph
        candidates = session._generate_pair_candidates(graph)
        context = LevelContext(
            level=2,
            config=config,
            min_count=5,
            level1=graph.level1,
            n_sequences=graph.n_sequences,
            delta_start=delta_start,
        )
        monkeypatch.setattr(engine_module, "_ADMISSION_CHUNK", 7)
        estimated = _estimate_pair_costs(context, candidates)
        walked = _walked_pair_costs(context, candidates)
        assert estimated == walked
        assert max(walked) > 1.0
        if pruning is PruningMode.ALL:
            assert 1.0 in walked, "no pair was pruned"


class TestShardOverDecomposition:
    """Asked for more shards than items, the LPT splitter returns no empty
    shard."""

    def test_empty_shards_are_dropped(self):
        # More shards than items with all-equal costs: LPT leaves some empty.
        shards = _split_lpt_indices([1.0, 1.0, 1.0], 8)
        assert len(shards) == 3
        assert all(shard for shard in shards)


def two_triangle_database(n_sequences=12):
    """Two disjoint series triangles (A,B,C) and (D,E,F).

    Cross-triangle events never co-occur in a sequence, so no frequent pair
    bridges the triangles: every 3-event node is confined to one triangle and
    has no fourth event sharing a pair with all three — a Lemma 5 dead end,
    with enough level-3 candidates to shard.
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


class TestPoolStoreParity:
    """Through the plain ``HTPGM`` façade, a fork or spawn pool builds the
    serial occurrence store — for level-3 nodes a level-4 node extends, and
    for nodes no later level reads: Lemma 5 dead ends and the
    ``max_pattern_size`` level."""

    CONFIG = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
    CASES = {
        # name: (database, config, deepest level the serial graph reaches)
        "dead-ends": (two_triangle_database, CONFIG, 3),
        "dead-ends-apriori": (
            two_triangle_database,
            CONFIG.with_pruning(PruningMode.APRIORI),
            3,
        ),
        "extendable": (
            lambda: random_database(seed=29, n_sequences=10, n_series=4),
            MiningConfig(min_support=0.2, min_confidence=0.2, min_overlap=1.0),
            4,
        ),
        "final-level": (
            lambda: random_database(seed=0),
            MiningConfig(
                min_support=0.3,
                min_confidence=0.3,
                min_overlap=1.0,
                max_pattern_size=3,
            ),
            3,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("engine", ["process", "spawn"])
    def test_pool_builds_the_serial_store(self, engine, case, request):
        make_database, config, depth = self.CASES[case]
        database = make_database()
        serial = HTPGM(config, backend=SerialBackend())
        parallel = HTPGM(config, backend=request.getfixturevalue(f"{engine}_backend"))
        assert_parity(serial.mine(database), parallel.mine(database))
        assert max(serial.graph_.levels) == depth
        assert store_snapshot(parallel.graph_) == store_snapshot(serial.graph_)
        assert_same_occurrences(serial.graph_, parallel.graph_)


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
    def test_process_engine_parity_across_pruning_modes(
        self, pruning, small_energy, fast_config
    ):
        """Cost-balanced mining on the process engine leaves A-HTPGM unchanged."""
        _, symbolic_db, sequence_db = small_energy
        config = fast_config.with_pruning(pruning)
        serial = AHTPGM(config, graph_density=0.6).mine(sequence_db, symbolic_db)
        parallel = AHTPGM(
            config.with_engine("process", 2), graph_density=0.6
        ).mine(sequence_db, symbolic_db)
        assert serial.correlated_series == parallel.correlated_series
        assert_parity(serial, parallel)
        assert parallel.statistics.correlation_seconds > 0.0


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
                run_fake_shards(backend, _failing_shard)
            results = run_fake_shards(backend, _echo_shard)
        assert sorted(sum(results, [])) == list(range(8))

    def test_double_close_is_idempotent(self):
        backend = ProcessPoolBackend(n_workers=2, start_method="spawn")
        run_fake_shards(backend, _echo_shard)
        backend.close()
        backend.close()
        assert backend._executor is None

    def test_invalid_start_method_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(n_workers=2, start_method="telepathy")

    @pytest.mark.parametrize("operation", ["mine", "append"])
    def test_nodes_may_come_back_in_any_order(self, operation):
        """A backend may return its nodes in any order: the session merges
        them by key, so the result, the store and every level's node order
        are serial's, for a full mine and for an append's delta pass."""
        config = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
        database = random_database(seed=23, n_sequences=10, max_instances=14)
        sessions, results = [], []
        for backend in (SerialBackend(), ReversingBackend()):
            session = MiningSession(config)
            if operation == "mine":
                result = session.mine(database, backend=backend)
            else:
                session.mine(SequenceDatabase(database.sequences[:8]), backend=backend)
                result = session.append(database.sequences[8:], backend=backend)
            sessions.append(session)
            results.append(result)
        serial, reversing = sessions
        assert reversing.graph.max_level() >= 3
        assert mined_tuples(results[1]) == mined_tuples(results[0])
        assert store_snapshot(reversing.graph) == store_snapshot(serial.graph)
        keys = lambda graph: {k: list(nodes) for k, nodes in graph.levels.items()}
        assert keys(reversing.graph) == keys(serial.graph)


class ReversingBackend(SerialBackend):
    """Returns :func:`evaluate_candidates`' nodes in reverse order."""

    name = "reversing"

    def run(self, context, candidates, costs=None):
        outcome = evaluate_candidates(context, candidates)
        outcome.nodes.reverse()
        return outcome


def run_fake_shards(backend, func):
    """Drive ``backend``'s shard transport with a fake shard body: two
    level-2 shards over the items 0-7, pieces concatenated back in order."""
    return backend._run_shards(
        func,
        None,
        [[0, 1, 2, 3], [4, 5, 6, 7]],
        level=2,
        combine=lambda parts: sum(parts, []),
    )


# Module-level so the spawn start method can pickle references to them.
def _echo_shard(payload, items):
    return list(items)


def _failing_shard(payload, items):
    raise ValueError("worker says no")
