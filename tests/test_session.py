"""Incremental mining sessions: the append/re-mine parity invariant.

The contract of :class:`repro.MiningSession` is exact: ``mine(D)`` followed by
``append(ΔD)`` must produce the identical :class:`MiningResult` — patterns,
supports, confidences, order — as ``mine(D ∪ ΔD)`` from scratch, for every
execution backend and every pruning mode.  These tests sweep that invariant
over seeded-random databases and both bundled synthetic datasets, plus the
edge cases that make incremental mining hard: events becoming frequent only
through the delta, events falling out of the frequent set because the support
threshold grew, deeper levels appearing only after the append, repeated
appends, and deltas promoting a pattern the base did not store just past the
support bound that decides whether the delta pass settles it.
"""

from __future__ import annotations

import gc
import random
import types
from contextlib import nullcontext

import pytest

from repro import (
    HTPGM,
    DataError,
    MiningConfig,
    MiningError,
    MiningSession,
    ProcessPoolBackend,
    PruningMode,
    Relation,
    SerialBackend,
)
from repro.core.patterns import TemporalPattern
from repro.timeseries import EventInstance, SequenceDatabase, TemporalSequence

from reference_miner import reference_evaluation
from test_engine_parity import store_snapshot


def random_database(
    seed: int,
    n_sequences: int = 12,
    n_series: int = 5,
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


def split_database(
    database: SequenceDatabase, base_fraction: float
) -> tuple[SequenceDatabase, list[TemporalSequence]]:
    """Split into a base database and a delta (the remaining sequences)."""
    cut = max(1, int(len(database) * base_fraction))
    return SequenceDatabase(database.sequences[:cut]), database.sequences[cut:]


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


def assert_incremental_parity(config, database, base_fraction=0.8, backend=None):
    """mine(base) + append(delta) must equal mine(full) exactly."""
    base, delta = split_database(database, base_fraction)
    scratch = HTPGM(config, backend=backend).mine(database)
    session = MiningSession(config)
    session.mine(base, backend=backend)
    incremental = session.append(delta, backend=backend)
    assert mined_tuples(incremental) == mined_tuples(scratch)
    assert incremental.n_sequences == scratch.n_sequences == len(database)
    return session, incremental


@pytest.fixture(scope="module")
def process_backend():
    """One worker pool shared by the module; tiny batches shard for real."""
    with ProcessPoolBackend(n_workers=2, min_candidates_per_worker=1) as backend:
        yield backend


@pytest.fixture(scope="module")
def spawn_backend():
    """The persistent spawn pool: shard contexts travel as pickles."""
    with ProcessPoolBackend(
        n_workers=2, min_candidates_per_worker=1, start_method="spawn"
    ) as backend:
        yield backend


class TestAppendParityRandomDatabases:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("base_fraction", [0.5, 0.9])
    def test_serial_parity(self, seed, base_fraction):
        config = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
        assert_incremental_parity(
            config, random_database(seed), base_fraction=base_fraction
        )

    @pytest.mark.parametrize("pruning", list(PruningMode))
    def test_all_pruning_modes(self, pruning):
        config = MiningConfig(
            min_support=0.25, min_confidence=0.25, min_overlap=1.0, pruning=pruning
        )
        assert_incremental_parity(config, random_database(seed=7))

    @pytest.mark.parametrize("pruning", list(PruningMode))
    def test_process_engine_all_pruning_modes(self, pruning, process_backend):
        config = MiningConfig(
            min_support=0.25, min_confidence=0.25, min_overlap=1.0, pruning=pruning
        )
        assert_incremental_parity(
            config, random_database(seed=3), backend=process_backend
        )

    @pytest.mark.parametrize("pruning", list(PruningMode))
    def test_spawn_pool_all_pruning_modes(self, pruning, spawn_backend):
        """Spawn workers get the append's re-evaluation context pickled —
        bitmaps resized and instance arrays extended in place included."""
        config = MiningConfig(
            min_support=0.25, min_confidence=0.25, min_overlap=1.0, pruning=pruning
        )
        assert_incremental_parity(
            config, random_database(seed=3), backend=spawn_backend
        )

    def test_serial_and_process_appends_agree(self, process_backend):
        config = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
        database = random_database(seed=11, n_sequences=14)
        base, delta = split_database(database, 0.8)

        serial_session = MiningSession(config)
        serial_session.mine(base, backend=SerialBackend())
        serial = serial_session.append(delta, backend=SerialBackend())

        process_session = MiningSession(config)
        process_session.mine(base, backend=process_backend)
        parallel = process_session.append(delta, backend=process_backend)
        assert mined_tuples(serial) == mined_tuples(parallel)

    def test_tmax_and_max_pattern_size(self):
        config = MiningConfig(
            min_support=0.25,
            min_confidence=0.25,
            min_overlap=1.0,
            tmax=60.0,
            max_pattern_size=3,
        )
        assert_incremental_parity(
            config, random_database(seed=13, n_sequences=16, max_instances=7)
        )

    def test_no_self_relations(self):
        config = MiningConfig(
            min_support=0.3,
            min_confidence=0.3,
            min_overlap=1.0,
            allow_self_relations=False,
        )
        assert_incremental_parity(config, random_database(seed=5))

    @pytest.mark.parametrize("seed", [0, 4])
    def test_repeated_appends(self, seed):
        """Chunked appends equal one big mine: the state stays consistent."""
        config = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
        database = random_database(seed, n_sequences=16)
        scratch = HTPGM(config).mine(database)
        session = MiningSession(config)
        session.mine(SequenceDatabase(database.sequences[:10]))
        session.append(database.sequences[10:12])
        session.append(database.sequences[12:14])
        incremental = session.append(database.sequences[14:])
        assert mined_tuples(incremental) == mined_tuples(scratch)
        assert session.appends == 3


class TestAppendParityBundledDatasets:
    """The invariant on both bundled synthetic datasets (10% delta)."""

    def test_dataport(self, small_energy, fast_config):
        _, _, sequence_db = small_energy
        assert_incremental_parity(fast_config, sequence_db, base_fraction=0.9)

    def test_smartcity(self, small_smartcity, fast_config):
        _, _, sequence_db = small_smartcity
        assert_incremental_parity(fast_config, sequence_db, base_fraction=0.9)

    def test_dataport_process_engine(self, small_energy, fast_config, process_backend):
        _, _, sequence_db = small_energy
        assert_incremental_parity(
            fast_config, sequence_db, base_fraction=0.9, backend=process_backend
        )


class TestThresholdCrossings:
    """Events crossing the frequency threshold in either direction."""

    @staticmethod
    def _sequence(sequence_id, *events):
        instances = [
            EventInstance(start=start, end=end, series=series, symbol="On")
            for series, start, end in events
        ]
        return TemporalSequence(sequence_id, instances)

    def test_event_becomes_frequent_through_the_delta(self):
        """An event infrequent in the base gains support from delta sequences;
        its old-sequence co-occurrences must surface in the merged result."""
        config = MiningConfig(min_support=0.5, min_confidence=0.5, min_overlap=1.0)
        base = SequenceDatabase(
            [
                self._sequence(0, ("A", 0, 10), ("B", 2, 8)),
                self._sequence(1, ("A", 0, 10), ("B", 2, 8)),
                self._sequence(2, ("A", 0, 10)),
                self._sequence(3, ("A", 0, 10)),
                self._sequence(4, ("A", 0, 10)),
                self._sequence(5, ("A", 0, 10)),
            ]
        )
        # B occurs in 2 of 6 base sequences: infrequent at sigma = 50%.
        assert HTPGM(config).mine(base).involving_series("B") == []
        delta = [
            self._sequence(0, ("A", 0, 10), ("B", 2, 8)),
            self._sequence(0, ("A", 0, 10), ("B", 2, 8)),
        ]
        # In the union B supports 4 of 8 sequences — frequent again — and the
        # CONTAIN pattern (2 old + 2 delta sequences) meets the threshold, so
        # the old-sequence co-occurrences must resurface in the merge.
        full = SequenceDatabase(
            base.sequences
            + [
                TemporalSequence(6, list(delta[0].instances)),
                TemporalSequence(7, list(delta[1].instances)),
            ]
        )
        scratch = HTPGM(config).mine(full)
        session = MiningSession(config)
        session.mine(base)
        incremental = session.append(delta)
        assert mined_tuples(incremental) == mined_tuples(scratch)
        assert incremental.involving_series("B"), "B must be frequent after append"

    def test_event_drops_out_when_threshold_grows(self):
        """A borderline-frequent event loses its status because ceil(sigma*N)
        grows with the appended sequences; its patterns must vanish."""
        config = MiningConfig(min_support=0.5, min_confidence=0.5, min_overlap=1.0)
        base = SequenceDatabase(
            [
                self._sequence(0, ("A", 0, 10), ("B", 2, 8)),
                self._sequence(1, ("A", 0, 10), ("B", 2, 8)),
                self._sequence(2, ("A", 0, 10)),
                self._sequence(3, ("A", 0, 10)),
            ]
        )
        # B supports 2 of 4: exactly at threshold.
        assert HTPGM(config).mine(base).involving_series("B")
        delta = [self._sequence(0, ("A", 0, 10)) for _ in range(4)]
        full = SequenceDatabase(
            base.sequences
            + [
                TemporalSequence(4 + i, list(sequence.instances))
                for i, sequence in enumerate(delta)
            ]
        )
        scratch = HTPGM(config).mine(full)
        session = MiningSession(config)
        session.mine(base)
        incremental = session.append(delta)
        assert mined_tuples(incremental) == mined_tuples(scratch)
        assert incremental.involving_series("B") == []

    def test_deeper_level_appears_only_after_append(self):
        """The base stops at level 2; the delta makes a 3-event pattern
        frequent, so the append must open a level the session never had."""
        config = MiningConfig(min_support=0.6, min_confidence=0.5, min_overlap=1.0)
        triple = (("A", 0.0, 10.0), ("B", 1.0, 9.0), ("C", 2.0, 8.0))
        base = SequenceDatabase(
            [
                self._sequence(0, *triple),
                self._sequence(1, ("A", 0, 10), ("B", 1, 9)),
                self._sequence(2, ("A", 0, 10), ("B", 1, 9)),
            ]
        )
        session = MiningSession(config)
        base_result = session.mine(base)
        assert max((m.size for m in base_result), default=0) == 2
        delta = [self._sequence(0, *triple), self._sequence(0, *triple)]
        full = SequenceDatabase(
            base.sequences
            + [
                TemporalSequence(3 + i, list(sequence.instances))
                for i, sequence in enumerate(delta)
            ]
        )
        scratch = HTPGM(config).mine(full)
        incremental = session.append(delta)
        assert mined_tuples(incremental) == mined_tuples(scratch)
        assert max(m.size for m in incremental) == 3


def _instances(*events):
    """``(series, start, end)`` triples as "On" instances."""
    return [
        EventInstance(start=start, end=end, series=series, symbol="On")
        for series, start, end in events
    ]


_CONTAIN = (("A", 0, 10), ("B", 2, 8))
_FOLLOW = (("A", 0, 10), ("B", 20, 25))
_NESTED = (("A", 0, 20), ("B", 2, 18), ("C", 4, 16))
_CHAIN = (("A", 0, 20), ("B", 30, 35), ("C", 40, 45))
_ALONE = (("A", 0, 10),)

#: Deltas that promote a pattern the base mine did not store, with the
#: delta just large enough: the append's support bound for the promoted
#: pattern equals its support over every sequence, so a bound one smaller
#: would drop it.  Each case: thresholds, base and delta sequences (as
#: event triples), and the promoted pattern's series and relations.
PROMOTIONS = {
    # A contains B in 2 of 6 base sequences, below ceil(0.5 * 6) = 3; the
    # delta brings it to 4 of 8 = ceil(0.5 * 8).
    "failed support": (
        dict(min_support=0.5, min_confidence=0.3),
        [_CONTAIN] * 2 + [_FOLLOW] * 2 + [_ALONE] * 2,
        [_CONTAIN] * 2,
        ("A", "B"),
        (Relation.CONTAIN,),
    ),
    # 5 of A's 10 sequences: confidence 0.5 < 0.6; after the delta 8 / 13.
    "failed confidence": (
        dict(min_support=0.3, min_confidence=0.6),
        [_CONTAIN] * 5 + [_FOLLOW] + [_ALONE] * 4,
        [_CONTAIN] * 3,
        ("A", "B"),
        (Relation.CONTAIN,),
    ),
    # No level-2 pattern passes in the base; the delta promotes the nested
    # triple together with its parent pattern, A contains B.
    "new parent": (
        dict(min_support=0.5, min_confidence=0.3),
        [_NESTED] * 2 + [_CHAIN] * 2 + [_ALONE] * 2,
        [_NESTED] * 2,
        ("A", "B", "C"),
        (Relation.CONTAIN,) * 3,
    ),
    # δ · ES_D = 0.5 · 6 = 3 exactly: confidence 2 / 6 fails, and the
    # largest failing support is 2, not 3; after the delta 4 / 8 = 0.5.
    "exact confidence product": (
        dict(min_support=0.25, min_confidence=0.5),
        [_CONTAIN] * 2 + [_FOLLOW] + [_ALONE] * 3,
        [_CONTAIN] * 2,
        ("A", "B"),
        (Relation.CONTAIN,),
    ),
}


def work_counters(statistics):
    """Work counters of one operation, without the clocks."""
    counters = statistics.as_dict()
    for name in ("level_seconds", "correlation_seconds", "warnings"):
        counters.pop(name)
    return counters


class TestDeltaPassPromotions:
    """An append evaluates touched candidates on the delta sequences only and
    settles a pattern the base did not store by a support bound: it is
    re-evaluated over every sequence only when the bound cannot rule it out.
    Each case promotes a pattern with a bound that is exactly tight, on
    every axis: pruning mode, serial / fork / spawn, vectorized / scalar."""

    @pytest.mark.parametrize("pruning", list(PruningMode))
    @pytest.mark.parametrize("case", sorted(PROMOTIONS))
    def test_promotion_matches_the_scratch_mine(
        self, case, pruning, process_backend, spawn_backend
    ):
        thresholds, base, delta, series, relations = PROMOTIONS[case]
        config = MiningConfig(min_overlap=1.0, pruning=pruning, **thresholds)
        base_db = SequenceDatabase(
            [TemporalSequence(i, _instances(*events)) for i, events in enumerate(base)]
        )
        delta_seqs = [TemporalSequence(0, _instances(*events)) for events in delta]
        full_db = SequenceDatabase(
            base_db.sequences
            + [
                TemporalSequence(len(base) + i, list(sequence.instances))
                for i, sequence in enumerate(delta_seqs)
            ]
        )
        promoted = TemporalPattern(
            events=tuple((name, "On") for name in series), relations=relations
        )
        scratch = MiningSession(config)
        scratch_result = scratch.mine(full_db)
        assert promoted in scratch_result.pattern_set()

        reference = None
        for vectorized in (True, False):
            evaluation = nullcontext() if vectorized else reference_evaluation()
            for backend in (SerialBackend(), process_backend, spawn_backend):
                session = MiningSession(config)
                with evaluation:
                    base_result = session.mine(base_db, backend=backend)
                    assert promoted not in base_result.pattern_set()
                    appended = session.append(delta_seqs, backend=backend)
                assert mined_tuples(appended) == mined_tuples(scratch_result)
                assert store_snapshot(session.graph) == store_snapshot(scratch.graph)
                counters = work_counters(session.statistics)
                assert counters["patterns_found"] == scratch.statistics.patterns_found
                if reference is None:
                    reference = counters
                assert counters == reference, (vectorized, backend.name)


class TestSessionLifecycle:
    def test_mine_twice_rejected(self):
        session = MiningSession(MiningConfig(min_overlap=1.0))
        session.mine(random_database(0))
        with pytest.raises(MiningError):
            session.mine(random_database(1))

    def test_append_before_mine_rejected(self):
        with pytest.raises(MiningError):
            MiningSession().append([])

    @pytest.mark.parametrize("last_id", [-1, 6])
    def test_sequence_ids_outside_the_database_rejected(self, last_id):
        """The ids number the sequences: they index the instance table's
        columns, where a negative id would mine a wrong result silently."""
        database = random_database(5, n_sequences=6)
        ids = [*range(5), last_id]
        renumbered = SequenceDatabase(
            [TemporalSequence(i, list(s.instances)) for i, s in zip(ids, database)]
        )
        with pytest.raises(DataError, match=rf"sequence id {last_id} is outside"):
            MiningSession(MiningConfig(min_overlap=1.0)).mine(renumbered)

    @pytest.mark.parametrize("engine", ["serial", "process"])
    def test_htpgm_session_appends_like_a_scratch_mine(self, engine, request):
        """HTPGM's own session keeps the full store on every backend, so it
        takes appends like any other session."""
        config = MiningConfig(
            min_support=0.3, min_confidence=0.3, min_overlap=1.0, max_pattern_size=3
        )
        backend = (
            SerialBackend()
            if engine == "serial"
            else request.getfixturevalue("process_backend")
        )
        database = random_database(0, n_sequences=16, n_series=3, max_instances=16)
        base, delta = split_database(database, 0.75)
        miner = HTPGM(config, backend=backend)
        miner.mine(base)
        appended = miner.session_.append(delta, backend=backend)
        assert mined_tuples(appended) == mined_tuples(HTPGM(config).mine(database))

    def test_empty_delta_is_identity(self):
        config = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
        database = random_database(2)
        session = MiningSession(config)
        mined = session.mine(database)
        unchanged = session.append([])
        assert mined_tuples(unchanged) == mined_tuples(mined)
        assert session.n_sequences == len(database)

    def test_empty_database_rejected(self):
        with pytest.raises(MiningError):
            MiningSession().mine(SequenceDatabase([]))

    def test_append_reindexes_incoming_sequence_ids(self):
        """Delta sequence ids are ignored; sequences slot in after the base."""
        config = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
        database = random_database(3)
        base, delta = split_database(database, 0.75)
        relabeled = [
            TemporalSequence(999 + i, list(sequence.instances))
            for i, sequence in enumerate(delta)
        ]
        scratch = HTPGM(config).mine(database)
        session = MiningSession(config)
        session.mine(base)
        incremental = session.append(relabeled)
        assert mined_tuples(incremental) == mined_tuples(scratch)

    def test_session_state_is_updated(self):
        config = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
        database = random_database(4)
        base, delta = split_database(database, 0.75)
        session = MiningSession(config)
        session.mine(base)
        assert session.mined
        assert session.n_sequences == len(base)
        session.append(delta)
        assert session.n_sequences == len(database)
        assert session.graph.n_sequences == len(database)
        assert session.statistics.n_sequences == len(database)

    def test_statistics_count_only_incremental_work(self):
        """Appending a small delta generates far fewer candidates than the
        full re-mine — the point of incremental sessions."""
        config = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
        database = random_database(6, n_sequences=16)
        base, delta = split_database(database, 0.9)
        scratch_miner = HTPGM(config)
        scratch_miner.mine(database)
        session = MiningSession(config)
        session.mine(base)
        session.append(delta)
        assert (
            session.statistics.total_candidates
            <= scratch_miner.statistics_.total_candidates
        )
        # patterns_found describes the merged state, matching the result.
        result = session.append([])
        assert session.statistics.total_patterns == len(result) + len(
            session.graph.level1
        )

    def test_append_leaves_nothing_holding_the_replaced_instance_lists(self):
        """An append replaces the level-1 instance dict of every event the
        delta adds instances to.  Pattern entries are values over arrays, so
        once the append returns nothing in the session — no entry re-admitted
        or settled from the old graph — still refers to a replaced dict."""
        config = MiningConfig(min_support=0.2, min_confidence=0.2, min_overlap=1.0)
        database = random_database(0, n_sequences=30, n_series=3)
        session = MiningSession(config)
        session.mine(SequenceDatabase(database.sequences[:28]))
        before = {
            key: node.instances_by_sequence
            for key, node in session.graph.level1.items()
        }
        session.append(database.sequences[28:])
        gc.collect()
        replaced = [
            instances
            for key, instances in before.items()
            if session.events[key].instances_by_sequence is not instances
        ]
        assert replaced, "the delta must replace a level-1 instance dict"
        ours = (before, replaced)
        holders = [
            type(holder).__name__
            for instances in replaced
            for holder in gc.get_referrers(instances)
            if not isinstance(holder, types.FrameType)
            and not any(holder is own for own in ours)
        ]
        assert holders == []


class TestHTPGMFacade:
    def test_wrapper_still_populates_graph_and_statistics(self):
        miner = HTPGM(MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0))
        result = miner.mine(random_database(0))
        assert miner.graph_ is not None
        assert miner.statistics_ is not None
        # patterns_found counts the level-1 events plus every stored pattern.
        assert miner.statistics_.total_patterns == len(result) + len(
            miner.graph_.level1
        )
        assert miner.session_.graph is miner.graph_

    def test_htpgm_session_keeps_every_event(self):
        """Infrequent events stay in the session: an append may promote them."""
        config = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
        miner = HTPGM(config)
        miner.mine(random_database(0))
        session = MiningSession(config)
        session.mine(random_database(0))
        assert set(miner.session_.events) == set(session.events)
        assert len(miner.session_.events) > len(miner.graph_.level1)
