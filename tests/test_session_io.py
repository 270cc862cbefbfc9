"""Save/load round-trips for incremental mining sessions (repro.io.session_io)."""

from __future__ import annotations

import copyreg
import pickle
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import (
    DataError,
    MiningConfig,
    MiningError,
    MiningSession,
    PruningMode,
    SessionFormatError,
)
from repro.cli import main
from repro.core.hpg import PatternEntry
from repro.io import read_session, write_session
from repro.io.session_io import FORMAT_NAME, FORMAT_VERSION, _SessionUnpickler

from test_engine_parity import assert_same_occurrences, store_snapshot
from test_session import mined_tuples, random_database, split_database

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
import write_session_fixture as session_fixture  # noqa: E402

CONFIG = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)


@pytest.fixture()
def mined_session():
    session = MiningSession(CONFIG)
    session.mine(random_database(0, n_sequences=14))
    return session


class TestRoundTrip:
    def test_loaded_session_equals_original(self, mined_session, tmp_path):
        path = write_session(mined_session, tmp_path / "state.bin")
        loaded = read_session(path)
        assert loaded.config == mined_session.config
        assert loaded.n_sequences == mined_session.n_sequences
        assert loaded.appends == mined_session.appends
        assert set(loaded.events) == set(mined_session.events)
        assert list(loaded.graph.level1) == list(mined_session.graph.level1)
        assert {
            level: set(nodes) for level, nodes in loaded.graph.levels.items()
        } == {
            level: set(nodes)
            for level, nodes in mined_session.graph.levels.items()
        }

    def test_append_after_reload_matches_append_on_original(
        self, mined_session, tmp_path
    ):
        """The acid test: persistence must not perturb the merge."""
        delta = random_database(9, n_sequences=3).sequences
        path = write_session(mined_session, tmp_path / "state.bin")
        loaded = read_session(path)
        original_result = mined_session.append(list(delta))
        loaded_result = loaded.append(list(delta))
        assert mined_tuples(loaded_result) == mined_tuples(original_result)

    def test_save_load_save_chain(self, tmp_path):
        """Sessions survive repeated persist/append cycles, as the CLI does."""
        database = random_database(1, n_sequences=16)
        base, delta = split_database(database, 0.75)
        session = MiningSession(CONFIG)
        session.mine(base)
        path = tmp_path / "state.bin"
        for sequence in delta:
            write_session(session, path)
            session = read_session(path)
            result = session.append([sequence])
        from repro import HTPGM

        assert mined_tuples(result) == mined_tuples(HTPGM(CONFIG).mine(database))
        assert session.appends == len(delta)

    def test_htpgm_session_round_trips(self, tmp_path):
        """HTPGM's own session saves like any other, and the reloaded state
        takes appends."""
        from repro import HTPGM

        database = random_database(1, n_sequences=16)
        base, delta = split_database(database, 0.75)
        miner = HTPGM(CONFIG)
        miner.mine(base)
        loaded = read_session(write_session(miner.session_, tmp_path / "state.bin"))
        assert store_snapshot(loaded.graph) == store_snapshot(miner.graph_)
        assert mined_tuples(loaded.append(delta)) == mined_tuples(
            HTPGM(CONFIG).mine(database)
        )

    def test_level1_nodes_share_identity_with_events(self, mined_session, tmp_path):
        path = write_session(mined_session, tmp_path / "state.bin")
        loaded = read_session(path)
        for key, node in loaded.graph.level1.items():
            assert loaded.events[key] is node


@pytest.fixture(params=sorted(session_fixture.FIXTURES))
def committed_version(request):
    """The format version of one committed session file."""
    return request.param


class TestCommittedSessionFile:
    """Each committed file, written by an earlier build (see
    ``tests/golden/write_session_fixture.py`` for their provenance), loads
    in this one: same-build round trips cannot see a change to the pickled
    state of a session object.  The format-5 file's nodes still carry the
    retired ``repro.core.bitmap.Bitmap``, which only the session reader's
    unpickler resolves, and its entries one sequence id per run."""

    def test_loads_like_a_fresh_mine_and_takes_the_append(self, committed_version):
        fixture = session_fixture.FIXTURES[committed_version]
        with fixture.open("rb") as handle:
            assert _SessionUnpickler(handle).load()["version"] == committed_version
        loaded = read_session(fixture)
        fresh = MiningSession(session_fixture.CONFIG)
        fresh_result = fresh.mine(session_fixture.base_database())
        assert loaded.graph.levels.get(3), "the file must reach level 3"
        assert mined_tuples(loaded.result()) == mined_tuples(fresh_result)
        assert store_snapshot(loaded.graph) == store_snapshot(fresh.graph)
        assert_same_occurrences(loaded.graph, fresh.graph)

        database = session_fixture.full_database()
        appended = loaded.append(database.sequences[-session_fixture.HELD_BACK :])
        scratch = MiningSession(session_fixture.CONFIG)
        assert mined_tuples(appended) == mined_tuples(scratch.mine(database))
        assert store_snapshot(loaded.graph) == store_snapshot(scratch.graph)
        assert_same_occurrences(loaded.graph, scratch.graph)

    def test_loaded_nodes_have_a_fresh_nodes_fields(self, committed_version):
        """A format-5 file's stale node bitmaps are dropped on load."""
        loaded = read_session(session_fixture.FIXTURES[committed_version])
        fresh = MiningSession(session_fixture.CONFIG)
        fresh.mine(session_fixture.base_database())
        combinations = [
            node for nodes in loaded.graph.levels.values() for node in nodes.values()
        ]
        assert combinations
        event_fields = vars(next(iter(fresh.events.values()))).keys()
        combination_fields = vars(fresh.graph.nodes_at(2)[0]).keys()
        for node in loaded.events.values():
            assert vars(node).keys() == event_fields
        for node in combinations:
            assert vars(node).keys() == combination_fields

    def test_the_loaded_session_round_trips(self, committed_version, tmp_path):
        loaded = read_session(session_fixture.FIXTURES[committed_version])
        path = write_session(loaded, tmp_path / "state.bin")
        assert pickle.loads(path.read_bytes())["version"] == FORMAT_VERSION
        reread = read_session(path)
        assert store_snapshot(reread.graph) == store_snapshot(loaded.graph)
        assert mined_tuples(reread.result()) == mined_tuples(loaded.result())


@pytest.fixture()
def deep_session():
    """A session whose graph reaches level 3 (the default ``mined_session``
    database mines nothing at level 2, which would make store-equality
    assertions vacuous)."""
    session = MiningSession(
        MiningConfig(min_support=0.25, min_confidence=0.25, min_overlap=1.0)
    )
    session.mine(random_database(0, n_sequences=14, n_series=3, max_instances=16))
    assert session.graph.levels.get(3), "fixture must reach level 3"
    return session


class _Version2Entry:
    """Pickles as a version-2 ``PatternEntry``: instance-tuple occurrences,
    resolved against ``level1``."""

    def __init__(self, entry, level1):
        self.entry, self.level1 = entry, level1

    def __reduce__(self):
        state = {
            "pattern": self.entry.pattern,
            "occurrences": self.entry.occurrences(self.level1),
            "occurrence_counts": None,
        }
        return copyreg._reconstructor, (PatternEntry, object, None), state


class _Version4Entry:
    """Pickles as a version-4 ``PatternEntry``: an ``index`` dict of
    per-sequence matrices."""

    def __init__(self, entry):
        self.entry = entry

    def __reduce__(self):
        state = {
            "pattern": self.entry.pattern,
            "index": dict(self.entry.iter_index_matrices()),
        }
        return copyreg._reconstructor, (PatternEntry, object, None), state


class TestOlderVersionsRejected:
    """Only the current format is read; older files name their version and
    ask to be re-mined instead of being migrated."""

    @staticmethod
    def _as_v2(payload):
        """A freshly written payload in the version-2 wire shape."""
        for nodes in payload["levels"].values():
            for node in nodes.values():
                node.patterns = {
                    pattern: _Version2Entry(entry, payload["events"])
                    for pattern, entry in node.patterns.items()
                }
        del payload["mining_state"]
        payload["version"] = 2
        return payload

    @staticmethod
    def _as_v3(payload):
        """A freshly written payload in the version-4 wire shape, stamped
        version 3.  (A real version-3 config also carries two fields version
        4 dropped; they unpickle as plain attributes, so the version gate is
        what rejects the file.)"""
        payload = TestOlderVersionsRejected._as_v4(payload)
        payload["version"] = 3
        return payload

    @staticmethod
    def _as_v4(payload):
        """A freshly written payload in the version-4 wire shape."""
        for nodes in payload["levels"].values():
            for node in nodes.values():
                node.patterns = {
                    pattern: _Version4Entry(entry)
                    for pattern, entry in node.patterns.items()
                }
        payload["version"] = 4
        return payload

    def _write_older(self, session, tmp_path, version):
        path = write_session(session, tmp_path / "state.bin")
        assert pickle.loads(path.read_bytes())["version"] == FORMAT_VERSION == 6
        rewrite = {2: self._as_v2, 3: self._as_v3, 4: self._as_v4}[version]
        path.write_bytes(pickle.dumps(rewrite(pickle.loads(path.read_bytes()))))
        return path

    @pytest.mark.parametrize("version", [2, 3, 4])
    def test_older_file_names_its_version(self, deep_session, tmp_path, version):
        path = self._write_older(deep_session, tmp_path, version)
        with pytest.raises(SessionFormatError, match="re-mine to upgrade") as excinfo:
            read_session(path)
        assert excinfo.value.path == path
        assert excinfo.value.version == version
        assert f"version {version}" in str(excinfo.value)
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize("version", [3, 4])
    def test_cli_append_to_an_older_file_exits_1(
        self, deep_session, tmp_path, capsys, version
    ):
        path = self._write_older(deep_session, tmp_path, version)
        code = main(
            [
                "mine", "--append", str(tmp_path / "new.csv"),
                "--session", str(path),
                "--output", str(tmp_path / "out.json"), "--window", "60",
            ]
        )
        assert code == 1
        assert "re-mine to upgrade" in capsys.readouterr().err


class TestCurrentFormatRoundTrip:
    """A current-format file restores the whole occurrence store, and an
    append to the restored session equals the from-scratch mine, in every
    pruning mode."""

    @staticmethod
    def _config(pruning, allow_self=True):
        return MiningConfig(
            min_support=0.25,
            min_confidence=0.25,
            min_overlap=1.0,
            pruning=pruning,
            allow_self_relations=allow_self,
        )

    @staticmethod
    def _database():
        return random_database(0, n_sequences=14, n_series=3, max_instances=16)

    @pytest.mark.parametrize("pruning", list(PruningMode))
    @pytest.mark.parametrize("allow_self", [True, False])
    def test_store_survives_the_round_trip(self, pruning, allow_self, tmp_path):
        session = MiningSession(self._config(pruning, allow_self))
        session.mine(self._database())
        assert session.graph.levels.get(3)
        path = write_session(session, tmp_path / "state.bin")
        assert pickle.loads(path.read_bytes())["version"] == FORMAT_VERSION
        loaded = read_session(path)
        assert store_snapshot(loaded.graph) == store_snapshot(session.graph)
        # The matrices resolve against the loaded level-1 instance lists.
        assert_same_occurrences(loaded.graph, session.graph)

    @pytest.mark.parametrize("pruning", list(PruningMode))
    def test_append_to_a_loaded_file_equals_the_scratch_mine(
        self, pruning, tmp_path
    ):
        config = self._config(pruning)
        database = self._database()
        base, delta = split_database(database, 0.75)
        session = MiningSession(config)
        session.mine(base)
        loaded = read_session(write_session(session, tmp_path / "state.bin"))
        appended = loaded.append(delta)
        scratch = MiningSession(config)
        assert mined_tuples(appended) == mined_tuples(scratch.mine(database))
        assert store_snapshot(loaded.graph) == store_snapshot(scratch.graph)


#: One value of a wrong type per session field of the envelope.
_WRONG_TYPES = {
    "config": None,
    "n_sequences": "14",
    "events": [],
    "level1_keys": None,
    "levels": [],
    "statistics": {},
    "appends": None,
    "mining_state": {"next_level": "x"},
}


class TestGuards:
    def test_unmined_session_rejected(self, tmp_path):
        with pytest.raises(MiningError):
            write_session(MiningSession(CONFIG), tmp_path / "state.bin")

    def test_filtered_session_rejected(self, tmp_path):
        session = MiningSession(CONFIG, event_filter=lambda key: True)
        session.mine(random_database(0))
        with pytest.raises(MiningError):
            write_session(session, tmp_path / "state.bin")

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"this is not a session")
        with pytest.raises(DataError):
            read_session(path)

    def test_foreign_pickle_rejected(self, tmp_path):
        path = tmp_path / "other.bin"
        path.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(DataError):
            read_session(path)

    def test_well_formed_envelope_with_missing_keys_rejected(
        self, mined_session, tmp_path
    ):
        path = write_session(mined_session, tmp_path / "state.bin")
        payload = pickle.loads(path.read_bytes())
        del payload["events"]
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(DataError, match="missing session payload"):
            read_session(path)

    @pytest.mark.parametrize("name", list(_WRONG_TYPES))
    def test_a_field_of_the_wrong_type_is_rejected(
        self, mined_session, tmp_path, name
    ):
        """A field of the wrong type is refused on load, naming the field;
        a ``None`` config would otherwise load as the default config."""
        path = write_session(mined_session, tmp_path / "state.bin")
        payload = pickle.loads(path.read_bytes())
        payload[name] = _WRONG_TYPES[name]
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(SessionFormatError, match=f"entry '{name}'") as error:
            read_session(path)
        assert error.value.path == path
        assert error.value.version == FORMAT_VERSION

    def test_pickle_referencing_unknown_module_rejected(self, tmp_path):
        """A foreign pickle whose classes are not installed here must be a
        DataError, not a raw ModuleNotFoundError traceback."""
        path = tmp_path / "foreign.bin"
        # Protocol-2 pickle of an instance of no_such_module_xyz.Thing.
        path.write_bytes(
            b"\x80\x02cno_such_module_xyz\nThing\nq\x00)\x81q\x01."
        )
        with pytest.raises(DataError):
            read_session(path)

    def test_unsupported_version_rejected(self, mined_session, tmp_path):
        path = write_session(mined_session, tmp_path / "state.bin")
        payload = pickle.loads(path.read_bytes())
        assert payload["format"] == FORMAT_NAME
        payload["version"] = FORMAT_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(DataError):
            read_session(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_session(tmp_path / "missing.bin")

    @pytest.mark.parametrize("bad_index", [-1, 10_000])
    def test_corrupted_index_matrix_rejected(self, deep_session, tmp_path, bad_index):
        """A session file whose index matrices point outside the instance lists is
        a clean DataError at load time — a negative index would otherwise
        silently materialise the wrong instance via Python indexing."""
        path = write_session(deep_session, tmp_path / "state.bin")
        payload = pickle.loads(path.read_bytes())
        node = next(iter(payload["levels"][2].values()))
        entry = next(iter(node.patterns.values()))
        sequence_id, matrix = next(entry.iter_index_matrices())
        matrix[0, 0] = bad_index
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(DataError, match="occurrence evidence inconsistent"):
            read_session(path)


class _Version5Entry:
    """Pickles as a version-5 ``PatternEntry``: one ``int32`` id per
    sequence run, ``int64`` run bounds ``offsets`` and the row block, as
    ``edit`` (if any) leaves them."""

    def __init__(self, entry, edit=None):
        self.entry, self.edit = entry, edit

    def __reduce__(self):
        ids, counts = np.unique(self.entry.sequences, return_counts=True)
        state = {
            "pattern": self.entry.pattern,
            "sequences": ids.astype(np.int32),
            "offsets": np.r_[0, np.cumsum(counts)].astype(np.int64),
            "rows": self.entry.rows,
        }
        if self.edit is not None:
            state = self.edit(state)
        return copyreg._reconstructor, (PatternEntry, object, None), state


def _as_v5(payload, edits=None):
    """A freshly written payload in the version-5 wire shape; ``edits``
    maps a pattern to the edit of its entry's state."""
    edits = edits or {}
    for nodes in payload["levels"].values():
        for node in nodes.values():
            node.patterns = {
                pattern: _Version5Entry(entry, edits.get(pattern))
                for pattern, entry in node.patterns.items()
            }
    payload["version"] = 5
    return payload


def _run_free_sequence(session, entry):
    """A sequence the entry does not list where every one of its events has
    instances, so an empty run there would read as one more supporting
    sequence."""
    listed = set(entry.sequences.tolist())
    for sequence_id in range(session.n_sequences):
        if sequence_id not in listed and all(
            session.graph.level1[event].instances_by_sequence.get(sequence_id)
            for event in entry.pattern.events
        ):
            return sequence_id
    raise AssertionError("fixture entry occurs wherever its events do")


def _with_empty_run(session, entry):
    sequence_id = _run_free_sequence(session, entry)

    def edit(state):
        position = int(np.searchsorted(state["sequences"], sequence_id))
        offsets = state["offsets"]
        state["sequences"] = np.insert(state["sequences"], position, sequence_id)
        state["offsets"] = np.insert(offsets, position, offsets[position])
        return state

    return edit


def _edited(**changes):
    """An edit replacing state entries by ``changes[name](state[name])``."""

    def edit(state):
        state.update({name: change(state[name]) for name, change in changes.items()})
        return state

    return lambda session, entry: edit


def _swapped_bounds(offsets):
    offsets = offsets.copy()
    offsets[[1, 2]] = offsets[[2, 1]]
    return offsets


#: Version-5 entries breaking version 5's rules, each an edit of one
#: entry's valid state, and the rule that rejects them.
_MALFORMED_V5 = {
    "empty-run": (_with_empty_run, "one non-empty run per sequence"),
    "decreasing-bound": (
        _edited(offsets=_swapped_bounds),
        "one non-empty run per sequence",
    ),
    "duplicate-run-id": (
        _edited(sequences=lambda ids: np.r_[ids[:1], ids[:-1]].astype(np.int32)),
        "not strictly ascending",
    ),
    "bounds-past-the-rows": (
        _edited(rows=lambda rows: rows[:-1].copy()),
        "one non-empty run per sequence",
    ),
}

#: Malformed entries of the current format, each built from one entry's
#: valid ``(sequences, rows)``, and the rule that rejects them.
_MALFORMED = {
    "descending-sequences": (
        lambda session, entry: (entry.sequences[::-1].copy(), entry.rows),
        "not sorted",
    ),
    "sequence-past-the-end": (
        lambda session, entry: (
            np.r_[entry.sequences[:-1], session.n_sequences].astype(np.int32),
            entry.rows,
        ),
        r"inside \[0, \d+\)",
    ),
    "negative-sequence": (
        lambda session, entry: (
            np.r_[-1, entry.sequences[1:]].astype(np.int32),
            entry.rows,
        ),
        r"inside \[0, \d+\)",
    ),
    "more-ids-than-rows": (
        lambda session, entry: (entry.sequences, entry.rows[:-1].copy()),
        r"has \d+ sequence ids for \d+ rows",
    ),
    "int64-sequences": (
        lambda session, entry: (entry.sequences.astype(np.int64), entry.rows),
        "sequences of .* is not a 1-D int32 array",
    ),
    "wrong-column-count": (
        lambda session, entry: (entry.sequences, entry.rows[:, :-1].copy()),
        "have 1 columns, not 2",
    ),
    "float64-rows": (
        lambda session, entry: (entry.sequences, entry.rows.astype(np.float64)),
        "not a 2-D int32 array",
    ),
}


class TestMalformedEvidence:
    """Files whose entries break their format's layout rules are a clean
    DataError at load time, never a silently wrong store."""

    @staticmethod
    def _entry(session):
        """The level-2 entry with the most supporting sequences."""
        return max(
            (
                entry
                for node in session.graph.levels[2].values()
                for entry in node.patterns.values()
            ),
            key=lambda entry: entry.support,
        )

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_malformed_arrays_rejected(self, deep_session, tmp_path, case):
        entry = self._entry(deep_session)
        assert entry.support >= 3
        path = write_session(deep_session, tmp_path / "state.bin")
        payload = pickle.loads(path.read_bytes())
        node = payload["levels"][2][tuple(sorted(entry.pattern.events))]
        build, rule = _MALFORMED[case]
        node.patterns[entry.pattern] = PatternEntry(
            entry.pattern, *build(deep_session, entry)
        )
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(SessionFormatError, match="evidence inconsistent") as error:
            read_session(path)
        assert error.value.version == FORMAT_VERSION
        assert re.search(rule, str(error.value))
        # The untouched file still reads.
        read_session(write_session(deep_session, tmp_path / "state.bin"))

    def test_a_version_5_file_converts_to_the_same_store(self, deep_session, tmp_path):
        path = write_session(deep_session, tmp_path / "state.bin")
        path.write_bytes(pickle.dumps(_as_v5(pickle.loads(path.read_bytes()))))
        loaded = read_session(path)
        assert store_snapshot(loaded.graph) == store_snapshot(deep_session.graph)
        assert mined_tuples(loaded.result()) == mined_tuples(deep_session.result())

    @pytest.mark.parametrize("case", sorted(_MALFORMED_V5))
    def test_malformed_version_5_entries_rejected(self, deep_session, tmp_path, case):
        """Version 5's rules are checked before an entry is converted: an
        empty run would otherwise vanish in the conversion, and run ids or
        bounds out of order would scatter a sequence's rows."""
        entry = self._entry(deep_session)
        assert entry.support >= 3
        path = write_session(deep_session, tmp_path / "state.bin")
        build, rule = _MALFORMED_V5[case]
        edits = {entry.pattern: build(deep_session, entry)}
        path.write_bytes(pickle.dumps(_as_v5(pickle.loads(path.read_bytes()), edits)))
        with pytest.raises(SessionFormatError, match="evidence inconsistent") as error:
            read_session(path)
        assert error.value.path == path
        assert str(path) in str(error.value)
        assert error.value.version == 5
        assert re.search(rule, str(error.value))


def _malformed_level1(session, case):
    """Edit one event's level-1 state the way ``case`` names; return the
    event."""
    n_sequences = session.n_sequences
    event, node = next(
        (event, node)
        for event, node in session.events.items()
        if node.support < n_sequences
    )
    lists = node.instances_by_sequence
    absent = next(s for s in range(n_sequences) if s not in lists)
    instances = next(iter(lists.values()))
    if case == "negative-id":
        lists[-1] = instances
    elif case == "empty-list":
        lists[absent] = []
    elif case == "id-past-the-end":
        lists[n_sequences] = instances
    elif case == "bool-id":
        lists[True] = lists.pop(1, instances)
    elif case == "not-a-node":
        session.events[event] = lists
    else:
        other = next(node for key, node in session.events.items() if key != event)
        session.events[event] = other
    return event


class TestMalformedLevel1:
    """The instance dicts' keys are each event's sequence set, so level-1
    state the miner could not have written is refused on load, naming the
    event: a negative sequence id (NumPy would count its list in the last
    sequence's column of every instance table), an empty list (an inflated
    support), an id past the end, a ``bool`` id, another event's node or no
    node at all."""

    @pytest.mark.parametrize(
        "case",
        [
            "negative-id",
            "empty-list",
            "id-past-the-end",
            "another-node",
            "bool-id",
            "not-a-node",
        ],
    )
    def test_malformed_level1_rejected(self, tmp_path, case):
        session = MiningSession(CONFIG)
        session.mine(random_database(5, n_sequences=12))
        event = _malformed_level1(session, case)
        path = write_session(session, tmp_path / "state.bin")
        with pytest.raises(SessionFormatError, match=re.escape(repr(event))) as error:
            read_session(path)
        assert error.value.path == path
        assert error.value.version == FORMAT_VERSION


class TestAtomicWrite:
    """write_session must never corrupt an existing snapshot mid-write: the
    payload goes to a same-directory temp file, is fsynced, and replaces the
    destination atomically via os.replace."""

    def test_failure_mid_write_leaves_the_previous_file_intact(
        self, mined_session, tmp_path, monkeypatch
    ):
        import repro.io.session_io as session_io_module

        path = write_session(mined_session, tmp_path / "state.bin")
        original_bytes = path.read_bytes()

        def exploding_dump(payload, handle, protocol=None):
            handle.write(b"half a payload")
            raise OSError("disk full")

        monkeypatch.setattr(session_io_module.pickle, "dump", exploding_dump)
        with pytest.raises(OSError, match="disk full"):
            write_session(mined_session, path)
        assert path.read_bytes() == original_bytes
        read_session(path)  # still a loadable snapshot
        assert list(tmp_path.iterdir()) == [path]  # temp file cleaned up

    def test_failure_on_a_fresh_path_leaves_nothing_behind(
        self, mined_session, tmp_path, monkeypatch
    ):
        import repro.io.session_io as session_io_module

        def exploding_dump(payload, handle, protocol=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(session_io_module.pickle, "dump", exploding_dump)
        with pytest.raises(RuntimeError, match="boom"):
            write_session(mined_session, tmp_path / "state.bin")
        assert list(tmp_path.iterdir()) == []

    def test_successful_write_leaves_only_the_destination(
        self, mined_session, tmp_path
    ):
        path = write_session(mined_session, tmp_path / "state.bin")
        assert list(tmp_path.iterdir()) == [path]
        loaded = read_session(path)
        assert loaded.n_sequences == mined_session.n_sequences

    def test_overwrite_is_a_replace_not_a_truncate_then_write(
        self, mined_session, tmp_path
    ):
        path = write_session(mined_session, tmp_path / "state.bin")
        first_stat = path.stat()
        write_session(mined_session, path)
        # A rename-over gives the destination a fresh inode; a truncating
        # open would have kept it.
        assert path.stat().st_ino != first_stat.st_ino
        read_session(path)
