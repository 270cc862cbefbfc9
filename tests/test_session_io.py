"""Save/load round-trips for incremental mining sessions (repro.io.session_io)."""

from __future__ import annotations

import copyreg
import pickle

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
from repro.io.session_io import FORMAT_NAME, FORMAT_VERSION

from test_engine_parity import store_snapshot
from test_session import mined_tuples, random_database, split_database

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
        assert loaded.retain_occurrences
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

    def test_level1_nodes_share_identity_with_events(self, mined_session, tmp_path):
        path = write_session(mined_session, tmp_path / "state.bin")
        loaded = read_session(path)
        for key, node in loaded.graph.level1.items():
            assert loaded.events[key] is node


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
    """Pickles as a version-2 ``PatternEntry``: instance-tuple occurrences."""

    def __init__(self, entry):
        self.entry = entry

    def __reduce__(self):
        state = {
            "pattern": self.entry.pattern,
            "occurrences": self.entry.occurrences,
            "occurrence_counts": self.entry.occurrence_counts,
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
                for entry in node.patterns.values():
                    entry.bind_sources(payload["events"])
                node.patterns = {
                    pattern: _Version2Entry(entry)
                    for pattern, entry in node.patterns.items()
                }
        del payload["mining_state"]
        payload["version"] = 2
        return payload

    @staticmethod
    def _as_v3(payload):
        """A freshly written payload stamped version 3.  (A real version-3
        config also carries two fields version 4 dropped; they unpickle as
        plain attributes, so the version gate is what rejects the file.)"""
        payload["version"] = 3
        return payload

    @pytest.mark.parametrize("version", [2, 3])
    def test_older_file_names_its_version(self, deep_session, tmp_path, version):
        path = write_session(deep_session, tmp_path / "state.bin")
        assert pickle.loads(path.read_bytes())["version"] == FORMAT_VERSION == 4
        rewrite = self._as_v2 if version == 2 else self._as_v3
        path.write_bytes(pickle.dumps(rewrite(pickle.loads(path.read_bytes()))))
        with pytest.raises(SessionFormatError, match="re-mine to upgrade") as excinfo:
            read_session(path)
        assert excinfo.value.path == path
        assert excinfo.value.version == version
        assert f"version {version}" in str(excinfo.value)
        assert str(path) in str(excinfo.value)

    def test_cli_append_to_a_version_3_file_exits_1(
        self, deep_session, tmp_path, capsys
    ):
        path = write_session(deep_session, tmp_path / "state.bin")
        path.write_bytes(pickle.dumps(self._as_v3(pickle.loads(path.read_bytes()))))
        code = main(
            [
                "mine", "--append", str(tmp_path / "new.csv"),
                "--session", str(path),
                "--output", str(tmp_path / "out.json"), "--window", "60",
            ]
        )
        assert code == 1
        assert "re-mine to upgrade" in capsys.readouterr().err


class TestVersion4RoundTrip:
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
        # The matrices resolve against the rebound level-1 instance lists.
        for (_, _, loaded_entry), (_, _, entry) in zip(
            loaded.graph.iter_pattern_entries(), session.graph.iter_pattern_entries()
        ):
            assert loaded_entry.occurrences == entry.occurrences

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


class TestGuards:
    def test_unmined_session_rejected(self, tmp_path):
        with pytest.raises(MiningError):
            write_session(MiningSession(CONFIG), tmp_path / "state.bin")

    def test_throwaway_session_rejected(self, tmp_path):
        session = MiningSession(CONFIG, retain_occurrences=False)
        session.mine(random_database(0))
        with pytest.raises(MiningError):
            write_session(session, tmp_path / "state.bin")

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
