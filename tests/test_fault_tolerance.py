"""Fault tolerance: injected faults must never change the mined output.

The execution layer promises that worker crashes, hangs, transport failures
and pool loss are recovered — by retrying shards or degrading to in-process
evaluation — without any effect on the mined pattern set or its occurrence
evidence.  These tests drive every recovery path with the deterministic
fault-injection harness (:mod:`repro.core.faults`), across both start
methods, asserting:

* byte-identical patterns *and* occurrence-store snapshot versus a serial run,
* the retry/degradation events recorded in :class:`MiningStatistics`.

Checkpoint/resume gets the same treatment, including a subprocess run killed
mid-mine by an injected coordinator ``os._exit`` (the closest stand-in for
SIGKILL) and resumed with ``--resume`` to the identical final result.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro import (
    HTPGM,
    ConfigurationError,
    DataError,
    MiningConfig,
    MiningError,
    MiningSession,
    ProcessPoolBackend,
    RetryPolicy,
    SerialBackend,
    SessionFormatError,
)
from repro.core import faults
from repro.core.faults import FaultPlan, FaultSpec
from repro.cli import main as cli_main
from repro.io import read_session, write_session
from repro.io.session_io import FORMAT_NAME
from repro.timeseries import SequenceDatabase

from test_engine_parity import (
    mined_tuples,
    random_database,
    run_fake_shards,
    store_snapshot,
)

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
from regenerate import golden_counters  # noqa: E402

CONFIG = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)

#: No backoff sleeps in tests — determinism comes from the plan, not timing.
FAST_RETRY = RetryPolicy(max_retries=2, backoff_seconds=0.0)

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


# Module-level so the spawn transport can pickle references.
def _echo_shard(payload, items):
    return list(items)


def _crashing_shard(payload, items):
    os._exit(13)


def _mine_with_plan(database, plan, **backend_kwargs):
    """Mine ``database`` on a process backend armed with ``plan``."""
    backend_kwargs.setdefault("retry", FAST_RETRY)
    backend = ProcessPoolBackend(
        n_workers=2,
        min_candidates_per_worker=1,
        fault_plan=plan,
        **backend_kwargs,
    )
    session = MiningSession(CONFIG)
    try:
        result = session.mine(database, backend=backend)
    finally:
        backend.close()
    return session, result, backend


@pytest.fixture(scope="module")
def baseline():
    """Serial reference run the faulted runs must match byte-for-byte."""
    database = random_database(seed=17, n_sequences=10, max_instances=9)
    session = MiningSession(CONFIG)
    result = session.mine(database, backend=SerialBackend())
    return database, session, result


class TestFaultPlan:
    def test_parse_round_trips_every_field(self):
        plan = FaultPlan.parse("crash:level=2,shard=1;hang:seconds=0.5,times=3")
        assert plan.specs == (
            FaultSpec(kind="crash", level=2, shard=1),
            FaultSpec(kind="hang", seconds=0.5, times=3),
        )

    def test_parse_empty_and_none_are_no_faults(self):
        assert not FaultPlan.parse(None)
        assert not FaultPlan.parse("  ")

    @pytest.mark.parametrize(
        "text",
        [
            "meteor:level=2",  # unknown kind
            "crash:level",  # missing value
            "crash:level=two",  # non-integer
            "crash:colour=red",  # unknown key
            "crash:times=0",  # out of range
            "shm:level=2",  # no shared-memory transport, so no such kind
        ],
    )
    def test_malformed_specs_rejected(self, text):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse(text)

    def test_take_consumes_matching_specs_in_order(self):
        plan = FaultPlan.parse("crash:level=2,times=2;pickle:level=2")
        assert plan.take(faults.WORKER_KINDS, 2, 0) == ("crash", 60.0)
        assert plan.take(faults.WORKER_KINDS, 2, 1) == ("crash", 60.0)
        assert plan.take(faults.WORKER_KINDS, 2, 0) == ("pickle", 60.0)
        assert plan.take(faults.WORKER_KINDS, 2, 0) is None
        assert plan.take(faults.WORKER_KINDS, 3, 0) is None

    def test_wildcards_match_any_coordinate(self):
        plan = FaultPlan.parse("crash")
        assert plan.take(faults.WORKER_KINDS, 7, 3) == ("crash", 60.0)

    def test_environment_plan_is_parsed_fresh(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "crash:level=2")
        assert faults.active_plan().specs == (FaultSpec(kind="crash", level=2),)
        monkeypatch.delenv("REPRO_FAULT")
        assert not faults.active_plan()

    def test_installed_plan_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "crash:level=2")
        plan = FaultPlan.parse("hang:level=3")
        faults.install_plan(plan)
        try:
            assert faults.active_plan() is plan
        finally:
            faults.install_plan(None)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_seconds=-0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(shard_timeout=0.0)

    def test_delay_is_deterministic_and_grows(self):
        policy = RetryPolicy(backoff_seconds=0.1, backoff_multiplier=2.0)
        assert [policy.delay(i) for i in range(3)] == [0.1, 0.2, 0.4]

    def test_config_threads_the_policy(self):
        policy = RetryPolicy(max_retries=5, shard_timeout=9.0)
        config = CONFIG.with_retry(policy)
        assert config.retry == policy
        backend = ProcessPoolBackend(n_workers=2, retry=policy)
        backend.close()
        assert backend.retry == policy


@pytest.fixture(scope="module")
def deep_baseline():
    """A serial reference that mines to level 4, so level-3 shards carry
    real occurrence evidence built from their level-2 parents."""
    database = random_database(seed=23, n_sequences=10, max_instances=14)
    session = MiningSession(CONFIG)
    result = session.mine(database, backend=SerialBackend())
    assert session.graph.levels.get(3), "the reference must mine level 3"
    return database, session, result


# One spec per worker-fault kind, aimed at the (always sharded) pair level.
_WORKER_FAULTS = {
    "crash": "crash:level=2,shard=1",
    "hang": "hang:level=2,shard=0,seconds=30",
    "pickle": "pickle:level=2,shard=1",
}


def _assert_fault_preserves_parity(reference, kind, spec, level, start_method):
    database, serial_session, serial_result = reference
    retry = FAST_RETRY
    if kind == "hang":
        retry = replace(FAST_RETRY, shard_timeout=5.0)
    session, result, _backend = _mine_with_plan(
        database, FaultPlan.parse(spec), start_method=start_method, retry=retry
    )
    assert mined_tuples(result) == mined_tuples(serial_result)
    assert store_snapshot(session.graph) == store_snapshot(serial_session.graph)
    if kind == "crash":
        # A crash breaks the whole pool, so sibling shards of the same
        # round legitimately retry along with the faulted one.
        assert result.statistics.shard_retries.get(level, 0) >= 1
    elif kind in ("hang", "pickle"):
        # The fault fired exactly once and the retry bookkeeping saw it.
        assert result.statistics.shard_retries == {level: 1}


class TestWorkerFaultMatrix:
    """Every worker-fault kind × start method mines identically, at the
    pair level and at the first combination level."""

    @pytest.mark.parametrize("start_method", [None, "spawn"], ids=["fork", "spawn"])
    @pytest.mark.parametrize("kind", sorted(_WORKER_FAULTS))
    def test_injected_fault_preserves_parity(self, baseline, kind, start_method):
        _assert_fault_preserves_parity(
            baseline, kind, _WORKER_FAULTS[kind], 2, start_method
        )

    @pytest.mark.parametrize("start_method", [None, "spawn"], ids=["fork", "spawn"])
    @pytest.mark.parametrize("kind", sorted(_WORKER_FAULTS))
    def test_injected_level_k_fault_preserves_parity(
        self, deep_baseline, kind, start_method
    ):
        spec = _WORKER_FAULTS[kind].replace("level=2", "level=3")
        _assert_fault_preserves_parity(deep_baseline, kind, spec, 3, start_method)


class TestGracefulDegradation:
    def test_pool_loss_degrades_to_in_process_evaluation(self, baseline):
        self._assert_pool_loss_degrades(baseline, start_method=None)

    def test_spawn_pool_loss_degrades_the_same_way(self, baseline):
        self._assert_pool_loss_degrades(baseline, start_method="spawn")

    @staticmethod
    def _assert_pool_loss_degrades(baseline, start_method):
        database, serial_session, serial_result = baseline
        plan = FaultPlan.parse("pool:level=2")
        session, result, backend = _mine_with_plan(
            database, plan, start_method=start_method
        )
        assert backend._serial_degraded is True
        assert mined_tuples(result) == mined_tuples(serial_result)
        assert store_snapshot(session.graph) == store_snapshot(
            serial_session.graph
        )
        assert any(
            "process pool unavailable" in warning
            for warning in result.statistics.warnings
        )

    def test_degraded_backend_stays_in_process_for_later_batches(self):
        plan = FaultPlan.parse("pool")
        backend = ProcessPoolBackend(
            n_workers=2,
            min_candidates_per_worker=1,
            retry=FAST_RETRY,
            fault_plan=plan,
        )
        try:
            first = run_fake_shards(backend, _echo_shard)
            second = run_fake_shards(backend, _echo_shard)
        finally:
            backend.close()
        assert sorted(sum(first, [])) == list(range(8))
        assert sorted(sum(second, [])) == list(range(8))
        assert backend._serial_degraded is True

    def test_warnings_survive_session_persistence(self, baseline, tmp_path):
        database, _, _ = baseline
        plan = FaultPlan.parse("pool:level=2")
        session, result, _ = _mine_with_plan(database, plan)
        assert result.statistics.warnings
        path = tmp_path / "warned.bin"
        write_session(session, path)
        restored = read_session(path)
        assert restored.statistics.warnings == result.statistics.warnings


class TestRetryExhaustion:
    def test_persistent_crash_propagates_the_original_error(self):
        plan = FaultPlan.parse("crash:times=10")
        backend = ProcessPoolBackend(
            n_workers=2,
            min_candidates_per_worker=1,
            retry=replace(FAST_RETRY, max_retries=1),
            fault_plan=plan,
        )
        try:
            with pytest.raises(BrokenProcessPool):
                run_fake_shards(backend, _echo_shard)
        finally:
            backend.close()

    def test_crash_without_retries_leaves_the_backend_reusable(self, baseline):
        database, serial_session, _ = baseline
        with ProcessPoolBackend(
            n_workers=2,
            min_candidates_per_worker=1,
            retry=RetryPolicy(max_retries=0),
        ) as backend:
            with pytest.raises(BrokenProcessPool):
                run_fake_shards(backend, _crashing_shard)
            recovered = MiningSession(CONFIG)
            recovered.mine(database, backend=backend)
        assert store_snapshot(recovered.graph) == store_snapshot(
            serial_session.graph
        )

    def test_spawn_pool_crash_drops_the_broken_executor(self):
        with ProcessPoolBackend(
            n_workers=2,
            min_candidates_per_worker=1,
            start_method="spawn",
            retry=RetryPolicy(max_retries=0),
        ) as backend:
            with pytest.raises(BrokenProcessPool):
                run_fake_shards(backend, _crashing_shard)
            assert backend._executor is None  # the broken pool was not kept
            results = run_fake_shards(backend, _echo_shard)
        assert sorted(sum(results, [])) == list(range(8))

    def test_persistent_hang_raises_a_timeout_mining_error(self):
        plan = FaultPlan.parse("hang:seconds=30,times=10")
        backend = ProcessPoolBackend(
            n_workers=2,
            min_candidates_per_worker=1,
            retry=RetryPolicy(
                max_retries=1, backoff_seconds=0.0, shard_timeout=0.5
            ),
            fault_plan=plan,
        )
        try:
            with pytest.raises(MiningError, match="timeout"):
                run_fake_shards(backend, _echo_shard)
        finally:
            backend.close()


class TestCheckpointResume:
    def _checkpoint_config(self, path):
        return replace(CONFIG, checkpoint_path=str(path))

    def _interrupt(self, database, ckpt):
        """Abort a checkpointed mine of ``database``: a crash that outlives
        every retry stops it after the level-1 checkpoint, before the pair
        level completes.  Returns the (rolled back) session."""
        plan = FaultPlan.parse("crash:level=2,times=10")
        backend = ProcessPoolBackend(
            n_workers=2,
            min_candidates_per_worker=1,
            retry=replace(FAST_RETRY, max_retries=0),
            fault_plan=plan,
        )
        session = MiningSession(self._checkpoint_config(ckpt))
        try:
            with pytest.raises(BrokenProcessPool):
                session.mine(database, backend=backend)
        finally:
            backend.close()
        return session

    def test_interrupted_mine_resumes_to_the_identical_result(
        self, baseline, tmp_path
    ):
        database, serial_session, serial_result = baseline
        ckpt = tmp_path / "ck.bin"
        session = self._interrupt(database, ckpt)
        # In memory the session rolled back to unmined; on disk the last
        # completed level survived with its progress marker.
        assert session.graph is None
        restored = read_session(ckpt)
        assert restored._mining_state == {"next_level": 2}

        resumed = restored.resume(database)
        assert mined_tuples(resumed) == mined_tuples(serial_result)
        assert store_snapshot(restored.graph) == store_snapshot(
            serial_session.graph
        )
        # The checkpoint was rewritten as complete.
        finished = read_session(ckpt)
        assert finished._mining_state is None
        final = finished.resume(database)
        assert mined_tuples(final) == mined_tuples(serial_result)

    def test_every_level_boundary_is_checkpointed(
        self, baseline, tmp_path, monkeypatch
    ):
        database, _, _ = baseline
        ckpt = tmp_path / "ck.bin"
        markers = []
        original = MiningSession._write_checkpoint

        def spy(self, next_level):
            markers.append(next_level)
            return original(self, next_level)

        monkeypatch.setattr(MiningSession, "_write_checkpoint", spy)
        session = MiningSession(self._checkpoint_config(ckpt))
        session.mine(database)
        # Ascending level boundaries, terminated by the completion marker.
        assert markers[0] == 2
        assert markers[-1] is None
        levels = markers[:-1]
        assert levels == sorted(levels)

    @pytest.mark.parametrize("max_size", [None, 3], ids=["unbounded", "max3"])
    @pytest.mark.parametrize("seed", [17, 3, 8])
    def test_resume_from_every_checkpoint_boundary(
        self, seed, max_size, tmp_path, monkeypatch
    ):
        """A copy of the checkpoint taken at every marker a serial mine
        writes resumes to the straight mine's result, occurrence store and
        work counters."""
        database = random_database(seed=seed, n_sequences=10, max_instances=9)
        config = replace(CONFIG, max_pattern_size=max_size)
        straight_session = MiningSession(config)
        straight = straight_session.mine(database)
        ckpt = tmp_path / "ck.bin"
        copies = {}
        original = MiningSession._write_checkpoint

        def copy_each(self, next_level):
            original(self, next_level)
            if next_level is not None:
                copies[next_level] = tmp_path / f"ck-{next_level}.bin"
                shutil.copyfile(ckpt, copies[next_level])

        monkeypatch.setattr(MiningSession, "_write_checkpoint", copy_each)
        MiningSession(replace(config, checkpoint_path=str(ckpt))).mine(database)
        monkeypatch.undo()
        assert list(copies)[:2] == [2, 3]
        for marker, path in copies.items():
            restored = read_session(path)
            assert restored._mining_state == {"next_level": marker}
            resumed = restored.resume(database)
            assert mined_tuples(resumed) == mined_tuples(straight), marker
            assert store_snapshot(restored.graph) == store_snapshot(
                straight_session.graph
            ), marker
            assert golden_counters(resumed.statistics) == golden_counters(
                straight.statistics
            ), marker

    def test_complete_checkpoint_result_is_rebuilt_without_mining(
        self, baseline, tmp_path
    ):
        database, _, serial_result = baseline
        ckpt = tmp_path / "ck.bin"
        session = MiningSession(self._checkpoint_config(ckpt))
        session.mine(database)
        restored = read_session(ckpt)
        result = restored.result()
        assert mined_tuples(result) == mined_tuples(serial_result)
        assert result.runtime_seconds == 0.0

    def test_resume_rejects_a_different_database(self, baseline, tmp_path):
        database, _, _ = baseline
        ckpt = tmp_path / "ck.bin"
        plan = FaultPlan((FaultSpec(kind="pool", level=2),))
        backend = ProcessPoolBackend(
            n_workers=2,
            min_candidates_per_worker=1,
            retry=FAST_RETRY,
            fault_plan=plan,
        )
        session = MiningSession(self._checkpoint_config(ckpt))
        try:
            session.mine(database, backend=backend)
        finally:
            backend.close()
        restored = read_session(ckpt)
        restored._mining_state = {"next_level": 2}
        other = random_database(seed=5, n_sequences=7)
        with pytest.raises(MiningError, match="sequences"):
            restored.resume(other)

    def test_resume_needs_checkpointed_state(self, baseline):
        database, _, _ = baseline
        with pytest.raises(MiningError, match="resume"):
            MiningSession(CONFIG).resume(database)

    def test_incomplete_state_refuses_to_build_a_result(
        self, baseline, tmp_path
    ):
        database, _, _ = baseline
        ckpt = tmp_path / "ck.bin"
        session = MiningSession(self._checkpoint_config(ckpt))
        session.mine(database)
        restored = read_session(ckpt)
        restored._mining_state = {"next_level": 3}
        with pytest.raises(MiningError, match="did not complete"):
            restored.result()

    def test_append_refuses_an_interrupted_checkpoint(self, baseline, tmp_path):
        """Appending to levels that never ran would silently drop patterns:
        the interrupted state must be resumed first."""
        database, serial_session, serial_result = baseline
        base = SequenceDatabase(database.sequences[:7])
        delta = database.sequences[7:]
        ckpt = tmp_path / "ck.bin"
        self._interrupt(base, ckpt)
        restored = read_session(ckpt)
        with pytest.raises(MiningError, match="did not complete; call resume"):
            restored.append(delta)
        restored.resume(base)
        appended = restored.append(delta)
        assert mined_tuples(appended) == mined_tuples(serial_result)
        assert store_snapshot(restored.graph) == store_snapshot(
            serial_session.graph
        )

    def test_resume_without_a_checkpoint_path_completes_the_session(
        self, baseline, tmp_path
    ):
        database, _, serial_result = baseline
        ckpt = tmp_path / "ck.bin"
        self._interrupt(database, ckpt)
        restored = read_session(ckpt)
        restored.config = replace(restored.config, checkpoint_path=None)
        resumed = restored.resume(database)
        assert mined_tuples(resumed) == mined_tuples(serial_result)
        assert restored._mining_state is None
        assert mined_tuples(restored.result()) == mined_tuples(serial_result)
        saved = read_session(write_session(restored, tmp_path / "done.bin"))
        assert saved._mining_state is None
        # Nothing was written to the checkpoint without a checkpoint path.
        assert read_session(ckpt)._mining_state == {"next_level": 2}

    def test_htpgm_writes_checkpoints(self, baseline, tmp_path):
        """HTPGM's session checkpoints like any other: the completed file
        rebuilds the result."""
        database, _, serial_result = baseline
        ckpt = tmp_path / "ck.bin"
        result = HTPGM(self._checkpoint_config(ckpt)).mine(database)
        assert mined_tuples(result) == mined_tuples(serial_result)
        restored = read_session(ckpt)
        assert restored._mining_state is None
        assert mined_tuples(restored.result()) == mined_tuples(serial_result)

    def test_checkpointing_rejects_filters(self, baseline, tmp_path):
        database, _, _ = baseline
        config = self._checkpoint_config(tmp_path / "ck.bin")
        session = MiningSession(config, event_filter=lambda key: True)
        with pytest.raises(MiningError, match="filter"):
            session.mine(database)


class TestSessionFormatErrors:
    def _mined_session_file(self, tmp_path):
        database = random_database(seed=3, n_sequences=6)
        session = MiningSession(CONFIG)
        session.mine(database)
        path = tmp_path / "state.bin"
        write_session(session, path)
        return path

    def test_garbage_bytes_raise_session_format_error(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"this is not a pickle at all")
        with pytest.raises(SessionFormatError) as excinfo:
            read_session(path)
        assert excinfo.value.path == path
        assert str(path) in str(excinfo.value)

    def test_truncated_session_raises_session_format_error(self, tmp_path):
        path = self._mined_session_file(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(SessionFormatError):
            read_session(path)

    def test_foreign_pickle_raises_session_format_error(self, tmp_path):
        path = tmp_path / "foreign.bin"
        path.write_bytes(pickle.dumps({"hello": "world"}))
        with pytest.raises(SessionFormatError, match="not a mining-session"):
            read_session(path)

    def test_unsupported_version_reports_the_version(self, tmp_path):
        path = tmp_path / "future.bin"
        path.write_bytes(pickle.dumps({"format": FORMAT_NAME, "version": 99}))
        with pytest.raises(SessionFormatError, match="version 99") as excinfo:
            read_session(path)
        assert excinfo.value.version == 99

    def test_error_is_both_data_and_mining_error(self):
        error = SessionFormatError("boom", path="p", version=2)
        assert isinstance(error, DataError)
        assert isinstance(error, MiningError)

    def test_missing_file_stays_a_plain_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_session(tmp_path / "does-not-exist.bin")


class TestCLIExitCodes:
    def test_corrupt_session_exits_1_with_one_line_message(
        self, tmp_path, capsys
    ):
        corrupt = tmp_path / "corrupt.bin"
        corrupt.write_bytes(b"\x80\x04 truncated nonsense")
        code = cli_main(
            [
                "mine",
                "--append",
                str(tmp_path / "new.csv"),
                "--session",
                str(corrupt),
                "--output",
                str(tmp_path / "out.json"),
                "--window",
                "60",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_missing_session_file_is_a_usage_error(self, tmp_path, capsys):
        code = cli_main(
            [
                "mine",
                "--append",
                str(tmp_path / "new.csv"),
                "--session",
                str(tmp_path / "missing.bin"),
                "--output",
                str(tmp_path / "out.json"),
                "--window",
                "60",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "extra",
        [
            ["--resume"],
            ["--max-retries", "3"],
            ["--shard-timeout", "5"],
            ["--checkpoint", "ck.bin", "--append", "new.csv"],
        ],
        ids=["resume-sans-checkpoint", "retries-sans-parallel",
             "timeout-sans-parallel", "checkpoint-with-append"],
    )
    def test_flag_misuse_exits_2(self, tmp_path, capsys, extra):
        code = cli_main(
            [
                "mine",
                "--input",
                "in.csv",
                "--output",
                str(tmp_path / "out.json"),
                "--window",
                "60",
                *extra,
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    """A small on-disk dataset that mines past level 2 in a few seconds."""
    from repro.datasets import make_dataset
    from repro.io import write_time_series_csv

    dataset = make_dataset("dataport", scale=0.01, attribute_fraction=1.0, seed=0)
    path = tmp_path_factory.mktemp("fault_cli") / "series.csv"
    write_time_series_csv(dataset.series_set, path)
    return path


def _patterns_payload(path):
    """The mined content of a patterns JSON file, minus wall-clock noise."""
    payload = json.loads(Path(path).read_text())
    payload.pop("runtime_seconds", None)
    return payload


class TestCLIFaultTolerance:
    def test_degradation_warning_reaches_stderr(
        self, small_csv, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT", "pool:level=2")
        out = tmp_path / "patterns.json"
        code = cli_main(
            [
                "mine",
                "--input",
                str(small_csv),
                "--output",
                str(out),
                "--window",
                "60",
                "--support",
                "0.4",
                "--confidence",
                "0.4",
                "--max-size",
                "2",
                "--parallel",
                "--workers",
                "2",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "warning: process pool unavailable" in captured.err
        assert out.exists()

    @pytest.mark.parametrize("level", [2, 3])
    def test_sigkilled_checkpoint_run_resumes_identically(
        self, small_csv, tmp_path, level
    ):
        """The acceptance scenario: kill a checkpointed CLI run mid-mine
        (injected coordinator ``os._exit``, the in-process stand-in for
        SIGKILL) before level 2 or 3, then ``--resume`` it to the
        byte-identical final result."""
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        base = [
            sys.executable,
            "-m",
            "repro.cli",
            "mine",
            "--input",
            str(small_csv),
            "--window",
            "60",
            "--support",
            "0.4",
            "--confidence",
            "0.4",
            "--max-size",
            "3",
        ]
        straight = tmp_path / "straight.json"
        resumed = tmp_path / "resumed.json"
        ckpt = tmp_path / "ck.bin"

        run = subprocess.run(
            base + ["--output", str(straight)],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert run.returncode == 0, run.stderr

        killed = subprocess.run(
            base + ["--output", str(resumed), "--checkpoint", str(ckpt)],
            capture_output=True, text=True, timeout=600,
            env=dict(env, REPRO_FAULT=f"exit:level={level}"),
        )
        assert killed.returncode == faults.EXIT_STATUS
        assert read_session(ckpt)._mining_state == {"next_level": level}
        assert not resumed.exists()  # died before any output was written

        run = subprocess.run(
            base + ["--output", str(resumed), "--checkpoint", str(ckpt),
                    "--resume"],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert run.returncode == 0, run.stderr
        assert "resumed checkpointed run" in run.stdout
        assert _patterns_payload(resumed) == _patterns_payload(straight)

    def test_append_to_an_interrupted_checkpoint_exits_1(self, tmp_path, capsys):
        """``--append`` against the checkpoint of a killed run fails cleanly
        and leaves the file as it was; once ``--resume`` finished the run,
        the same append succeeds."""
        from repro.datasets import make_dataset
        from repro.io import write_time_series_csv

        csv = write_time_series_csv(
            make_dataset(
                "dataport", scale=0.01, attribute_fraction=0.4, seed=0
            ).series_set,
            tmp_path / "series.csv",
        )
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        ckpt = tmp_path / "ck.bin"
        mine = [
            "mine", "--input", str(csv), "--window", "60",
            "--support", "0.4", "--confidence", "0.4", "--max-size", "3",
            "--checkpoint", str(ckpt),
        ]
        killed = subprocess.run(
            [sys.executable, "-m", "repro.cli", *mine,
             "--output", str(tmp_path / "killed.json")],
            capture_output=True, text=True, timeout=600,
            env=dict(env, REPRO_FAULT="exit:level=3"),
        )
        assert killed.returncode == faults.EXIT_STATUS
        interrupted = ckpt.read_bytes()
        appended = tmp_path / "appended.json"
        append = [
            "mine", "--append", str(csv), "--session", str(ckpt),
            "--window", "60", "--output", str(appended),
        ]
        assert cli_main(append) == 1
        assert "did not complete; call resume() to finish it" in (
            capsys.readouterr().err
        )
        assert ckpt.read_bytes() == interrupted
        assert not appended.exists()
        resumed = [*mine, "--resume", "--output", str(tmp_path / "resumed.json")]
        assert cli_main(resumed) == 0
        assert cli_main(append) == 0
        assert appended.exists()

    def test_resume_rejects_changed_thresholds(self, small_csv, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        ckpt = tmp_path / "ck.bin"
        out = tmp_path / "out.json"
        base = [
            sys.executable, "-m", "repro.cli", "mine",
            "--input", str(small_csv),
            "--window", "60",
            "--confidence", "0.4",
            "--max-size", "2",
            "--checkpoint", str(ckpt),
        ]
        run = subprocess.run(
            base + ["--support", "0.4", "--output", str(out)],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert run.returncode == 0, run.stderr
        run = subprocess.run(
            base + ["--support", "0.5", "--output", str(out), "--resume"],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert run.returncode == 2
        assert "--support" in run.stderr
