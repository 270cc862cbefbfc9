"""Resource-governed execution: memory budgets must never change the output.

The memory governor (:mod:`repro.core.resources`) promises that a run under
``MiningConfig(memory_budget_bytes=...)`` mines the byte-identical pattern
set and occurrence-store snapshot of an unbudgeted run, whatever memory
pressure does along the way: budget-aware shard planning, worker watchdog
aborts, recursive shard splitting, kernel-chunk shrinking, forced
summarisation and the in-process floor are all output-preserving.  These
tests drive every one of those paths deterministically — the ``oom`` and
``membudget`` fault kinds stand in for real memory exhaustion — across
fork × spawn start methods, plus the unit arithmetic (byte-size parsing,
shares, watchdog throttling, governor planning), the CLI flag guards, and
the checkpoint interplay.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import pytest

from repro import (
    ConfigurationError,
    MemoryBudgetExceeded,
    MiningConfig,
    MiningError,
    MiningSession,
    ProcessPoolBackend,
    RetryPolicy,
    SerialBackend,
)
from repro.cli import main as cli_main
from repro.core import faults, resources
from repro.core.engine import LevelContext, _ShardPiece
from repro.core.faults import FaultPlan
from repro.io import read_session

from test_engine_parity import mined_tuples, random_database, store_snapshot

CONFIG = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)

#: No backoff sleeps in tests — determinism comes from the plan, not timing.
FAST_RETRY = RetryPolicy(max_retries=2, backoff_seconds=0.0)

BUDGET = "256M"


def _mine_budgeted(database, plan, **backend_kwargs):
    """Mine ``database`` on a budgeted process backend armed with ``plan``."""
    backend_kwargs.setdefault("retry", FAST_RETRY)
    backend_kwargs.setdefault("memory_budget", BUDGET)
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
    """Serial reference run the budgeted runs must match byte-for-byte."""
    database = random_database(seed=17, n_sequences=10, max_instances=9)
    session = MiningSession(CONFIG)
    result = session.mine(database, backend=SerialBackend())
    return database, session, result


# --------------------------------------------------------------------------- units
class TestParseByteSize:
    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            ("1024", 1024),
            (4096, 4096),
            ("1K", 1024),
            ("2kb", 2048),
            ("1M", 1024**2),
            ("512mb", 512 * 1024**2),
            ("2G", 2 * 1024**3),
            ("1.5G", int(1.5 * 1024**3)),
            (" 64 M ", 64 * 1024**2),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert resources.parse_byte_size(text) == expected

    @pytest.mark.parametrize("text", ["", "huge", "12Q", "-1", "0", "-2G", 0, -5])
    def test_rejected_forms(self, text):
        with pytest.raises(ConfigurationError):
            resources.parse_byte_size(text)


class TestMemoryBudget:
    def test_worker_share_divides_equally(self):
        budget = resources.MemoryBudget(1024)
        assert budget.worker_share(4) == 256
        assert budget.worker_share(1) == 1024

    def test_share_never_zero(self):
        assert resources.MemoryBudget(3).worker_share(8) == 1

    def test_rejects_non_positive_totals(self):
        with pytest.raises(ConfigurationError):
            resources.MemoryBudget(0)


class TestMemoryWatchdog:
    def _probe_sequence(self, values):
        it = iter(values)
        last = [values[0]]

        def probe():
            try:
                last[0] = next(it)
            except StopIteration:
                pass
            return last[0]

        return probe

    def test_growth_is_relative_to_baseline(self):
        probe = self._probe_sequence([1000, 1400])
        dog = resources.MemoryWatchdog(10_000, probe=probe)
        assert dog.baseline_bytes == 1000
        assert dog.growth() == 400

    def test_growth_never_negative(self):
        probe = self._probe_sequence([1000, 100])
        dog = resources.MemoryWatchdog(10_000, probe=probe)
        assert dog.growth() == 0

    def test_check_is_throttled(self):
        calls = []

        def probe():
            calls.append(True)
            return 0

        dog = resources.MemoryWatchdog(100, probe=probe)
        baseline_probes = len(calls)
        for _ in range(8):
            dog.check()
        # Two RSS reads for eight checks (every 4th), plus the baseline.
        assert len(calls) - baseline_probes == 2

    def test_check_raises_typed_exception_over_limit(self):
        probe = self._probe_sequence([0, 10_000])
        dog = resources.MemoryWatchdog(100, probe=probe)
        with pytest.raises(MemoryBudgetExceeded, match="memory budget"):
            for _ in range(resources._CHECK_EVERY):
                dog.check()

    def test_under_limit_is_silent(self):
        dog = resources.MemoryWatchdog(1 << 40)
        for _ in range(16):
            dog.check()

    def test_rejects_non_positive_limit(self):
        with pytest.raises(ConfigurationError):
            resources.MemoryWatchdog(0)

    def test_current_rss_reports_something_plausible(self):
        rss = resources.current_rss()
        # A running CPython interpreter with NumPy loaded is megabytes big.
        assert rss > 1 << 20


class TestWorkerScope:
    def test_scope_toggles_and_restores(self):
        assert not resources.in_worker_scope()
        with resources.worker_scope():
            assert resources.in_worker_scope()
            with resources.worker_scope():
                assert resources.in_worker_scope()
            assert resources.in_worker_scope()
        assert not resources.in_worker_scope()

    def test_shard_watchdog_arms_only_in_scope_with_share(self):
        context = LevelContext(
            level=2, config=CONFIG, min_count=1, level1={},
            memory_share_bytes=1 << 30,
        )
        bare = LevelContext(level=2, config=CONFIG, min_count=1, level1={})
        assert resources.shard_watchdog(context) is None  # not in scope
        with resources.worker_scope():
            assert resources.shard_watchdog(bare) is None  # no share
            dog = resources.shard_watchdog(context)
            assert isinstance(dog, resources.MemoryWatchdog)
            assert dog.limit_bytes == 1 << 30


class TestGovernorPlanning:
    def test_zero_cost_keeps_base_split(self):
        governor = resources.ResourceGovernor("1G", 4)
        assert governor.plan_shards(3, [0.0, 0.0], 80.0, max_shards=10) == 3

    def test_budget_raises_shard_count(self):
        governor = resources.ResourceGovernor(1024 * 100, 1)  # share = 100K
        # 10_000 cost units at 80 bytes each = 800K bytes; 100K per shard
        # means at least 8 shards.
        n = governor.plan_shards(2, [10_000.0], 80.0, max_shards=64)
        assert n == 8

    def test_context_bytes_shrink_the_headroom(self):
        governor = resources.ResourceGovernor(1024 * 100, 1)
        relaxed = governor.plan_shards(1, [1000.0], 80.0, max_shards=64)
        tight = governor.plan_shards(
            1, [1000.0], 80.0, max_shards=64, context_bytes=1024 * 90
        )
        assert tight > relaxed

    def test_headroom_floor_bounds_the_split(self):
        governor = resources.ResourceGovernor(1024, 1)
        # A context far bigger than the share must not explode the count:
        # the share/8 floor caps the demanded shards.
        n = governor.plan_shards(
            1, [1000.0], 80.0, max_shards=4096, context_bytes=1 << 30
        )
        expected = math.ceil(1000.0 * 80.0 / max(1024 // 8, 1))
        assert n == min(4096, expected)

    def test_never_exceeds_max_or_undercuts_base(self):
        governor = resources.ResourceGovernor(1, 1)
        assert governor.plan_shards(2, [1e12], 80.0, max_shards=5) == 5
        huge = resources.ResourceGovernor("1G", 1)
        assert huge.plan_shards(4, [1.0], 1.0, max_shards=100) == 4

    def test_backend_constructs_governor_from_config(self):
        config = replace(CONFIG, engine="process", memory_budget_bytes=1 << 26)
        from repro.core.engine import backend_from_config

        backend = backend_from_config(config)
        try:
            assert backend.governor is not None
            assert backend.governor.budget.total_bytes == 1 << 26
        finally:
            backend.close()


class TestContextEstimation:
    def test_columnar_walk_prices_arrays_and_index_matrices(self):
        session = MiningSession(CONFIG)
        session.mine(random_database(seed=23, n_sequences=10, max_instances=14))
        graph = session.graph
        for node in graph.level1.values():
            node.build_sequence_arrays()
        context = LevelContext(
            level=3,
            config=CONFIG,
            min_count=1,
            level1=graph.level1,
            parents=graph.levels[2],
        )
        arrays = sum(
            starts.nbytes + ends.nbytes
            for node in graph.level1.values()
            for starts, ends in node._sequence_arrays.values()
        )
        matrices = sum(
            matrix.nbytes
            for node in graph.levels[2].values()
            for entry in node.patterns.values()
            for _sequence_id, matrix in entry.iter_index_matrices()
        )
        assert matrices > 0
        assert resources.estimate_context_bytes(context) == arrays + matrices

    def test_estimate_never_raises_on_opaque_payloads(self):
        class Opaque:
            def __reduce__(self):
                raise RuntimeError("unpicklable")

        assert resources.estimate_context_bytes(Opaque()) == 0


# --------------------------------------------------------------------------- config
class TestConfigIntegration:
    def test_budget_validated_alongside_kernel_chunk_bytes(self):
        assert MiningConfig(memory_budget_bytes=None).memory_budget_bytes is None
        assert MiningConfig(memory_budget_bytes=1024).memory_budget_bytes == 1024
        with pytest.raises(ConfigurationError, match="memory_budget_bytes"):
            MiningConfig(memory_budget_bytes=0)
        with pytest.raises(ConfigurationError, match="memory_budget_bytes"):
            MiningConfig(memory_budget_bytes=-1)

    def test_with_memory_budget_helper(self):
        config = CONFIG.with_memory_budget(1 << 20)
        assert config.memory_budget_bytes == 1 << 20
        assert config.with_memory_budget(None).memory_budget_bytes is None
        # Mining semantics untouched.
        assert config.min_support == CONFIG.min_support

    def test_budget_is_an_execution_detail_for_resume(self):
        checkpointed = CONFIG
        current = replace(
            CONFIG, engine="process", n_workers=2, memory_budget_bytes=1 << 26
        )
        adopted = checkpointed.adopt_execution(current)
        assert adopted.memory_budget_bytes == 1 << 26
        assert adopted.min_support == checkpointed.min_support


# --------------------------------------------------------------------------- faults
class TestMemoryFaultKinds:
    def test_oom_directive_raises_memory_error(self):
        with pytest.raises(MemoryError):
            faults.apply_worker_fault(("oom", 0.0))

    def test_membudget_directive_raises_typed_exception(self):
        with pytest.raises(MemoryBudgetExceeded):
            faults.apply_worker_fault(("membudget", 0.0))

    def test_memory_kinds_are_worker_kinds(self):
        assert set(faults.MEMORY_KINDS) <= set(faults.WORKER_KINDS)
        plan = FaultPlan.parse("oom:level=2;membudget:level=3,times=2")
        assert plan.take(faults.MEMORY_KINDS, 2) == ("oom", 60.0)
        assert plan.take(faults.MEMORY_KINDS, 3) == ("membudget", 60.0)


# --------------------------------------------------------------- split-and-retry
class TestMemoryErrorRouting:
    """Regression (PR 9 behaviour): worker ``MemoryError`` used to be
    resubmitted verbatim like a transport error — guaranteed to die again.
    It must now route to the split-and-retry recovery instead."""

    def test_memory_error_splits_instead_of_verbatim_resubmit(self, baseline):
        database, serial_session, serial_result = baseline
        plan = FaultPlan.parse("oom:level=2,shard=1")
        # max_retries=0: a verbatim-resubmit classification would fail the
        # run on the first fault, so the only way this run can succeed is
        # the split path — which deliberately does not consume retries.
        session, result, backend = _mine_budgeted(
            database, plan, retry=replace(FAST_RETRY, max_retries=0)
        )
        assert mined_tuples(result) == mined_tuples(serial_result)
        assert store_snapshot(session.graph) == store_snapshot(
            serial_session.graph
        )
        assert result.statistics.shard_splits == {2: 1}
        assert result.statistics.shard_retries == {}
        assert any("split into pieces" in w for w in result.statistics.warnings)

    def test_membudget_abort_routes_the_same_way(self, baseline):
        database, serial_session, serial_result = baseline
        plan = FaultPlan.parse("membudget:level=2,shard=0")
        session, result, _backend = _mine_budgeted(
            database, plan, retry=replace(FAST_RETRY, max_retries=0)
        )
        assert mined_tuples(result) == mined_tuples(serial_result)
        assert result.statistics.shard_splits == {2: 1}

    def test_map_shards_without_combiner_still_bounded_retries(self):
        # map_shards results cannot be recombined after a split, so memory
        # failures there fall back to the plain bounded-retry path.
        plan = FaultPlan.parse("oom:times=1")
        backend = ProcessPoolBackend(
            n_workers=2,
            min_candidates_per_worker=1,
            retry=FAST_RETRY,
            fault_plan=plan,
            memory_budget=BUDGET,
        )
        try:
            out = backend.map_shards(_echo_shard, None, list(range(8)))
        finally:
            backend.close()
        assert sorted(x for chunk in out for x in chunk) == list(range(8))

    def test_map_shards_memory_error_exhausts_retries(self):
        plan = FaultPlan.parse("oom:times=10")
        backend = ProcessPoolBackend(
            n_workers=2,
            min_candidates_per_worker=1,
            retry=replace(FAST_RETRY, max_retries=1),
            fault_plan=plan,
            memory_budget=BUDGET,
        )
        try:
            with pytest.raises(MemoryError):
                backend.map_shards(_echo_shard, None, list(range(8)))
        finally:
            backend.close()


# Module-level so the spawn transport can pickle references.
def _echo_shard(payload, items):
    return list(items)


# ------------------------------------------------------------------ fault matrix
_MEMORY_FAULTS = {
    "oom-shard": "oom:level=2,shard=1",
    "oom-twice": "oom:level=2,times=2",
    "membudget-shard": "membudget:level=2,shard=0",
    "membudget-spread": "membudget:level=2,times=3",
}


@pytest.fixture(scope="module")
def deep_baseline():
    """A serial reference that mines to level 4: split level-3 pieces must
    recombine real occurrence evidence, not empty nodes."""
    database = random_database(seed=23, n_sequences=10, max_instances=14)
    session = MiningSession(CONFIG)
    result = session.mine(database, backend=SerialBackend())
    assert session.graph.levels.get(3), "the reference must mine level 3"
    return database, session, result


def _assert_memory_fault_preserves_parity(reference, spec, level, start_method):
    database, serial_session, serial_result = reference
    session, result, _backend = _mine_budgeted(
        database, FaultPlan.parse(spec), start_method=start_method
    )
    assert mined_tuples(result) == mined_tuples(serial_result)
    assert store_snapshot(session.graph) == store_snapshot(serial_session.graph)
    assert result.statistics.shard_splits.get(level, 0) >= 1
    assert any("memory share" in warning for warning in result.statistics.warnings)


class TestGovernorFaultMatrix:
    """Memory faults × start method: byte-identical output, at the pair
    level and at the first combination level."""

    @pytest.mark.parametrize("start_method", [None, "spawn"], ids=["fork", "spawn"])
    @pytest.mark.parametrize("kind", sorted(_MEMORY_FAULTS))
    def test_injected_memory_fault_preserves_parity(
        self, baseline, kind, start_method
    ):
        _assert_memory_fault_preserves_parity(
            baseline, _MEMORY_FAULTS[kind], 2, start_method
        )

    @pytest.mark.parametrize("start_method", [None, "spawn"], ids=["fork", "spawn"])
    @pytest.mark.parametrize("kind", sorted(_MEMORY_FAULTS))
    def test_injected_level_k_memory_fault_preserves_parity(
        self, deep_baseline, kind, start_method
    ):
        spec = _MEMORY_FAULTS[kind].replace("level=2", "level=3")
        _assert_memory_fault_preserves_parity(deep_baseline, spec, 3, start_method)

    def test_recursive_splitting_terminates_at_floor(self, baseline):
        database, _serial_session, _serial_result = baseline
        # An inexhaustible fault drives every piece to the one-candidate
        # floor, through the chunk-shrink and (disallowed here) summarise
        # steps, into the in-process fallback — where the still-armed plan
        # proves even that is over budget and the run must fail *cleanly*.
        plan = FaultPlan.parse("membudget:level=2,times=999")
        backend = ProcessPoolBackend(
            n_workers=2,
            min_candidates_per_worker=1,
            retry=FAST_RETRY,
            fault_plan=plan,
            memory_budget=BUDGET,
        )
        session = MiningSession(CONFIG)
        try:
            with pytest.raises(MiningError, match="memory budget"):
                session.mine(database, backend=backend)
        finally:
            backend.close()
        # The degradation chain ran before giving up.
        assert any("split into pieces" in w for w in backend.warnings)
        assert any("kernel chunk cap shrunk" in w for w in backend.warnings)

    def test_real_watchdog_fires_under_fork(self, baseline, monkeypatch):
        """A genuinely firing watchdog (no fault injection) stays parity-safe.

        Fork workers inherit the monkeypatched RSS probe, whose reported
        resident set grows 1 MiB per poll — so every watchdog over a shard
        big enough to be polled (the check is throttled) aborts, and the
        engine must split its way down to pieces small enough to pass.
        """
        database, serial_session, serial_result = baseline
        if "fork" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("fork start method unavailable")
        state = {"rss": 0}

        def growing_rss():
            state["rss"] += 1 << 20
            return state["rss"]

        monkeypatch.setattr(resources, "current_rss", growing_rss)
        session, result, _backend = _mine_budgeted(
            database, FaultPlan(), memory_budget="2M", start_method="fork"
        )
        assert mined_tuples(result) == mined_tuples(serial_result)
        assert store_snapshot(session.graph) == store_snapshot(
            serial_session.graph
        )
        assert result.statistics.shard_splits.get(2, 0) >= 1

    def test_degradation_can_force_summaries_when_legal(self, baseline):
        database, _serial_session, serial_result = baseline
        # A throwaway session at level >= 3 with transitivity pruning marks
        # summarisation legal; at the one-candidate floor the chain flips it
        # on (after the chunk cap bottoms out) without changing the output.
        plan = FaultPlan.parse("membudget:level=3,times=8")
        backend = ProcessPoolBackend(
            n_workers=2,
            min_candidates_per_worker=1,
            retry=FAST_RETRY,
            fault_plan=plan,
            memory_budget=BUDGET,
        )
        session = MiningSession(CONFIG, retain_occurrences=False)
        try:
            result = session.mine(database, backend=backend)
        finally:
            backend.close()
        assert mined_tuples(result) == mined_tuples(serial_result)

    def test_shared_context_mutations_stay_output_preserving(self, baseline):
        database, serial_session, serial_result = baseline
        # Drive one shard to the floor so kernel_chunk_bytes shrinks for the
        # *whole* level, then let everything else mine with the tiny chunks.
        plan = FaultPlan.parse("membudget:level=2,shard=0,times=6")
        session, result, _backend = _mine_budgeted(database, plan)
        assert mined_tuples(result) == mined_tuples(serial_result)
        assert store_snapshot(session.graph) == store_snapshot(
            serial_session.graph
        )


# ----------------------------------------------------------------- checkpointing
class TestCheckpointInterplay:
    def test_budget_failure_leaves_a_resumable_checkpoint(
        self, baseline, tmp_path
    ):
        database, serial_session, serial_result = baseline
        ckpt = tmp_path / "ck.bin"
        plan = FaultPlan.parse("membudget:level=3,times=999")
        backend = ProcessPoolBackend(
            n_workers=2,
            min_candidates_per_worker=1,
            retry=FAST_RETRY,
            fault_plan=plan,
            memory_budget=BUDGET,
        )
        session = MiningSession(replace(CONFIG, checkpoint_path=str(ckpt)))
        try:
            with pytest.raises(MiningError, match="memory budget"):
                session.mine(database, backend=backend)
        finally:
            backend.close()
        # The over-budget level aborted *after* the previous level's
        # checkpoint was written, so the run resumes from there — and with
        # no fault plan installed it finishes to the identical result.
        restored = read_session(ckpt)
        assert restored._mining_state == {"next_level": 3}
        resumed = restored.resume(database)
        assert mined_tuples(resumed) == mined_tuples(serial_result)
        assert store_snapshot(restored.graph) == store_snapshot(
            serial_session.graph
        )

    def test_budgeted_checkpointed_run_completes_normally(
        self, baseline, tmp_path
    ):
        database, _serial_session, serial_result = baseline
        ckpt = tmp_path / "ck.bin"
        plan = FaultPlan.parse("oom:level=2")
        backend = ProcessPoolBackend(
            n_workers=2,
            min_candidates_per_worker=1,
            retry=FAST_RETRY,
            fault_plan=plan,
            memory_budget=BUDGET,
        )
        session = MiningSession(replace(CONFIG, checkpoint_path=str(ckpt)))
        try:
            result = session.mine(database, backend=backend)
        finally:
            backend.close()
        assert mined_tuples(result) == mined_tuples(serial_result)
        assert read_session(ckpt)._mining_state is None


# ------------------------------------------------------------------------- pieces
class TestShardPieces:
    def test_pieces_keep_fault_coordinates_of_their_shard(self):
        piece = _ShardPiece(shard=3, offset=0, items=[1, 2, 3, 4])
        plan = FaultPlan.parse("membudget:shard=3,times=2")
        assert plan.take(faults.MEMORY_KINDS, 2, piece.shard) is not None
        # A descendant piece (same shard, later offset) still matches.
        child = _ShardPiece(shard=3, offset=2, items=[3, 4])
        assert plan.take(faults.MEMORY_KINDS, 2, child.shard) is not None
        assert plan.take(faults.MEMORY_KINDS, 2, 3) is None


# ---------------------------------------------------------------------------- CLI
class TestCLI:
    def test_memory_budget_requires_parallel(self, tmp_path, capsys):
        code = cli_main(
            [
                "mine",
                "--input", "x.csv",
                "--output", str(tmp_path / "out.json"),
                "--window", "1440",
                "--memory-budget", "512M",
            ]
        )
        assert code == 2
        assert "--memory-budget requires --parallel" in capsys.readouterr().err

    def test_unparseable_budget_is_a_usage_error(self, tmp_path, capsys):
        code = cli_main(
            [
                "mine",
                "--input", "x.csv",
                "--output", str(tmp_path / "out.json"),
                "--window", "1440",
                "--parallel",
                "--memory-budget", "lots",
            ]
        )
        assert code == 2
        assert "byte size" in capsys.readouterr().err

    @pytest.fixture()
    def csv_path(self, tmp_path):
        output = tmp_path / "data.csv"
        cli_main(
            [
                "generate", "--dataset", "dataport", "--scale", "0.015",
                "--attributes", "0.4", "--seed", "2", "--output", str(output),
            ]
        )
        return output

    def test_budgeted_mine_matches_unbudgeted(
        self, csv_path, tmp_path, capsys, monkeypatch
    ):
        import json

        common = [
            "mine", "--input", str(csv_path),
            "--window", "1440", "--support", "0.4", "--confidence", "0.4",
            "--epsilon", "1", "--min-overlap", "5", "--tmax", "360",
            "--max-size", "2",
        ]
        plain = tmp_path / "plain.json"
        assert cli_main(common + ["--output", str(plain)]) == 0
        capsys.readouterr()

        budgeted = tmp_path / "budgeted.json"
        monkeypatch.setenv("REPRO_FAULT", "membudget:level=2")
        code = cli_main(
            common
            + [
                "--output", str(budgeted),
                "--parallel", "--workers", "2",
                "--memory-budget", "256M",
                "--max-retries", "2",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "warning:" in err and "memory share" in err

        a = json.loads(plain.read_text())
        b = json.loads(budgeted.read_text())
        a.pop("runtime_seconds", None)
        b.pop("runtime_seconds", None)
        assert a == b
        assert a["patterns"]
