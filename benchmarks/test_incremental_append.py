"""Incremental append vs full re-mine: the payoff of persistent sessions.

A production deployment keeps mining the same growing database: every new
time window lands as a handful of fresh sequences on top of thousands of old
ones.  :class:`repro.MiningSession` exists so that this steady state costs
what the *delta* costs, not what the whole database costs: level-1 bitmaps
extend in place, candidates whose events never co-occur in a delta sequence
re-admit their stored nodes, and the rest are evaluated on the delta
sequences only, settled by a support bound, and re-evaluated over every
sequence only when the bound cannot rule a pattern out (or when a newly
frequent event is involved).

This benchmark builds a base database, appends a delta of at most 10% of its
size, and measures ``session.append(delta)`` against mining the concatenated
database from scratch, asserting the incremental path wins by at least 2x.
The delta's sequences involve only a few of the many series — the realistic
shape of late-arriving data (a window where only some sensors were active),
in which most candidates are not even touched.  A second, dense delta draws
its sequences from every series, so every candidate is touched; its append
must still classify fewer instance pairs than the re-mine, because the delta
pass reads only the delta sequences.

Pattern-set parity between the appended result and the scratch re-mine is
asserted on every measurement, retries included; the timing claim itself is
covered by the shared retry-once-then-skip guard in ``_bench_utils`` (the
speedup is algorithmic — serial engine on both sides — so no CPU-count floor
applies, but a heavily loaded runner still gets one retry before skipping).
"""

from __future__ import annotations

import pickle
import random
import time

from repro import HTPGM, MiningConfig, MiningSession
from repro.evaluation import format_table
from repro.timeseries import EventInstance, SequenceDatabase, TemporalSequence

from _bench_utils import assert_min_speedup, bench_scale, benchmark_rounds, emit

#: Minimum speedup demanded of append over full re-mine (acceptance criterion).
MIN_SPEEDUP = 2.0
#: Delta size as a fraction of the base database (the "≤10%" regime).
DELTA_FRACTION = 0.1
#: Most relation checks the dense-delta append may make, as a fraction of the
#: full re-mine's (measured 0.44 at the default scale, 0.09 at the
#: ``REPRO_BENCH_SMOKE`` scale; an append that re-evaluates every touched
#: candidate over every sequence makes exactly the re-mine's checks).
MAX_DENSE_CHECK_RATIO = 0.5

CONFIG = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)


def _sequence(sequence_id, rng, series_pool, n_instances):
    instances = []
    for _ in range(n_instances):
        start = round(rng.uniform(0.0, 200.0), 1)
        duration = round(rng.uniform(5.0, 40.0), 1)
        instances.append(
            EventInstance(
                start=start,
                end=start + duration,
                series=rng.choice(series_pool),
                symbol="On",
            )
        )
    return TemporalSequence(sequence_id, instances)


def build_workload(dense: bool = False):
    """A base database over many series plus a ≤10% delta.

    The base spreads instances over every series.  The sparse delta's
    sequences touch only the first three, so most candidate pairs provably
    cannot change and the append re-evaluates a small fraction of the search
    space.  The dense delta's sequences are drawn like the base's, from every
    series, so every candidate is touched.
    """
    rng = random.Random(42)
    n_base = max(20, int(60 * bench_scale()))
    n_delta = max(1, int(n_base * DELTA_FRACTION))
    all_series = [f"S{rank:02d}" for rank in range(10)]
    delta_series, delta_sizes = (
        (all_series, (16, 24)) if dense else (all_series[:3], (6, 10))
    )
    base = SequenceDatabase(
        [
            _sequence(sequence_id, rng, all_series, rng.randint(16, 24))
            for sequence_id in range(n_base)
        ]
    )
    delta = [
        _sequence(n_base + offset, rng, delta_series, rng.randint(*delta_sizes))
        for offset in range(n_delta)
    ]
    union = SequenceDatabase(base.sequences + list(delta))
    return base, delta, union


def test_incremental_append_beats_full_remine(benchmark):
    base, delta, union = build_workload()

    base_session = MiningSession(CONFIG)
    base_session.mine(base)
    # Each timed round appends onto a pristine copy of the mined base state
    # (the copy itself is not timed: a long-running service appends in place).
    base_blob = pickle.dumps(base_session)

    def run():
        best_append, best_scratch = float("inf"), float("inf")
        for _ in range(3):
            session = pickle.loads(base_blob)
            started = time.perf_counter()
            append_result = session.append(delta)
            best_append = min(best_append, time.perf_counter() - started)

            started = time.perf_counter()
            scratch_result = HTPGM(CONFIG).mine(union)
            best_scratch = min(best_scratch, time.perf_counter() - started)
        return best_append, append_result, best_scratch, scratch_result

    next_round = benchmark_rounds(benchmark, run)

    def measure():
        (append_seconds, append_result, scratch_seconds, scratch_result), label = next_round()
        speedup = scratch_seconds / append_seconds if append_seconds else float("inf")
        emit(
            format_table(
                ["strategy", "runtime (s)", "#patterns"],
                [
                    ["full re-mine", f"{scratch_seconds:.3f}", len(scratch_result)],
                    [
                        f"incremental append ({len(delta)} of "
                        f"{len(union)} sequences new)",
                        f"{append_seconds:.3f}",
                        len(append_result),
                    ],
                    [label, f"{speedup:.2f}x", ""],
                ],
                title=(
                    f"Incremental append: {len(base)} base sequences + "
                    f"{len(delta)} delta ({len(delta) / len(base):.0%})"
                ),
            )
        )
        # Parity is unconditional: a fast append that mined a different
        # answer would be worthless.
        assert [
            (m.pattern, m.support, m.confidence) for m in append_result
        ] == [(m.pattern, m.support, m.confidence) for m in scratch_result]
        return speedup, None

    assert_min_speedup(
        measure,
        MIN_SPEEDUP,
        f"incremental append of a {DELTA_FRACTION:.0%} delta vs full re-mine",
    )


def test_append_scales_with_delta_not_database(benchmark):
    """Work-counter view of the same claim, immune to wall-clock noise: the
    append generates far fewer candidates than the re-mine evaluates."""
    base, delta, union = build_workload()
    session = MiningSession(CONFIG)
    session.mine(base)
    append_result = benchmark.pedantic(
        lambda: session.append(delta), rounds=1, iterations=1
    )
    scratch_miner = HTPGM(CONFIG)
    scratch_result = scratch_miner.mine(union)
    assert [
        (m.pattern, m.support, m.confidence) for m in append_result
    ] == [(m.pattern, m.support, m.confidence) for m in scratch_result]
    append_candidates = session.statistics.total_candidates
    scratch_candidates = scratch_miner.statistics_.total_candidates
    assert append_candidates * 2 <= scratch_candidates, (
        f"append evaluated {append_candidates} candidates vs "
        f"{scratch_candidates} from scratch; expected at most half"
    )


def test_dense_delta_append_checks_fewer_relations(benchmark):
    """A delta drawn from every series touches every candidate, yet the
    append classifies fewer instance pairs than the re-mine: touched
    candidates are evaluated on the delta sequences, and only the few whose
    unstored patterns the support bound cannot rule out go over every
    sequence.  A work-counter claim, immune to wall-clock noise."""
    base, delta, union = build_workload(dense=True)
    session = MiningSession(CONFIG)
    session.mine(base)
    append_result = benchmark.pedantic(
        lambda: session.append(delta), rounds=1, iterations=1
    )
    scratch_miner = HTPGM(CONFIG)
    scratch_result = scratch_miner.mine(union)
    assert [
        (m.pattern, m.support, m.confidence) for m in append_result
    ] == [(m.pattern, m.support, m.confidence) for m in scratch_result]
    append_stats, scratch_stats = session.statistics, scratch_miner.statistics_
    # The append counts the candidates it touched: here, every one.
    assert append_stats.total_candidates == scratch_stats.total_candidates
    append_checks = sum(append_stats.relation_checks.values())
    scratch_checks = sum(scratch_stats.relation_checks.values())
    ratio = append_checks / scratch_checks
    emit(
        format_table(
            ["strategy", "relation checks", "#patterns"],
            [
                ["full re-mine", scratch_checks, len(scratch_result)],
                [
                    f"incremental append ({len(delta)} of {len(union)} "
                    "sequences new, every series)",
                    append_checks,
                    len(append_result),
                ],
                ["ratio", f"{ratio:.2f}", ""],
            ],
            title=(
                f"Dense-delta append: {append_stats.total_candidates} "
                "candidates, all touched"
            ),
        )
    )
    assert append_checks < scratch_checks
    assert ratio <= MAX_DENSE_CHECK_RATIO, (
        f"append made {append_checks} relation checks vs {scratch_checks} "
        f"from scratch ({ratio:.2f} > {MAX_DENSE_CHECK_RATIO})"
    )
