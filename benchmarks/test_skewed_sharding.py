"""Cost-balanced vs count-balanced sharding on a Zipf-skewed workload.

Contiguous equal-count shards are only balanced when candidates cost roughly
the same to evaluate.  Real level-2 workloads are nothing like that: instance
counts per event follow heavy-tailed (Zipf-like) distributions, candidate
pairs involving a head event cost orders of magnitude more than tail pairs,
and — because candidate generation enumerates pairs in event order — the
heavy pairs cluster at the front of the candidate list, all landing in the
same contiguous shard.  The level then waits on that one overloaded worker.

This benchmark builds a synthetic database whose per-event instance counts
follow a Zipf profile, mines it with the process engine twice — once with the
default cost-balanced (greedy LPT over the backend's per-candidate
estimates) sharding and once with :class:`ContiguousShardBackend` (contiguous
equal-count shards, no estimates) — and asserts the cost-balanced run is at least 1.2x faster on hosts
with enough CPUs.  Pattern-set parity between the two shardings (and serial)
is asserted unconditionally; like the speedup benchmark, a heavily loaded
runner gets one retry and then skips instead of failing.
"""

from __future__ import annotations

import random

import pytest

from repro import HTPGM, MiningConfig, ProcessPoolBackend, SerialBackend
from repro.core.engine import available_workers
from repro.evaluation import format_table
from repro.timeseries import EventInstance, SequenceDatabase, TemporalSequence

from _bench_utils import assert_min_speedup, benchmark_rounds, best_of, emit

N_WORKERS = 4
#: Minimum speedup of cost-balanced over count-balanced sharding (acceptance
#: criterion); the measured advantage on an idle 4-CPU host is well above it.
MIN_ADVANTAGE = 1.2

#: Mining parameters: nothing is support/confidence-pruned (every series
#: occurs in every sequence), so every candidate pair is evaluated in full and
#: the shard balance alone decides the level's wall-clock.
CONFIG = MiningConfig(
    min_support=0.5,
    min_confidence=0.5,
    min_overlap=1.0,
    max_pattern_size=2,
    allow_self_relations=False,
)


class ContiguousShardBackend(ProcessPoolBackend):
    """The count-balanced baseline: every batch runs on unit costs, so it
    pays for no estimate, and splits into contiguous equal-count shards."""

    def run(self, context, candidates, costs=None):
        return super().run(context, candidates, [1.0] * len(candidates))

    def _shard_indices(self, n_shards, costs):
        base, extra = divmod(len(costs), n_shards)
        bounds = [0]
        for shard in range(n_shards):
            bounds.append(bounds[-1] + base + (shard < extra))
        return [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]


def zipf_skewed_database(
    n_series: int = 24,
    n_sequences: int = 16,
    head_instances: int = 48,
    tail_instances: int = 3,
    seed: int = 7,
) -> SequenceDatabase:
    """A database whose per-series instance counts follow a Zipf profile.

    Series rank ``r`` gets ``max(tail, head / (r + 1))`` instances in every
    sequence, so the first few series dominate the instance-pair counts and
    the pairs involving them — generated first — are the expensive ones.
    """
    rng = random.Random(seed)
    counts = [
        max(tail_instances, head_instances // (rank + 1)) for rank in range(n_series)
    ]
    sequences = []
    for sequence_id in range(n_sequences):
        instances = []
        for rank, count in enumerate(counts):
            for _ in range(count):
                start = round(rng.uniform(0.0, 400.0), 1)
                duration = round(rng.uniform(5.0, 50.0), 1)
                instances.append(
                    EventInstance(
                        start=start,
                        end=start + duration,
                        series=f"S{rank:02d}",
                        symbol="On",
                    )
                )
        sequences.append(TemporalSequence(sequence_id, instances))
    return SequenceDatabase(sequences)


def test_cost_balanced_sharding_beats_count_balanced_on_skew(benchmark):
    cpus = available_workers()
    if cpus < N_WORKERS:
        pytest.skip(
            f"sharding comparison needs >= {N_WORKERS} CPUs to be physically "
            f"meaningful; this runner has {cpus}"
        )
    database = zipf_skewed_database()

    def mine_with(backend):
        return HTPGM(CONFIG, backend=backend).mine(database)

    def run():
        with ProcessPoolBackend(n_workers=N_WORKERS) as cost_backend:
            cost_seconds, cost_result = best_of(
                2, lambda: mine_with(cost_backend)
            )
        with ContiguousShardBackend(n_workers=N_WORKERS) as count_backend:
            count_seconds, count_result = best_of(
                2, lambda: mine_with(count_backend)
            )
        return cost_seconds, cost_result, count_seconds, count_result

    serial_result = mine_with(SerialBackend())

    def table(label, cost_seconds, cost_result, count_seconds, count_result, advantage):
        return format_table(
            ["sharding", "runtime (s)", "#patterns"],
            [
                ["count-balanced (contiguous)", f"{count_seconds:.3f}", len(count_result)],
                ["cost-balanced (greedy LPT)", f"{cost_seconds:.3f}", len(cost_result)],
                [label, f"{advantage:.2f}x", f"({cpus} CPUs available)"],
            ],
            title=(
                f"Zipf-skewed workload: {len(database)} sequences, "
                f"{N_WORKERS} workers"
            ),
        )

    def assert_parity(cost_result, count_result):
        # Parity is unconditional: sharding must never change the answer.
        patterns = lambda result: [
            (m.pattern, m.support, m.confidence) for m in result
        ]
        assert patterns(cost_result) == patterns(serial_result)
        assert patterns(count_result) == patterns(serial_result)

    next_round = benchmark_rounds(benchmark, run, label="advantage")

    def measure():
        (cost_seconds, cost_result, count_seconds, count_result), label = next_round()
        advantage = count_seconds / cost_seconds if cost_seconds else float("inf")
        emit(table(label, cost_seconds, cost_result, count_seconds, count_result, advantage))
        assert_parity(cost_result, count_result)
        return advantage, None

    assert_min_speedup(
        measure,
        MIN_ADVANTAGE,
        f"cost-balanced vs count-balanced sharding on {cpus} CPUs",
    )
