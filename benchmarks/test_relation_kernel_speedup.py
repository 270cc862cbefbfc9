"""Vectorized relation kernel vs the scalar reference path on a dense workload.

The kernel's target regime is *dense* sequences: many instances per event per
sequence, so each candidate pair spawns thousands of instance-pair relation
checks and the scalar per-pair ``classify`` calls dominate the miner's
wall-clock.  This benchmark builds such a database, mines it twice with the
serial engine — once through the vectorized pass and once through the scalar
reference (``tests/reference_miner.py``) — asserts byte-identical output
unconditionally, and requires the kernel run to be at least ``3x`` faster
(retry-once-then-skip guarded, like every timing claim in this suite).

A second, micro-level measurement times :func:`classify_pairs` against the
equivalent loop of scalar ``classify`` calls on one large batch of ordered
interval pairs — the kernel in isolation, without mining around it.

Both ratios are printed with the benchmark's table;
``BENCH_relation_kernel.json`` in the repository root keeps the records of
earlier runs as frozen history.
"""

from __future__ import annotations

import random

import numpy as np

from repro import HTPGM, MiningConfig
from repro.core.relation_kernel import classify_pairs
from repro.core.relations import classify
from repro.evaluation import format_table
from repro.timeseries import EventInstance, SequenceDatabase, TemporalSequence

from _bench_utils import (
    assert_min_speedup,
    bench_scale,
    benchmark_rounds,
    best_of,
    emit,
    reference_evaluation,
)

#: Minimum end-to-end speedup of the vectorized miner over the scalar
#: reference path on the dense workload (acceptance criterion; an idle host
#: measures well above it).
MIN_SPEEDUP = 3.0

#: tmax keeps the per-instance candidate windows narrow, which is exactly the
#: regime the ``searchsorted`` prefilter exists for; max_pattern_size=3 makes
#: the benchmark exercise both kernel entry points (pair growth at level 2,
#: occurrence-block extension at level 3).
CONFIG = MiningConfig(
    min_support=0.5,
    min_confidence=0.5,
    min_overlap=1.0,
    tmax=120.0,
    max_pattern_size=3,
)


def dense_database(
    n_sequences: int = 8,
    n_series: int = 5,
    instances_per_series: int = 60,
    span: float = 2000.0,
    seed: int = 11,
) -> SequenceDatabase:
    """Every series occurs in every sequence with a dense instance train."""
    scaled = max(8, int(instances_per_series * bench_scale()))
    rng = random.Random(seed)
    sequences = []
    for sequence_id in range(n_sequences):
        instances = []
        for rank in range(n_series):
            for _ in range(scaled):
                start = round(rng.uniform(0.0, span), 1)
                duration = round(rng.uniform(3.0, 25.0), 1)
                instances.append(
                    EventInstance(start, start + duration, f"S{rank}", "On")
                )
        sequences.append(TemporalSequence(sequence_id, instances))
    return SequenceDatabase(sequences)


def _kernel_microbench(n_pairs: int = 50_000, seed: int = 3) -> float:
    """Speedup of one ``classify_pairs`` batch over the scalar loop."""
    n_pairs = max(1000, int(n_pairs * bench_scale()))
    rng = random.Random(seed)
    raw = []
    for _ in range(n_pairs):
        s1 = rng.uniform(0.0, 100.0)
        s2 = s1 + rng.uniform(0.0, 20.0)
        raw.append((s1, s1 + rng.uniform(0.0, 15.0), s2, s2 + rng.uniform(0.0, 15.0)))
    starts1 = np.array([r[0] for r in raw])
    ends1 = np.array([r[1] for r in raw])
    starts2 = np.array([r[2] for r in raw])
    ends2 = np.array([r[3] for r in raw])
    instances = [
        (EventInstance(r[0], r[1], "A", "On"), EventInstance(r[2], r[3], "B", "On"))
        for r in raw
    ]

    kernel_seconds, codes = best_of(
        3, lambda: classify_pairs(starts1, ends1, starts2, ends2, 0.5, 1.0)
    )
    scalar_seconds, relations = best_of(
        3, lambda: [classify(e1, e2, 0.5, 1.0) for e1, e2 in instances]
    )
    # The microbench doubles as a parity spot-check on continuous inputs.
    assert [None if r is None else r.code for r in relations] == codes.tolist()
    return scalar_seconds / kernel_seconds if kernel_seconds else float("inf")


def test_vectorized_kernel_speedup_on_dense_workload(benchmark):
    database = dense_database()

    def run():
        vectorized_seconds, vectorized_result = best_of(
            2, lambda: HTPGM(CONFIG).mine(database)
        )
        with reference_evaluation():
            scalar_seconds, scalar_result = best_of(
                2, lambda: HTPGM(CONFIG).mine(database)
            )
        return vectorized_seconds, vectorized_result, scalar_seconds, scalar_result

    next_round = benchmark_rounds(benchmark, run, label="speedup")
    micro_ratio = _kernel_microbench()

    def measure():
        (vec_seconds, vec_result, sca_seconds, sca_result), label = next_round()
        # Parity is unconditional: the kernel must never change the answer.
        mined = lambda result: [
            (m.pattern.events, m.pattern.relations, m.support, m.confidence)
            for m in result
        ]
        assert mined(vec_result) == mined(sca_result)
        assert (
            vec_result.statistics.relation_checks
            == sca_result.statistics.relation_checks
        )
        speedup = sca_seconds / vec_seconds if vec_seconds else float("inf")
        emit(
            format_table(
                ["path", "runtime (s)", "#patterns"],
                [
                    ["scalar reference", f"{sca_seconds:.3f}", len(sca_result)],
                    ["vectorized kernel", f"{vec_seconds:.3f}", len(vec_result)],
                    [label, f"{speedup:.2f}x", f"(kernel micro: {micro_ratio:.1f}x)"],
                ],
                title=(
                    f"Relation kernel: {len(database)} sequences, "
                    f"{sum(len(s) for s in database)} instances, "
                    f"tmax={CONFIG.tmax:g}"
                ),
            )
        )
        return speedup, None

    assert_min_speedup(
        measure,
        MIN_SPEEDUP,
        "vectorized relation kernel vs scalar reference on the dense workload",
    )
