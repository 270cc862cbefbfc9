"""Figures 10 & 11 — scalability in the number of sequences (data size).

The paper varies the fraction of sequences (20-100%) on NIST (Fig. 10) and
Smart City (Fig. 11) and shows that every method's runtime grows with the data
size while the ranking A-HTPGM <= E-HTPGM < baselines is preserved, with the
speedup widening on the largest configuration.  The benchmark reproduces the
curve at a reduced scale.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.evaluation import ExperimentRunner, format_series

from _bench_utils import emit, smoke_mode

FRACTIONS = (0.25, 0.5, 0.75, 1.0)
METHODS = ("A-HTPGM", "E-HTPGM", "TPMiner", "IEMiner", "H-DFS")
A_DENSITY = 0.6
#: Timed runs per point, taken round-robin across the methods: timing each
#: method's runs back to back let host load drift land on one method only (a
#: best of five read 1.28x E-HTPGM/TPMiner on a 2-core host where the
#: round-robin best of the same runs read 0.96x).
ROUNDS = 5


@pytest.mark.parametrize(
    "figure,dataset_fixture,config_fixture",
    [
        ("Fig. 10", "nist_bench", "energy_config"),
        ("Fig. 11", "smartcity_scaling_bench", "smartcity_config"),
    ],
)
def test_scalability_varying_data_size(figure, dataset_fixture, config_fixture, benchmark, request):
    bench = request.getfixturevalue(dataset_fixture)
    config = request.getfixturevalue(config_fixture)

    def time_once(runner, method):
        """One run with the cyclic GC paused, as ``timeit`` does.  In a full
        test session a collection scans every object earlier tests left
        alive, and it lands on whichever method crosses the threshold: with
        the GC on, E-HTPGM's Fig. 11 runs there read 0.19-0.44 s against
        TPMiner's 0.23-0.47 s; paused, 0.16-0.18 s against 0.20-0.21 s."""
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            if method == "A-HTPGM":
                runner.run(method, config, graph_density=A_DENSITY)
            else:
                runner.run(method, config)
            return time.perf_counter() - start
        finally:
            gc.enable()

    def run():
        curves = {method: [] for method in METHODS}
        for fraction in FRACTIONS:
            database = bench.sequence_db.subset(fraction)
            runner = ExperimentRunner(sequence_db=database, symbolic_db=bench.symbolic_db)
            timings = {method: [] for method in METHODS}
            for _ in range(ROUNDS):
                for method in METHODS:
                    timings[method].append(time_once(runner, method))
            # Best of the rounds: absorbs warm-up and allocator noise.
            for method in METHODS:
                curves[method].append(round(min(timings[method]), 3))
        return curves

    curves = benchmark.pedantic(run, rounds=1, iterations=1)

    emit(
        format_series(
            "% of sequences",
            [f"{f:.0%}" for f in FRACTIONS],
            curves,
            title=f"{figure} ({bench.name}): runtime (s) vs data size",
        )
    )

    if smoke_mode():
        pytest.skip(
            "smoke run: workloads too small for the runtime-ordering claims"
        )
    # At the largest size the exact miner still beats the best baseline, and the
    # slowest baseline's runtime grows from the smallest to the largest setting.
    final = {method: curves[method][-1] for method in METHODS}
    assert final["E-HTPGM"] <= min(final["TPMiner"], final["IEMiner"], final["H-DFS"]) * 1.1
    slowest = max(("TPMiner", "IEMiner", "H-DFS"), key=lambda m: final[m])
    assert curves[slowest][-1] >= curves[slowest][0]
