"""Small helpers shared by the benchmark modules.

The regenerated paper tables are collected in memory and printed by the
``pytest_terminal_summary`` hook in ``conftest.py`` (terminal-summary output is
not swallowed by pytest's capture), so a plain

    pytest benchmarks/ --benchmark-only | tee bench_output.txt

records every table alongside the pytest-benchmark timing report.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

__all__ = [
    "best_of",
    "emit",
    "collected_tables",
    "bench_scale",
    "smoke_mode",
    "assert_min_speedup",
    "benchmark_rounds",
    "reference_evaluation",
]


def reference_evaluation():
    """The scalar reference miner's context manager
    (``tests/reference_miner.py``): mines inside it evaluate with the
    reference.  Puts ``tests/`` on ``sys.path`` when ``pytest benchmarks``
    runs alone."""
    tests = str(Path(__file__).resolve().parent.parent / "tests")
    if tests not in sys.path:
        sys.path.append(tests)
    from reference_miner import reference_evaluation

    return reference_evaluation()


def benchmark_rounds(benchmark, run, label: str = "speedup"):
    """Measurement rounds for the retry-once-then-skip speedup benchmarks.

    Returns a ``next_round()`` callable: the first invocation runs ``run``
    under pytest-benchmark (so the timing report sees it) and is labelled
    ``label``; any later invocation — the guard's retry — runs bare and is
    labelled ``"<label> (retry)"``.  Pairs with :func:`assert_min_speedup`,
    which calls its ``measure`` at most twice.
    """
    state = {"first": True}

    def next_round():
        if state.pop("first", False):
            return benchmark.pedantic(run, rounds=1, iterations=1), label
        return run(), f"{label} (retry)"

    return next_round


def smoke_mode() -> bool:
    """True when ``REPRO_BENCH_SMOKE`` is set: the CI smoke job runs every
    benchmark on a tiny workload to keep the code paths honest, but the
    measured ratios are noise at that size, so timing claims skip."""
    return bool(os.environ.get("REPRO_BENCH_SMOKE"))


def bench_scale(default: float = 1.0) -> float:
    """Global dataset scale multiplier of this benchmark run.

    ``REPRO_BENCH_SCALE`` enlarges (or shrinks) every dataset proportionally;
    smoke mode quarters whatever that resolves to.
    """
    scale = float(os.environ.get("REPRO_BENCH_SCALE", str(default)))
    if smoke_mode():
        scale *= 0.25
    return scale


def assert_min_speedup(measure, min_ratio: float, describe: str):
    """Retry-once-then-skip guard shared by the speedup benchmarks.

    ``measure()`` returns ``(ratio, artifacts)``; the measurement runs once,
    and a ratio below ``min_ratio`` earns exactly one full re-measurement
    before the test *skips* — a still-low ratio on a loaded or undersized
    runner says "noisy neighbours", not "regression".  In smoke mode the
    measurement still runs (so the benchmark code cannot rot) but the
    assertion is skipped outright.  Returns the last ``(ratio, artifacts)``.
    """
    import pytest

    ratio, artifacts = measure()
    if smoke_mode():
        pytest.skip(
            f"{describe}: smoke run measured {ratio:.2f}x on a tiny workload; "
            "timing claims are not asserted in smoke mode"
        )
    if ratio < min_ratio:
        ratio, artifacts = measure()
        if ratio < min_ratio:
            pytest.skip(
                f"{describe}: measured only {ratio:.2f}x after a retry "
                f"(want >= {min_ratio}x); runner appears heavily loaded"
            )
    return ratio, artifacts


def best_of(n_rounds, run):
    """Best-of-n wall-clock of ``run()``: absorbs warm-up and GC noise.

    Returns ``(seconds, result)`` with the result of the last round.
    """
    timings = []
    for _ in range(n_rounds):
        start = time.perf_counter()
        result = run()
        timings.append(time.perf_counter() - start)
    return min(timings), result

#: Tables emitted during the session, in emission order.
_TABLES: list[str] = []


def emit(text: str) -> None:
    """Record one paper-style table (and echo it for ``pytest -s`` runs)."""
    _TABLES.append(text)
    print("\n" + text + "\n")


def collected_tables() -> list[str]:
    """All tables emitted so far in this session."""
    return list(_TABLES)
