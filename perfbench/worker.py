"""One set-up or one measured operation, in a process of its own.

``run.py`` starts this script once per set-up and once per measured
operation, so every operation starts from a fresh interpreter: its peak RSS
is its own, and its CPU count includes only the workers it reaped.  The
script prints one JSON object on its last stdout line.

    python3 perfbench/worker.py setup --workload W --seed N --dir D
    python3 perfbench/worker.py op    --workload W --dir D [--trace] [--scratch]

``run.py`` times a set-up as the whole life of its process, so ``setup_s``
includes importing ``repro``, generating the input and writing it as CSV,
and for ``ukdale-append`` mining the first days and writing the session file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro.core.approximate
import repro.core.htpgm
from repro.io.csv_io import read_time_series_csv
from repro.io.session_io import read_session, write_session
from repro.timeseries.segmentation import split_into_sequences
from repro.timeseries.series import TimeSeries, TimeSeriesSet
from repro.timeseries.symbolization import symbolize_set

import workloads


def result_digest(result) -> str:
    """SHA-256 of the canonical JSON of ``MiningResult.to_records()``."""
    text = json.dumps(result.to_records(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def cpu_seconds() -> float:
    """User + system CPU of this process and of every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mib() -> float:
    """High-water RSS of this process and of its largest reaped child."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


# --------------------------------------------------------------------------- tracing
@dataclass
class RunCall:
    """One ``ExecutionBackend.run`` call as seen from the miner."""

    level: int
    candidates: int
    wall_s: float
    #: The outcome's own ``level_seconds`` (slowest shard under the pool).
    eval_s: float
    #: CPU of this process plus reaped workers over the call.
    cpu_s: float


class TracingBackend:
    """Delegating ``ExecutionBackend`` that times each ``run()`` of another.

    Cost estimation and routing see the wrapped backend's own ``name``,
    ``wants_costs`` and ``would_shard``, so the miner does exactly the work
    it would do without the wrapper.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        self.wants_costs = getattr(inner, "wants_costs", False)
        self.n_workers = getattr(inner, "n_workers", 1)
        self.calls: list[RunCall] = []

    def would_shard(self, n_items: int) -> bool:
        # Mirrors the miner's own rule for backends without would_shard.
        would_shard = getattr(self.inner, "would_shard", None)
        return would_shard is None or would_shard(n_items)

    def run(self, context, candidates, costs=None):
        cpu_before = cpu_seconds()
        started = time.perf_counter()
        outcome = self.inner.run(context, candidates, costs)
        wall = time.perf_counter() - started
        self.calls.append(
            RunCall(
                level=context.level,
                candidates=len(candidates),
                wall_s=wall,
                eval_s=outcome.stats.level_seconds.get(context.level, 0.0),
                cpu_s=cpu_seconds() - cpu_before,
            )
        )
        return outcome

    def map_shards(self, func, payload, items, costs=None):
        return self.inner.map_shards(func, payload, items, costs)

    def close(self) -> None:
        self.inner.close()


@contextmanager
def traced_backends(tracers: list[TracingBackend]):
    """Wrap every backend the miners resolve from their config."""
    modules = (repro.core.htpgm, repro.core.approximate)
    originals = [module.backend_from_config for module in modules]

    def wrapped(config):
        tracer = TracingBackend(originals[0](config))
        tracers.append(tracer)
        return tracer

    for module in modules:
        module.backend_from_config = wrapped
    try:
        yield
    finally:
        for module, original in zip(modules, originals):
            module.backend_from_config = original


class Clock:
    """Per-layer metrics of one traced operation, mostly wall-clock sums."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.metrics[name] = self.metrics.get(name, 0.0) + time.perf_counter() - started


def transform(pipeline, series_set: TimeSeriesSet, clock: Clock):
    """``FTPMfTS.transform``, with symbolisation and splitting timed apart."""
    aligned = series_set if series_set.is_aligned() else series_set.align()
    with clock("timeseries.symbolize_s"):
        symbolic_db = symbolize_set(aligned, pipeline.symbolizers)
    with clock("timeseries.split_s"):
        sequence_db = split_into_sequences(symbolic_db, pipeline.split_config)
    return symbolic_db, sequence_db


def layer_metrics(result, calls: list[RunCall], n_workers: int) -> dict[str, float]:
    """Per-level split of one mine or append from its statistics and run calls."""
    stats = result.statistics
    eval_s: dict[int, float] = {}
    wall_s: dict[int, float] = {}
    for call in calls:
        eval_s[call.level] = eval_s.get(call.level, 0.0) + call.eval_s
        wall_s[call.level] = wall_s.get(call.level, 0.0) + call.wall_s
    coord_s = {
        level: seconds - eval_s.get(level, 0.0)
        for level, seconds in stats.level_seconds.items()
        if level >= 2
    }
    for level, seconds in coord_s.items():
        # The session books a level as eval_s + its own time outside run().
        if seconds < -1e-9 or eval_s.get(level, 0.0) > wall_s.get(level, 0.0) + 1e-3:
            raise RuntimeError(
                f"level {level}: coord_s={seconds} eval_s={eval_s.get(level)} "
                f"run wall={wall_s.get(level)} do not add up to level_seconds"
            )

    metrics: dict[str, float] = {
        "level1.s": stats.level_seconds.get(1, 0.0),
        "level1.frequent_events": float(stats.frequent_events),
        "levels": float(stats.max_level),
        "correlation.nmi_s": stats.correlation_seconds,
    }
    for prefix, in_group in (("level2", lambda k: k == 2), ("levelk", lambda k: k >= 3)):

        def total(counter: dict[int, float]) -> float:
            return float(sum(v for k, v in counter.items() if in_group(k)))

        candidates = total(stats.candidates_generated)
        metrics[f"{prefix}.coord_s"] = total(coord_s)
        metrics[f"{prefix}.candidates"] = candidates
        metrics[f"{prefix}.eval_s"] = total(eval_s)
        metrics[f"{prefix}.relation_checks"] = total(stats.relation_checks)
        metrics[f"{prefix}.yield"] = (
            total(stats.patterns_found) / candidates if candidates else 0.0
        )
        if prefix == "levelk":
            pruned = total(stats.pruned_support) + total(stats.pruned_confidence)
            metrics["levelk.pruned_share"] = pruned / candidates if candidates else 0.0
    metrics["levelk.checks_per_s"] = (
        metrics["levelk.relation_checks"] / metrics["levelk.eval_s"]
        if metrics["levelk.eval_s"]
        else 0.0
    )
    run_wall = sum(call.wall_s for call in calls)
    worker_cpu = sum(call.cpu_s for call in calls)
    metrics["pool.overhead_s"] = run_wall - sum(call.eval_s for call in calls)
    metrics["pool.worker_cpu_s"] = worker_cpu
    metrics["pool.busy_share"] = worker_cpu / (n_workers * run_wall) if run_wall else 0.0
    metrics["pool.retries"] = float(sum(stats.shard_retries.values()))
    metrics["pool.splits"] = float(sum(stats.shard_splits.values()))
    return metrics


# --------------------------------------------------------------------------- operations
def setup(workload: workloads.Workload, seed: int, directory: Path) -> dict:
    info = workloads.write_inputs(workload, seed, directory)
    if workload.append_days:
        pipeline = workload.pipeline()
        session = pipeline.create_session()
        pipeline.mine(read_time_series_csv(directory / "base.csv"), session=session)
        write_session(session, directory / "base.session")
    return info


def mine(pipeline, directory: Path):
    """``repro mine``: CSV to ``MiningResult``."""
    return pipeline.mine(read_time_series_csv(directory / "input.csv"))


def append(pipeline, directory: Path):
    """``repro mine --append``: read the session, fold in the delta, write it."""
    session = read_session(directory / "base.session")
    result = pipeline.mine_incremental(
        read_time_series_csv(directory / "delta.csv"), session
    )
    write_session(session, directory / "appended.session")
    return result


def traced_mine(pipeline, directory: Path):
    clock = Clock()
    with clock("io.read_csv_s"):
        series_set = read_time_series_csv(directory / "input.csv")
    symbolic_db, sequence_db = transform(pipeline, series_set, clock)
    tracers: list[TracingBackend] = []
    with traced_backends(tracers):
        result = pipeline.mine_transformed(symbolic_db, sequence_db)
    return result, clock, sequence_db, tracers, len(series_set)


def traced_append(pipeline, directory: Path):
    clock = Clock()
    with clock("session_io.read_s"):
        session = read_session(directory / "base.session")
    with clock("io.read_csv_s"):
        series_set = read_time_series_csv(directory / "delta.csv")
    _, sequence_db = transform(pipeline, series_set, clock)
    tracer = TracingBackend(repro.core.htpgm.backend_from_config(pipeline.mining_config))
    try:
        with clock("append.s"):
            result = session.append(sequence_db, backend=tracer)
    finally:
        tracer.close()
    with clock("session_io.write_s"):
        path = write_session(session, directory / "appended.session")
    clock.metrics["session_io.bytes"] = float(path.stat().st_size)
    return result, clock, sequence_db, [tracer], len(series_set)


def from_scratch(pipeline, directory: Path):
    """Mine base and delta together, as one database, from scratch."""
    base = read_time_series_csv(directory / "base.csv")
    delta = read_time_series_csv(directory / "delta.csv")
    merged = TimeSeriesSet(
        [
            TimeSeries(
                name=series.name,
                timestamps=np.concatenate([series.timestamps, delta[series.name].timestamps]),
                values=np.concatenate([series.values, delta[series.name].values]),
            )
            for series in base
        ]
    )
    return pipeline.mine(merged)


def reference_seconds() -> float:
    """Wall time of a fixed interpreter-bound loop, the machine's speed now.

    The host this benchmark runs on changes speed by up to 1.5x within
    minutes, for every process alike.  Dividing an operation's time by this
    loop's, measured just before and after it, cancels that drift; the
    program under test cannot change the loop.
    """
    started = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(600_000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
    sorted(table.items(), key=lambda item: item[1])
    return time.perf_counter() - started


def measure(workload: workloads.Workload, directory: Path, trace: bool, scratch: bool) -> dict:
    appending = bool(workload.append_days)
    pipeline = workload.pipeline()
    reference_before = reference_seconds()
    cpu_before = cpu_seconds()
    started = time.perf_counter()
    if trace:
        traced = traced_append if appending else traced_mine
        result, clock, sequence_db, tracers, n_series = traced(pipeline, directory)
    else:
        result = (append if appending else mine)(pipeline, directory)
    wall = time.perf_counter() - started
    cpu = cpu_seconds() - cpu_before
    reference = (reference_before + reference_seconds()) / 2
    record = {
        "wall_s": wall,
        "cpu_s": cpu,
        "wall_ref": wall / reference,
        "cpu_ref": cpu / reference,
        "reference_s": reference,
        "peak_rss_mib": peak_rss_mib(),
        "digest": result_digest(result),
        "n_patterns": len(result),
    }
    if not trace:
        return record

    calls = [call for tracer in tracers for call in tracer.calls]
    n_workers = max((tracer.n_workers for tracer in tracers), default=1)
    metrics = layer_metrics(result, calls, n_workers)
    metrics.update(clock.metrics)
    metrics["timeseries.sequences"] = float(len(sequence_db))
    metrics["timeseries.instances"] = float(
        sum(len(sequence.instances) for sequence in sequence_db)
    )
    kept = result.correlated_series
    metrics["correlation.series_kept"] = len(kept) / n_series if kept is not None else 1.0
    layers = {
        "io": clock.metrics.get("io.read_csv_s", 0.0),
        "timeseries": clock.metrics["timeseries.symbolize_s"]
        + clock.metrics["timeseries.split_s"],
        "correlation": metrics["correlation.nmi_s"],
        "session": metrics["level1.s"] + metrics["level2.coord_s"] + metrics["levelk.coord_s"],
        "engine": metrics["level2.eval_s"] + metrics["levelk.eval_s"],
        "pool": metrics["pool.overhead_s"],
        "session_io": clock.metrics.get("session_io.read_s", 0.0)
        + clock.metrics.get("session_io.write_s", 0.0),
    }
    record["layers"] = layers
    metrics["trace.coverage"] = sum(layers.values()) / wall
    record["metrics"] = metrics
    if scratch and appending:
        reference = from_scratch(pipeline, directory)
        record["scratch_digest"] = result_digest(reference)
        record["scratch_candidates"] = reference.statistics.total_candidates
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("setup", "op"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--scratch", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.action == "setup":
        record = setup(workload, args.seed, args.dir)
    else:
        record = measure(workload, args.dir, args.trace, args.scratch)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
