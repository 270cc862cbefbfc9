"""Tests of the benchmark's own helpers, on a tiny dataset.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
from pathlib import Path

import pytest

import run
import worker
import workloads
from repro.core.engine import ProcessPoolBackend, SerialBackend
from repro.core.htpgm import HTPGM

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def tiny(name: str, **config) -> workloads.Workload:
    """A registered workload shrunk to a few seconds, with no pins."""
    return dataclasses.replace(
        workloads.WORKLOADS[name],
        scale=0.01,
        attribute_fraction=0.3,
        config=dict(workloads.WORKLOADS[name].config, **config),
        input_sha256=None,
        shape=None,
        result_sha256=None,
        n_patterns=None,
    )


@pytest.fixture(autouse=True)
def no_leaked_shared_memory():
    yield
    if os.path.isdir("/dev/shm"):
        assert not [name for name in os.listdir("/dev/shm") if name.startswith("repro-")]


@pytest.mark.parametrize(
    "backend_factory",
    [SerialBackend, lambda: ProcessPoolBackend(n_workers=2, min_candidates_per_worker=1)],
    ids=["serial", "process"],
)
def test_tracing_backend_is_transparent(backend_factory):
    workload = tiny("dataport-exact", min_support=0.3, min_confidence=0.3)
    _, sequence_db = workload.make_dataset().transform()
    config = workload.mining_config()

    with backend_factory() as bare:
        expected = HTPGM(config=config, backend=bare).mine(sequence_db)
    tracer = worker.TracingBackend(backend_factory())
    try:
        traced = HTPGM(config=config, backend=tracer).mine(sequence_db)
    finally:
        tracer.close()

    assert worker.result_digest(traced) == worker.result_digest(expected)
    for counter in ("candidates_generated", "relation_checks", "patterns_found"):
        assert getattr(traced.statistics, counter) == getattr(expected.statistics, counter)
    assert {call.level for call in tracer.calls} == {
        level for level in expected.statistics.level_seconds if level >= 2
    }


@pytest.mark.parametrize("name", ["dataport-exact", "dataport-process", "smartcity-approx"])
def test_traced_mine_matches_untraced(tmp_path, name):
    workload = tiny(name)
    workloads.write_inputs(workload, 3, tmp_path)
    pipeline = workload.pipeline()
    plain = worker.mine(pipeline, tmp_path)
    result, clock, sequence_db, tracers, _ = worker.traced_mine(pipeline, tmp_path)
    assert worker.result_digest(result) == worker.result_digest(plain)
    metrics = worker.layer_metrics(
        result, [c for t in tracers for c in t.calls], tracers[0].n_workers
    )
    assert metrics["levels"] == plain.statistics.max_level
    assert {"timeseries.symbolize_s", "timeseries.split_s", "io.read_csv_s"} <= set(clock.metrics)


def test_append_matches_from_scratch(tmp_path):
    workload = dataclasses.replace(tiny("ukdale-append"), append_days=4)
    worker.setup(workload, 7, tmp_path)
    pipeline = workload.pipeline()
    appended = worker.append(pipeline, tmp_path)
    assert worker.result_digest(appended) == worker.result_digest(
        worker.from_scratch(pipeline, tmp_path)
    )
    traced, clock, *_ = worker.traced_append(pipeline, tmp_path)
    assert worker.result_digest(traced) == worker.result_digest(appended)
    assert clock.metrics["session_io.bytes"] > 0


def test_seed_shuffles_input_but_not_result(tmp_path):
    workload = tiny("dataport-exact")
    pipeline = workload.pipeline()
    digests, files = set(), set()
    for seed in (1, 2):
        info = workloads.write_inputs(workload, seed, tmp_path / str(seed))
        files.add(info["file_sha256"])
        digests.add(worker.result_digest(worker.mine(pipeline, tmp_path / str(seed))))
    assert len(files) == 2
    assert len(digests) == 1


def test_metric_names_and_units_match_benchmark_json():
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == run.PER_LAYER_UNITS
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    for name in [*end_to_end, *per_layer, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name), name


def fake_worker(digest: str, n_patterns: int):
    def call(args, deadline):
        return {
            "wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mib": 50.0,
            "digest": digest, "n_patterns": n_patterns,
        }

    return call


def test_tampered_pin_counts_as_failure(monkeypatch, tmp_path):
    workload = workloads.WORKLOADS["dataport-exact"]
    monkeypatch.setattr(
        run, "call_worker", fake_worker(workload.result_sha256, workload.n_patterns)
    )
    plain, _, failures, attempts = run.measure(
        workload, tmp_path, 0.0, False, run.Deadline(60)
    )
    assert (len(plain), failures, attempts) == (run.MIN_OPS, [], run.MIN_OPS)

    tampered = dataclasses.replace(workload, result_sha256="0" * 64)
    plain, _, failures, attempts = run.measure(
        tampered, tmp_path, 0.0, False, run.Deadline(60)
    )
    assert plain == [] and len(failures) == attempts > 0
