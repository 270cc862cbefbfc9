"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dataport-exact --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  The run sets the workload up three times
(each in a fresh process; ``setup_s`` is their median), then repeats the
measured operation, each time in a fresh process, until ``--seconds`` have
passed and at least three operations ran.  Every operation's result digest
is checked against the workload's pin.

``--trace 0`` prints the end-to-end metrics: medians of ``wall_ref``,
``cpu_ref`` and ``peak_rss_mib``, the set-up time ``setup_s`` and
``success_rate`` (1 - error_rate).  ``wall_ref`` and ``cpu_ref`` are the
operation's wall-clock and CPU time (this process plus reaped workers)
divided by the time of a fixed reference loop run in the same process just
before and after the operation (``worker.reference_seconds``).  The host's
speed drifts by up to 1.5x within minutes, and the ratio cancels that drift;
the raw ``wall_s`` and ``cpu_s`` medians are printed beside them.  ``--trace 1`` alternates untraced and
traced operations and prints the per-layer metrics of the traced ones
(medians), each layer's share of ``wall_s``, and ``trace.overhead``.

The last stdout line is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK = ROOT / ".perfbench_work"
#: Hard stop for one run; the benchmark contract allows 180 s.
DEADLINE_S = 170.0
SETUPS = 3
MIN_OPS = 3
MIN_TRACED_PAIRS = 2
#: Share of the traced ``wall_s`` the per-layer times must account for.
MIN_COVERAGE = 0.9

END_TO_END_UNITS = {
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "success_rate": "ratio",
}
PER_LAYER_UNITS = {
    "io.read_csv_s": "s",
    "timeseries.symbolize_s": "s",
    "timeseries.split_s": "s",
    "timeseries.sequences": "count",
    "timeseries.instances": "count",
    "correlation.nmi_s": "s",
    "correlation.series_kept": "ratio",
    "level1.s": "s",
    "level1.frequent_events": "count",
    "level2.coord_s": "s",
    "level2.candidates": "count",
    "level2.eval_s": "s",
    "level2.relation_checks": "count",
    "level2.yield": "ratio",
    "levelk.coord_s": "s",
    "levelk.candidates": "count",
    "levelk.eval_s": "s",
    "levelk.relation_checks": "count",
    "levelk.checks_per_s": "1/s",
    "levelk.pruned_share": "ratio",
    "levelk.yield": "ratio",
    "levels": "count",
    "pool.overhead_s": "s",
    "pool.worker_cpu_s": "s",
    "pool.busy_share": "ratio",
    "pool.retries": "count",
    "pool.splits": "count",
    "append.s": "s",
    "append.reeval_share": "ratio",
    "session_io.read_s": "s",
    "session_io.write_s": "s",
    "session_io.bytes": "bytes",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}


class BenchmarkError(Exception):
    """The run cannot produce a measurement (broken checkout or set-up)."""


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


def call_worker(args: list[str], deadline: Deadline) -> dict:
    """Run ``worker.py`` in a fresh interpreter and parse its JSON line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline.left()),
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"worker {' '.join(args[:3])} exited {completed.returncode}: "
            f"{completed.stderr.strip()[-2000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def check_checkout() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro sources under {ROOT / 'src'}")


def run_setups(workload, seed: int, directory: Path, deadline: Deadline) -> list[dict]:
    """Set the workload up ``SETUPS`` times; every set-up must agree."""
    args = ["setup", "--workload", workload.name, "--seed", str(seed), "--dir", str(directory)]
    setups = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        setup = call_worker(args, deadline)
        setup["setup_s"] = time.perf_counter() - started
        setups.append(setup)
    first = setups[0]
    for other in setups[1:]:
        if other["file_sha256"] != first["file_sha256"]:
            raise BenchmarkError("set-up is not deterministic: input files differ")
    return setups


def input_problems(workload, setup: dict) -> list[str]:
    """Differences between the generated input and the workload's pin."""
    problems = []
    if setup["input_sha256"] != workload.input_sha256:
        problems.append(f"input digest {setup['input_sha256']} != pin {workload.input_sha256}")
    if setup["shape"] != list(workload.shape):
        problems.append(f"input shape {setup['shape']} != pin {list(workload.shape)}")
    return problems


def result_ok(workload, record: dict) -> bool:
    return (
        record["digest"] == workload.result_sha256
        and record["n_patterns"] == workload.n_patterns
    )


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def measure(workload, directory: Path, seconds: float, trace: bool, deadline: Deadline):
    """Repeat the measured operation until ``seconds`` have passed.

    Returns the untraced and traced records that passed every check, the
    failure messages and the number of operations attempted.
    """
    base = ["op", "--workload", workload.name, "--dir", str(directory)]
    plain: list[dict] = []
    traced: list[dict] = []
    failures: list[str] = []
    started = time.monotonic()
    attempts = 0
    longest = 0.0
    while True:
        enough = len(traced) >= MIN_TRACED_PAIRS if trace else len(plain) >= MIN_OPS
        out_of_time = deadline.left() < 2 * longest + 5
        if enough and (out_of_time or time.monotonic() - started >= seconds):
            break
        if out_of_time:
            attempts += 1
            failures.append("out of time before enough operations passed")
            break
        kinds = [("plain", base)]
        if trace:
            extra = ["--trace"] + (["--scratch"] if not traced else [])
            kinds.append(("traced", base + extra))
        for kind, args in kinds:
            attempts += 1
            began = time.monotonic()
            try:
                record = call_worker(args, deadline)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
                failures.append(f"{kind} operation failed: {error}")
                continue
            finally:
                longest = max(longest, time.monotonic() - began)
            if not result_ok(workload, record):
                failures.append(
                    f"{kind} digest {record['digest']} ({record['n_patterns']} patterns) "
                    f"!= pin {workload.result_sha256} ({workload.n_patterns})"
                )
                continue
            if "scratch_digest" in record and record["scratch_digest"] != record["digest"]:
                failures.append("append result differs from the from-scratch mine")
                continue
            coverage = record.get("metrics", {}).get("trace.coverage", 1.0)
            if not MIN_COVERAGE <= coverage <= 1.01:
                failures.append(f"the layer split covers {coverage:.1%} of the traced wall_s")
                continue
            (traced if kind == "traced" else plain).append(record)
        if attempts >= 4 and len(failures) == attempts:
            break
    return plain, traced, failures, attempts


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Medians of the traced per-layer metrics, plus each layer's share of wall_s."""
    computed = ("append.reeval_share", "trace.overhead")
    metrics = {
        name: median([record["metrics"].get(name, 0.0) for record in traced])
        for name in PER_LAYER_UNITS
        if name not in computed
    }
    # Candidates the append re-evaluated, against a from-scratch mine's.
    scratch = [r["scratch_candidates"] for r in traced if "scratch_candidates" in r]
    reevaluated = metrics["level2.candidates"] + metrics["levelk.candidates"]
    metrics["append.reeval_share"] = reevaluated / scratch[0] if scratch else 0.0
    metrics["trace.overhead"] = (
        median([r["wall_ref"] for r in traced]) / median([r["wall_ref"] for r in plain]) - 1.0
    )
    shares = {
        name: median([r["layers"][name] / r["wall_s"] for r in traced])
        for name in traced[0]["layers"]
    }
    shares["other"] = median([1.0 - r["metrics"]["trace.coverage"] for r in traced])
    return metrics, shares


def report(name: str, value: float, unit: str) -> dict:
    print(f"  {name:<28} {value:>16.6g} {unit}")
    return {"value": value, "unit": unit}


def run(args: argparse.Namespace) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    check_checkout()
    import workloads  # imports repro from this checkout's src

    if args.workload not in workloads.WORKLOADS:
        raise BenchmarkError(
            f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}"
        )
    workload = workloads.WORKLOADS[args.workload]
    deadline = Deadline(DEADLINE_S)
    directory = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    try:
        setups = run_setups(workload, args.seed, directory, deadline)
        problems = input_problems(workload, setups[0])
        if problems:
            raise BenchmarkError("; ".join(problems))
        plain, traced, failures, attempts = measure(
            workload, directory, args.seconds, args.trace == 1, deadline
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    import numpy

    print(
        "record: "
        + json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "git_sha": git_sha(),
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "input_sha256": setups[0]["input_sha256"],
                "input_shape": setups[0]["shape"],
                "input_file_sha256": setups[0]["file_sha256"],
                "result_sha256": sorted({r["digest"] for r in plain + traced}),
                "pinned_result_sha256": workload.result_sha256,
                "n_patterns": sorted({r["n_patterns"] for r in plain + traced}),
                "ops": [
                    {k: round(r[k], 4) for k in ("wall_s", "wall_ref", "cpu_ref", "reference_s")}
                    for r in plain
                ],
                "traced_wall_s": [round(r["wall_s"], 4) for r in traced],
                "setup_s": [round(s["setup_s"], 4) for s in setups],
            }
        )
    )
    for failure in failures:
        print(f"FAILED: {failure}")
    failed = len(failures)
    print(f"{workload.name} seed={args.seed}: {attempts} operations, {failed} failed")
    print(f"  error_rate {failed / attempts:.4f}")
    metrics: dict[str, dict] = {}
    correct = failed == 0 and bool(plain) and (bool(traced) or args.trace == 0)
    if args.trace == 0:
        for name, unit in (("wall_s", "s"), ("cpu_s", "s"), ("reference_s", "s")):
            if plain:
                print(f"  {name:<28} {median([r[name] for r in plain]):>16.6g} {unit} (raw)")
        values = {
            "wall_ref": median([r["wall_ref"] for r in plain]) if plain else 0.0,
            "cpu_ref": median([r["cpu_ref"] for r in plain]) if plain else 0.0,
            "peak_rss_mib": median([r["peak_rss_mib"] for r in plain]) if plain else 0.0,
            "setup_s": median([s["setup_s"] for s in setups]),
            "success_rate": 1.0 - failed / attempts,
        }
        for name, unit in END_TO_END_UNITS.items():
            metrics[name] = report(name, values[name], unit)
    elif correct:
        values, shares = per_layer(plain, traced)
        for name, unit in PER_LAYER_UNITS.items():
            metrics[name] = report(name, values[name], unit)
        print("  share of traced wall_s by layer:")
        for name, share in shares.items():
            print(f"    {name:<12} {share:7.1%}")
    print(f"  verdict: {'correct' if correct else 'INCORRECT'}")
    return {"correct": correct, "attempted": attempts, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (BenchmarkError, RuntimeError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
