"""The benchmark's four workloads: what each one runs, why it exists, its pins.

Every workload mines one of the seeded ``repro.datasets`` stand-ins for the
paper's data (Table IV).  The stand-in is generated from a fixed generator
seed, so each workload is one fixed dataset.  The benchmark's ``--seed`` only
shuffles how that dataset is presented: it permutes the order of the days
and the order of the CSV columns.  Every day becomes one temporal sequence
and symbolisation and NMI are order-free, so the mined pattern set, and the
work it takes, do not depend on ``--seed``.  Two things follow:

* every seed is checked against the same pinned result digest;
* the run-to-run spread measures the machine, not how many patterns a
  random dataset happens to hold.  At these sizes a fresh generator seed
  moves the mine time by up to 70%.

The input pin is the SHA-256 of the generated arrays in canonical (unshuffled)
order plus their shape.  A change under ``src/repro/datasets`` therefore shows
as a different workload and fails the run, instead of reading as a speed-up.

Why each workload exists.  The shares below are of the traced ``wall_s``
(``python3 perfbench/run.py --workload W --seed 2 --seconds 22 --trace 1``
on a 2-core x86-64 container).  Every traced run prints them again, so they
are re-measured rather than copied.  Sizes are below the paper's so that one
operation takes 2-3 s and a run can repeat it six to ten times.

``dataport-exact``
    Loads ``engine`` level-k evaluation: ~89% of the time is levels >= 3
    and ~4% is level 2.  CSV reading and the transform are ~5%.  This is
    the ROADMAP reference workload (dataport, 13 series, 60 days, E-HTPGM,
    serial) at sigma = delta = 0.45 rather than 0.3: 1,019 patterns up to
    level 6.  It bypasses ``pool`` and ``correlation``.
``dataport-process``
    The same input and thresholds on the process engine with 2 workers, the
    only workload that goes through ``pool`` (fork + pickle).  It has the
    digest of ``dataport-exact``, so the pair isolates scheduling cost.
    ``engine`` (slowest shard) is ~71%, ``pool`` transport and waiting
    ~15% and coordination in ``session`` ~6%.
``smartcity-approx``
    The paper's MI path: A-HTPGM with graph density 0.6 over 30 series and
    122 days (scale 0.1 rather than 0.3), tmax = 720 and at most 3 events
    per pattern (117 patterns).  ``timeseries`` is ~50%
    (``split_into_sequences`` ~32%, ``symbolize_set`` ~17%), level-2
    evaluation ~34%, level 3 ~13% and ``correlation`` ~3%.  A level-k
    change should not move it; a transform or level-2 change should.
``ukdale-append``
    The write path next to the mine path, as ``repro mine --append`` runs
    it.  Set-up mines the first 136 of 152 days into a retaining
    ``MiningSession`` and writes the session file.  The measured operation
    reads the session, folds in the last 16 days and writes the session to
    a new file.  It is the only workload that uses ``session_io`` (~26%)
    and retained, never summarised, occurrences; ``engine`` is ~73%.  It
    runs at sigma = delta = 0.55 rather than 0.4 (361 patterns, levels
    1-5).  Baseline fact for a later incremental-path change: today the
    append re-evaluates every candidate that a from-scratch mine of all 152
    days generates (``append.reeval_share`` = 1.0), so it costs a full
    re-mine plus the session read and write.  Its pinned digest is that of
    the from-scratch mine, which is the session invariant.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.config import MiningConfig
from repro.datasets import make_dataset
from repro.io.csv_io import write_time_series_csv
from repro.pipeline import FTPMfTS
from repro.timeseries.series import TimeSeries, TimeSeriesSet

MINUTES_PER_DAY = 1440.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a dataset stand-in, a miner set-up and its pins."""

    name: str
    dataset: str
    scale: float
    attribute_fraction: float
    data_seed: int
    config: dict
    approximate: bool = False
    graph_density: float | None = None
    #: Days held back from set-up and folded in by the measured append;
    #: 0 for the mine workloads.
    append_days: int = 0
    #: SHA-256 of the generated arrays in canonical order.
    input_sha256: str | None = None
    #: (series, rows, days) of the generated input.
    shape: tuple[int, int, int] | None = None
    #: SHA-256 of the canonical ``MiningResult.to_records()`` JSON.
    result_sha256: str | None = None
    n_patterns: int | None = None

    def mining_config(self) -> MiningConfig:
        return MiningConfig(**self.config)

    def pipeline(self) -> FTPMfTS:
        """The ``repro mine`` pipeline this workload runs."""
        dataset = self.make_dataset()
        return FTPMfTS(
            split_config=dataset.split_config,
            symbolizers=dataset.symbolizers,
            mining_config=self.mining_config(),
            approximate=self.approximate,
            graph_density=self.graph_density,
        )

    def make_dataset(self):
        return make_dataset(
            self.dataset,
            scale=self.scale,
            attribute_fraction=self.attribute_fraction,
            seed=self.data_seed,
        )


_DATAPORT = dict(
    dataset="dataport", scale=0.05, attribute_fraction=0.6, data_seed=103,
    input_sha256="60e00d37df877106cefd9125daa3bf370a0a185748efb961bc29452037998f6c",
    shape=(13, 8640, 60),
    result_sha256="18d53fb4ac029399eb100b201862e717fe52a101ebd37cb029a5b54f5ce9a229",
    n_patterns=1019,
)
_DATAPORT_THRESHOLDS = dict(
    min_support=0.45, min_confidence=0.45, epsilon=0.0, min_overlap=1.0
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="dataport-exact",
            config=dict(_DATAPORT_THRESHOLDS),
            **_DATAPORT,
        ),
        Workload(
            name="dataport-process",
            config=dict(_DATAPORT_THRESHOLDS, engine="process", n_workers=2),
            **_DATAPORT,
        ),
        Workload(
            name="smartcity-approx",
            dataset="smartcity", scale=0.1, attribute_fraction=0.5, data_seed=104,
            config=dict(
                min_support=0.4, min_confidence=0.4, epsilon=1.0,
                min_overlap=30.0, tmax=720.0, max_pattern_size=3,
            ),
            approximate=True, graph_density=0.6,
            input_sha256="20966a759a35e01b95426cf41eb2299ea16dcac8658a26fe7aa784c2edb21e9c",
            shape=(30, 2928, 122),
            result_sha256="c132eda9bc0282c10c8ad9e2c88712d891c18efc38196ea9d850a1e4331c9aa8",
            n_patterns=117,
        ),
        Workload(
            name="ukdale-append",
            dataset="ukdale", scale=0.1, attribute_fraction=0.25, data_seed=102,
            config=dict(
                min_support=0.55, min_confidence=0.55, epsilon=0.0, min_overlap=1.0
            ),
            append_days=16,
            input_sha256="91545ad6bcb1ae2d988b9e4cad8cbf9f0d72cda766621c550eb0539c724241bf",
            shape=(13, 21888, 152),
            # The from-scratch mine of all 152 days: the session invariant.
            result_sha256="16aa0acb66dc691b23820a26803953df190f11c69ac3a73678b2355522a4fec4",
            n_patterns=361,
        ),
    )
}


def canonical_digest(series_set: TimeSeriesSet) -> str:
    """SHA-256 over names, timestamps and values in generated order."""
    digest = hashlib.sha256()
    for series in series_set:
        digest.update(series.name.encode())
        digest.update(np.ascontiguousarray(series.timestamps, dtype=np.float64).tobytes())
        digest.update(np.ascontiguousarray(series.values, dtype=np.float64).tobytes())
    return digest.hexdigest()


def day_of(series_set: TimeSeriesSet) -> np.ndarray:
    """Day number of every row, counted from the first row."""
    timestamps = series_set.series[0].timestamps
    return np.floor((timestamps - timestamps[0]) / MINUTES_PER_DAY).astype(np.int64)


def shuffled(series_set: TimeSeriesSet, seed: int) -> TimeSeriesSet:
    """The same days in a seed-chosen order, with the columns shuffled too.

    Day ``d``'s readings move to day slot ``order[d]``; the time grid stays
    ascending, so every day still becomes exactly one sequence.
    """
    rng = np.random.default_rng(seed)
    day = day_of(series_set)
    n_days = int(day[-1]) + 1
    rows_per_day = len(day) // n_days
    if rows_per_day * n_days != len(day):
        raise ValueError("the generated grid does not hold whole days")
    order = rng.permutation(n_days)
    rows = (order[:, None] * rows_per_day + np.arange(rows_per_day)).ravel()
    columns = rng.permutation(len(series_set))
    timestamps = series_set.series[0].timestamps
    return TimeSeriesSet(
        [
            TimeSeries(
                name=series_set.series[i].name,
                timestamps=timestamps.copy(),
                values=series_set.series[i].values[rows],
            )
            for i in columns
        ]
    )


def days(series_set: TimeSeriesSet, first: int, last: int) -> TimeSeriesSet:
    """Rows of days ``first <= day < last``."""
    day = day_of(series_set)
    mask = (day >= first) & (day < last)
    return TimeSeriesSet(
        [
            TimeSeries(name=s.name, timestamps=s.timestamps[mask], values=s.values[mask])
            for s in series_set
        ]
    )


def write_inputs(workload: Workload, seed: int, directory: Path) -> dict:
    """Generate the workload's input for ``seed`` and write it as CSV.

    Mine workloads write ``input.csv``; the append workload writes
    ``base.csv`` (set-up) and ``delta.csv`` (the measured append).  Returns
    the canonical digest and shape, and the digest of the bytes written.
    """
    series_set = workload.make_dataset().series_set
    n_days = int(day_of(series_set)[-1]) + 1
    presented = shuffled(series_set, seed)
    directory.mkdir(parents=True, exist_ok=True)
    if workload.append_days:
        cut = n_days - workload.append_days
        paths = [
            write_time_series_csv(days(presented, 0, cut), directory / "base.csv"),
            write_time_series_csv(days(presented, cut, n_days), directory / "delta.csv"),
        ]
    else:
        paths = [write_time_series_csv(presented, directory / "input.csv")]
    file_digest = hashlib.sha256()
    for path in paths:
        file_digest.update(path.read_bytes())
    return {
        "input_sha256": canonical_digest(series_set),
        "shape": [len(series_set), len(series_set.series[0].timestamps), n_days],
        "file_sha256": file_digest.hexdigest(),
    }
