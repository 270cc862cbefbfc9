"""Shared fixtures: a hand-built database mirroring the paper's running example.

The ``paper_sequence_db`` fixture recreates (a simplified version of) Table III
of the paper: four temporal sequences over six appliances (K, T, M, C, I, B)
with known supports, so tests can assert exact supports and confidences.  The
``small_energy`` / ``small_smartcity`` fixtures provide end-to-end synthetic
datasets at a size where every miner finishes in well under a second.
"""

from __future__ import annotations

import pytest

from repro import MiningConfig
from repro.datasets import make_dataset
from repro.timeseries import EventInstance, SequenceDatabase, TemporalSequence


def _instance(series: str, symbol: str, start: float, end: float) -> EventInstance:
    return EventInstance(start=start, end=end, series=series, symbol=symbol)


@pytest.fixture(scope="session")
def paper_sequence_db() -> SequenceDatabase:
    """Four sequences over six appliances, inspired by the paper's Table III.

    Times are minutes.  Only "On" events are included to keep supports easy to
    reason about:

    * K On appears in all 4 sequences,
    * T On appears in all 4 sequences and is contained in K On in 3 of them,
    * M On and C On appear in 3 sequences and overlap each other,
    * I On appears in 2 sequences, B On in 1 (infrequent at sigma = 0.75).
    """
    sequences = [
        TemporalSequence(
            0,
            [
                _instance("K", "On", 0, 40),
                _instance("T", "On", 5, 15),
                _instance("M", "On", 20, 30),
                _instance("C", "On", 22, 35),
                _instance("B", "On", 35, 40),
            ],
        ),
        TemporalSequence(
            1,
            [
                _instance("K", "On", 0, 30),
                _instance("T", "On", 5, 12),
                _instance("M", "On", 10, 20),
                _instance("C", "On", 12, 25),
                _instance("I", "On", 26, 29),
            ],
        ),
        TemporalSequence(
            2,
            [
                _instance("K", "On", 10, 45),
                _instance("T", "On", 15, 25),
                _instance("M", "On", 28, 38),
                _instance("C", "On", 30, 44),
            ],
        ),
        TemporalSequence(
            3,
            [
                _instance("K", "On", 0, 20),
                _instance("T", "On", 25, 35),
                _instance("I", "On", 36, 39),
            ],
        ),
    ]
    return SequenceDatabase(sequences)


@pytest.fixture(scope="session")
def default_config() -> MiningConfig:
    """Thresholds used by most unit tests: sigma = delta = 50%, small buffer."""
    return MiningConfig(
        min_support=0.5,
        min_confidence=0.5,
        epsilon=0.0,
        min_overlap=1.0,
        tmax=None,
        max_pattern_size=None,
    )


@pytest.fixture(scope="session")
def small_energy():
    """A small synthetic energy dataset plus its transformed databases."""
    dataset = make_dataset("dataport", scale=0.02, attribute_fraction=0.6, seed=3)
    symbolic_db, sequence_db = dataset.transform()
    return dataset, symbolic_db, sequence_db


@pytest.fixture(scope="session")
def small_smartcity():
    """A small synthetic smart-city dataset plus its transformed databases."""
    dataset = make_dataset("smartcity", scale=0.015, attribute_fraction=0.3, seed=3)
    symbolic_db, sequence_db = dataset.transform()
    return dataset, symbolic_db, sequence_db


@pytest.fixture(scope="session")
def fast_config() -> MiningConfig:
    """Configuration used for the end-to-end fixtures (bounded pattern size)."""
    return MiningConfig(
        min_support=0.4,
        min_confidence=0.4,
        epsilon=1.0,
        min_overlap=5.0,
        tmax=360.0,
        max_pattern_size=3,
    )
