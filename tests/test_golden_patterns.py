"""Golden regression fixtures: any engine must reproduce the stored patterns.

``tests/golden/*.json`` freezes the exact pattern sets mined from the bundled
synthetic smart-city and appliance (DataPort stand-in) datasets, and the work
counters of those runs.  These tests re-mine each dataset on every execution
engine and demand byte-level agreement with the fixtures — catching both
accidental algorithmic drift (a changed pruning rule, a reordered relation, a
candidate evaluated that used to be pruned) and engine-specific divergence (a
shard merged in the wrong order, a candidate evaluated twice).

To refresh the fixtures after an *intentional* change::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro import HTPGM, MiningConfig
from repro.datasets import make_dataset

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN_DIR))
from regenerate import golden_counters, golden_records  # noqa: E402  (fixture helpers live next to the data)

GOLDEN_NAMES = ("dataport", "smartcity")
ENGINES = ("serial", "process")


@pytest.fixture(scope="module", params=GOLDEN_NAMES)
def golden_case(request):
    """One golden payload plus the transformed database it was mined from."""
    path = GOLDEN_DIR / f"{request.param}.json"
    payload = json.loads(path.read_text())
    dataset = make_dataset(request.param, **payload["dataset_kwargs"])
    _, sequence_db = dataset.transform()
    return payload, sequence_db


class TestGoldenPatterns:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_reproduces_golden_patterns(self, golden_case, engine):
        payload, sequence_db = golden_case
        config = MiningConfig(
            **payload["config_kwargs"],
            engine=engine,
            n_workers=2 if engine == "process" else None,
        )
        result = HTPGM(config).mine(sequence_db)
        assert result.engine == engine
        assert result.n_sequences == payload["n_sequences"]
        assert len(result) == payload["n_patterns"]
        assert golden_records(result) == payload["patterns"]
        assert golden_counters(result.statistics) == payload["counters"]

    def test_fixture_files_are_well_formed(self):
        for name in GOLDEN_NAMES:
            payload = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
            assert payload["dataset"] == name
            assert payload["n_patterns"] == len(payload["patterns"])
            assert payload["n_patterns"] > 0, "golden fixture must not be empty"
            for record in payload["patterns"]:
                assert record["support"] >= 1
                assert 0.0 <= float(record["confidence"]) <= 1.0
