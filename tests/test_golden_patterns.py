"""Golden regression fixtures: any engine must reproduce the stored patterns.

``tests/golden/*.json`` freezes the exact pattern sets mined from the bundled
synthetic smart-city and appliance (DataPort stand-in) datasets, and the work
counters of those runs.  These tests re-mine each dataset on every execution
engine, and through the scalar reference (``tests/reference_miner.py``), and
demand byte-level agreement with the fixtures — catching both
accidental algorithmic drift (a changed pruning rule, a reordered relation, a
candidate evaluated that used to be pruned) and engine-specific divergence (a
shard merged in the wrong order, a candidate evaluated twice).  The A-HTPGM
fixture also pins every pairwise NMI value bit for bit, the derived threshold
``µ`` and the series the correlation graph keeps.

To refresh the fixtures after an *intentional* change::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

from repro import AHTPGM, HTPGM, MiningConfig
from repro.core.correlation import pairwise_nmi
from repro.datasets import make_dataset

from reference_miner import reference_evaluation

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN_DIR))
from regenerate import (  # noqa: E402  (fixture helpers live next to the data)
    APPROXIMATE_CASE,
    golden_counters,
    golden_nmi,
    golden_records,
)

GOLDEN_NAMES = ("dataport", "smartcity")
#: The execution engines, and the scalar reference run serially.
ENGINES = ("serial", "process", "reference")


def engine_config(payload, engine: str) -> MiningConfig:
    """The golden run's configuration on ``engine``."""
    return MiningConfig(
        **payload["config_kwargs"],
        engine="process" if engine == "process" else "serial",
        n_workers=2 if engine == "process" else None,
    )


def evaluation(engine: str):
    """The context a mine on ``engine`` runs in."""
    return reference_evaluation() if engine == "reference" else nullcontext()


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
        config = engine_config(payload, engine)
        with evaluation(engine):
            result = HTPGM(config).mine(sequence_db)
        assert result.engine == config.engine
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


@pytest.fixture(scope="module")
def approximate_case():
    """The A-HTPGM payload plus the (DSYB, DSEQ) it was mined from."""
    payload = json.loads((GOLDEN_DIR / f"{APPROXIMATE_CASE[0]}.json").read_text())
    dataset = make_dataset(payload["dataset"], **payload["dataset_kwargs"])
    return payload, *dataset.transform()


class TestApproximateGolden:
    def test_pairwise_nmi_values_are_bit_identical(self, approximate_case):
        payload, symbolic_db, _ = approximate_case
        assert golden_nmi(pairwise_nmi(symbolic_db)) == payload["pairwise_nmi"]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_reproduces_golden_ahtpgm(self, approximate_case, engine):
        payload, symbolic_db, sequence_db = approximate_case
        config = engine_config(payload, engine)
        miner = AHTPGM(config, graph_density=payload["graph_density"])
        with evaluation(engine):
            result = miner.mine(sequence_db, symbolic_db)
        graph = miner.correlation_graph_
        mu = float(payload["mi_threshold"])
        assert repr(float(graph.mi_threshold)) == payload["mi_threshold"]
        assert golden_nmi(graph.edges) == [
            row for row in payload["pairwise_nmi"] if float(row[2]) >= mu
        ]
        assert result.correlated_series == payload["correlated_series"]
        assert result.engine == config.engine
        assert result.n_sequences == payload["n_sequences"]
        assert len(result) == payload["n_patterns"]
        assert golden_records(result) == payload["patterns"]
        assert golden_counters(result.statistics) == payload["counters"]
