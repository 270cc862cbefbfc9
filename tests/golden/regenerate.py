"""Regenerate the golden pattern fixtures.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

Each golden file freezes the exact pattern set (events, relations, support,
confidence) mined from one bundled synthetic dataset under one configuration,
plus the run's work counters (candidates, prunes, relation checks, patterns
per level).  ``tests/test_golden_patterns.py`` requires every execution engine
to reproduce these files byte-for-byte, so regenerate them **only** when an
intentional algorithmic change shifts the expected output or the work done —
and say so in the commit.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro import HTPGM, MiningConfig
from repro.datasets import make_dataset

GOLDEN_DIR = Path(__file__).resolve().parent

#: dataset name -> (make_dataset kwargs, MiningConfig kwargs)
CASES: dict[str, tuple[dict, dict]] = {
    "dataport": (
        {"scale": 0.02, "attribute_fraction": 0.6, "seed": 3},
        {
            "min_support": 0.4,
            "min_confidence": 0.4,
            "epsilon": 1.0,
            "min_overlap": 5.0,
            "tmax": 360.0,
            "max_pattern_size": 3,
        },
    ),
    "smartcity": (
        {"scale": 0.015, "attribute_fraction": 0.3, "seed": 3},
        {
            "min_support": 0.4,
            "min_confidence": 0.4,
            "epsilon": 1.0,
            "min_overlap": 30.0,
            "tmax": 720.0,
            "max_pattern_size": 3,
        },
    ),
}


def golden_records(result) -> list[dict]:
    """The frozen, engine-independent view of a mining result."""
    return [
        {
            "events": [list(event) for event in mined.pattern.events],
            "relations": [relation.value for relation in mined.pattern.relations],
            "support": mined.support,
            "confidence": repr(mined.confidence),
        }
        for mined in result
    ]


#: ``MiningStatistics.as_dict()`` keys that measure time or report
#: diagnostics rather than work, so they are not pinned.
_UNPINNED = ("level_seconds", "correlation_seconds", "warnings")


def golden_counters(statistics) -> dict:
    """The work counters of a run, with per-level keys as strings, the way
    JSON writes them."""
    counters = {
        name: value
        for name, value in statistics.as_dict().items()
        if name not in _UNPINNED
    }
    return json.loads(json.dumps(counters))


def regenerate() -> None:
    for name, (dataset_kwargs, config_kwargs) in CASES.items():
        dataset = make_dataset(name, **dataset_kwargs)
        _, sequence_db = dataset.transform()
        result = HTPGM(MiningConfig(**config_kwargs)).mine(sequence_db)
        payload = {
            "dataset": name,
            "dataset_kwargs": dataset_kwargs,
            "config_kwargs": config_kwargs,
            "n_sequences": result.n_sequences,
            "n_patterns": len(result),
            "patterns": golden_records(result),
            "counters": golden_counters(result.statistics),
        }
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {len(result)} patterns to {path}")


if __name__ == "__main__":
    regenerate()
