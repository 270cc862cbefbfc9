"""Post-processing a mining result: condensation, summaries and timelines.

Frequent temporal pattern mining produces a verbose output (every sub-pattern
of a frequent pattern is frequent too).  This example mines a synthetic energy
dataset and then uses :mod:`repro.analysis` to condense and explain the result:

* maximal / closed pattern condensation,
* relation-type distribution and strongest series interactions,
* an ASCII timeline of one supporting occurrence, and
* the event-level MI pruning extension (the paper's stated future work).

Run with::

    python examples/pattern_analysis.py
"""

from __future__ import annotations

from repro import AHTPGM, HTPGM, MiningConfig
from repro.analysis import (
    closed_patterns,
    maximal_patterns,
    render_occurrence,
    summary_report,
)
from repro.datasets import make_dataset
from repro.evaluation import accuracy


def main() -> None:
    dataset = make_dataset("ukdale", scale=0.03, attribute_fraction=0.3, seed=19)
    symbolic_db, sequence_db = dataset.transform()

    config = MiningConfig(
        min_support=0.4,
        min_confidence=0.4,
        epsilon=1.0,
        min_overlap=5.0,
        tmax=360.0,
        max_pattern_size=3,
    )
    miner = HTPGM(config)
    result = miner.mine(sequence_db)

    print(summary_report(result, top=5))

    maximal = maximal_patterns(result)
    closed = closed_patterns(result)
    print(
        f"\nCondensation: {len(result)} patterns -> {len(closed)} closed -> "
        f"{len(maximal)} maximal"
    )
    print("Maximal patterns:")
    for mined in maximal[:8]:
        print(f"  {mined.describe()}")

    # Show one supporting occurrence of the largest maximal pattern on a timeline.
    largest = max(maximal, key=lambda m: m.size)
    node = miner.graph_.node_for(tuple(sorted(largest.pattern.events)))
    if node is not None and largest.pattern in node.patterns:
        entry = node.patterns[largest.pattern]
        # The entry stores index rows; they resolve against level 1.
        occurrences_by_sequence = entry.occurrences(miner.graph_.level1)
        sequence_id, occurrences = next(iter(occurrences_by_sequence.items()))
        print(f"\nOne occurrence of '{largest.pattern.describe()}' (sequence {sequence_id}):")
        print(render_occurrence(occurrences[0], width=60))

    # Event-level MI pruning: the finer filter the paper leaves as future work.
    extended = AHTPGM(config, graph_density=0.6, event_mi_threshold=0.05)
    approx = extended.mine(sequence_db, symbolic_db)
    print(
        f"\nEvent-level MI pruning kept {extended.event_index_.n_correlated_pairs} "
        f"cross-series event pairs; accuracy vs exact: {accuracy(result, approx):.0%} "
        f"({len(approx)} of {len(result)} patterns)"
    )


if __name__ == "__main__":
    main()
