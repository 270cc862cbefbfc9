"""Event-level mutual-information pruning (the paper's stated future work).

Section VII of the paper closes with: *"In future work, we plan to extend
HTPGM to perform pruning at the event level to further improve the
performance."*  This module implements that extension.

Series-level pruning (A-HTPGM) computes NMI between whole symbolic series, so
a series with one informative symbol and several noisy ones is kept or dropped
as a unit.  Event-level pruning works on the *occurrence indicators* of
individual events across the sequences of ``DSEQ``: for every frequent event a
binary vector ``b_E`` records in which sequences the event occurs (this is
exactly the level-1 bitmap HTPGM already builds), and two events are considered
correlated when the normalised mutual information between their indicator
vectors reaches a threshold ``µ_e`` in both directions.  Event pairs below the
threshold are excluded from level-2 candidate generation — a strictly finer
filter than the series-level correlation graph.

Like the series-level filter, this is an *approximation*: patterns over
uncorrelated event pairs are lost.  The ablation benchmark
(``benchmarks/test_ablation_event_pruning.py``) measures the accuracy /
runtime trade-off next to the series-level filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import ConfigurationError
from ..timeseries.sequences import SequenceDatabase
from .events import EventKey
from .mutual_information import entropy, mutual_information

__all__ = ["EventCorrelationIndex", "binary_nmi", "build_event_correlation_index"]


def binary_nmi(joint_11: int, count_x: int, count_y: int, total: int) -> float:
    """NMI between two binary indicators, normalised by the first one's entropy.

    Parameters
    ----------
    joint_11:
        Number of sequences where both events occur.
    count_x, count_y:
        Number of sequences where each event occurs individually.
    total:
        Total number of sequences (``|DSEQ|``).
    """
    if total <= 0:
        raise ConfigurationError("total must be positive")
    if not 0 <= joint_11 <= min(count_x, count_y):
        raise ConfigurationError("joint count cannot exceed either marginal count")
    if count_x > total or count_y > total:
        raise ConfigurationError("marginal counts cannot exceed the total")

    px = count_x / total
    py = count_y / total
    marginal_x = {1: px, 0: 1 - px}
    hx = entropy(marginal_x)
    if hx == 0.0:
        return 0.0

    cells = {
        (1, 1): joint_11 / total,
        (1, 0): (count_x - joint_11) / total,
        (0, 1): (count_y - joint_11) / total,
        (0, 0): (total - count_x - count_y + joint_11) / total,
    }
    mi = mutual_information(cells, marginal_x, {1: py, 0: 1 - py})
    return min(mi / hx, 1.0)


@dataclass
class EventCorrelationIndex:
    """Pairwise event-level correlation decisions for a sequence database."""

    mi_threshold: float
    n_sequences: int
    event_counts: dict[EventKey, int]
    #: Unordered event pairs whose bidirectional NMI reaches the threshold.
    correlated_pairs: set[frozenset[EventKey]] = field(default_factory=set)

    def are_correlated(self, event_a: EventKey, event_b: EventKey) -> bool:
        """Whether the two events may form level-2 candidates.

        Events of the same series are always allowed (self-relations and
        within-series dynamics are never pruned by this filter), mirroring the
        series-level correlation graph.
        """
        if event_a == event_b or event_a[0] == event_b[0]:
            return True
        return frozenset((event_a, event_b)) in self.correlated_pairs

    @property
    def n_correlated_pairs(self) -> int:
        """Number of cross-series event pairs kept by the filter."""
        return len(self.correlated_pairs)


def build_event_correlation_index(
    database: SequenceDatabase, mi_threshold: float
) -> EventCorrelationIndex:
    """Compute event-level NMI over sequence occurrence indicators.

    One database pass collects the per-event occurrence sets; every cross-series
    event pair is then scored with :func:`binary_nmi` in both directions and
    kept when both values reach ``mi_threshold``.
    """
    if not 0 < mi_threshold <= 1:
        raise ConfigurationError(f"mi_threshold must be in (0, 1], got {mi_threshold}")
    total = len(database)
    if total == 0:
        raise ConfigurationError("cannot build an event correlation index on an empty database")

    occurrence_sets: dict[EventKey, set[int]] = {}
    for sequence in database:
        for event in sequence.event_keys():
            occurrence_sets.setdefault(event, set()).add(sequence.sequence_id)

    events = list(occurrence_sets)
    correlated: set[frozenset[EventKey]] = set()
    for i, event_a in enumerate(events):
        set_a = occurrence_sets[event_a]
        for event_b in events[i + 1 :]:
            if event_a[0] == event_b[0]:
                continue  # same series: never pruned, no need to score
            set_b = occurrence_sets[event_b]
            joint = len(set_a & set_b)
            forward = binary_nmi(joint, len(set_a), len(set_b), total)
            backward = binary_nmi(joint, len(set_b), len(set_a), total)
            if forward >= mi_threshold and backward >= mi_threshold:
                correlated.add(frozenset((event_a, event_b)))

    return EventCorrelationIndex(
        mi_threshold=mi_threshold,
        n_sequences=total,
        event_counts={event: len(ids) for event, ids in occurrence_sets.items()},
        correlated_pairs=correlated,
    )
