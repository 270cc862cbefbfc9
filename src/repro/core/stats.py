"""Counters describing one mining run.

These counters are the observable side of the pruning techniques: the ablation
benchmarks (Figs. 6–7 of the paper) read them to report how many candidates
each lemma removed, and the tests use them to assert that pruning never changes
the mined pattern set, only the amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["MiningStatistics"]

#: Per-level work counters that merge by element-wise addition.
_COUNTER_FIELDS = (
    "candidates_generated",
    "pruned_support",
    "pruned_confidence",
    "pruned_transitivity_events",
    "pruned_relation_checks",
    "relation_checks",
    "patterns_found",
)


@dataclass
class MiningStatistics:
    """Work counters collected while mining.

    After :meth:`~repro.core.session.MiningSession.append` the counters
    describe the append's own work.  ``candidates_generated``,
    ``pruned_support`` and ``pruned_confidence`` count each candidate whose
    events co-occur in a delta sequence, or that involves a newly frequent
    event, once; the untouched candidates, whose stored nodes are re-admitted
    without evaluation, are not counted.  ``relation_checks`` and
    ``pruned_relation_checks`` count the work of both evaluations: the delta
    pass over the delta sequences and the evaluation over every sequence of
    the candidates the pass could not settle.  ``patterns_found`` describes
    the merged state, as after a full mine.
    """

    #: Number of sequences in the mined database.
    n_sequences: int = 0
    #: Distinct events scanned at level 1.
    events_scanned: int = 0
    #: Events that met the support threshold (the ``1Freq`` set).
    frequent_events: int = 0
    #: Candidate event combinations generated per level (level -> count).
    candidates_generated: dict[int, int] = field(default_factory=dict)
    #: Candidates removed by the Apriori support check (Lemma 2).
    pruned_support: dict[int, int] = field(default_factory=dict)
    #: Candidates removed by the Apriori confidence check (Lemma 3).
    pruned_confidence: dict[int, int] = field(default_factory=dict)
    #: Single events removed from the Cartesian product by Lemma 5.
    pruned_transitivity_events: dict[int, int] = field(default_factory=dict)
    #: Pattern extensions rejected by the iterative L2 check (Lemmas 4, 6, 7).
    pruned_relation_checks: dict[int, int] = field(default_factory=dict)
    #: Instance-pair relation classifications performed per level.
    relation_checks: dict[int, int] = field(default_factory=dict)
    #: Frequent patterns found per level.
    patterns_found: dict[int, int] = field(default_factory=dict)
    #: Wall-clock seconds spent per level.
    level_seconds: dict[int, float] = field(default_factory=dict)
    #: Wall-clock seconds of A-HTPGM's correlation phase: pairwise NMI,
    #: correlation-graph construction and — when event-level pruning is
    #: enabled — the event correlation index.  0.0 for the exact miner.
    correlation_seconds: float = 0.0
    #: Shard resubmissions per level (level -> count).  Non-empty only when
    #: the process engine retried crashed/hung/failed shards; the mined
    #: pattern set is unaffected (retries are idempotent).
    shard_retries: dict[int, int] = field(default_factory=dict)
    #: Memory-pressure recoveries per level (level -> count): each split of
    #: an over-budget shard piece and each degradation step (chunk shrink,
    #: in-process fallback) counts one.  Non-empty only under
    #: ``memory_budget_bytes``; the mined pattern set is unaffected (every
    #: recovery is output-preserving).
    shard_splits: dict[int, int] = field(default_factory=dict)
    #: Degradation warnings recorded during the run (process pool degraded
    #: to serial, memory-budget splits, ...).  Deduplicated.
    warnings: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------ increments
    def bump(self, counter: dict[int, int], level: int, amount: int = 1) -> None:
        """Increment a per-level counter; a zero amount is a no-op.

        Skipping zero amounts keeps the counter dicts (and their
        :meth:`as_dict` rendering) free of spurious ``{level: 0}`` entries
        when e.g. transitivity pruning removes nothing at a level.
        """
        if amount == 0:
            return
        counter[level] = counter.get(level, 0) + amount

    def record_warning(self, message: str) -> None:
        """Record a degradation warning once (repeats are dropped)."""
        if message not in self.warnings:
            self.warnings.append(message)

    # ------------------------------------------------------------------ merging
    def absorb_counters(self, other: "MiningStatistics") -> None:
        """Add another run's per-level work counters into this one.

        Only the per-level counter dicts are combined; the scalar database
        facts (``n_sequences`` etc.) and ``level_seconds`` are owned by the
        run-level statistics object and must be maintained by the caller.
        """
        for name in _COUNTER_FIELDS:
            mine = getattr(self, name)
            for level, amount in getattr(other, name).items():
                mine[level] = mine.get(level, 0) + amount
        # Fault-tolerance bookkeeping rides along: retry and split counts add
        # like any work counter, warnings merge deduplicated.
        for level, amount in other.shard_retries.items():
            self.shard_retries[level] = self.shard_retries.get(level, 0) + amount
        for level, amount in other.shard_splits.items():
            self.shard_splits[level] = self.shard_splits.get(level, 0) + amount
        for message in other.warnings:
            self.record_warning(message)

    def merge_shard(self, other: "MiningStatistics") -> None:
        """Merge the statistics of one parallel shard into this aggregate.

        Work counters add — every shard did its counted work — but
        ``level_seconds`` merges as the element-wise **max**: shards run
        concurrently, so the level's wall-clock is the slowest shard, not the
        sum of all shards.  (The miner then adds its own candidate-generation
        and merge overhead on top; see ``HTPGM``.)
        """
        self.absorb_counters(other)
        for level, seconds in other.level_seconds.items():
            self.level_seconds[level] = max(
                self.level_seconds.get(level, 0.0), seconds
            )

    # ------------------------------------------------------------------ summaries
    @property
    def total_candidates(self) -> int:
        """Candidates generated across all levels."""
        return sum(self.candidates_generated.values())

    @property
    def total_pruned(self) -> int:
        """Candidates and extensions removed by every pruning rule."""
        return (
            sum(self.pruned_support.values())
            + sum(self.pruned_confidence.values())
            + sum(self.pruned_transitivity_events.values())
            + sum(self.pruned_relation_checks.values())
        )

    @property
    def total_patterns(self) -> int:
        """Frequent patterns found across all levels."""
        return sum(self.patterns_found.values())

    @property
    def max_level(self) -> int:
        """Deepest level that produced at least one frequent pattern."""
        levels = [level for level, count in self.patterns_found.items() if count > 0]
        return max(levels) if levels else 0

    def as_dict(self) -> dict[str, object]:
        """Plain-dict rendering for logging and JSON export."""
        return {
            "n_sequences": self.n_sequences,
            "events_scanned": self.events_scanned,
            "frequent_events": self.frequent_events,
            "candidates_generated": dict(self.candidates_generated),
            "pruned_support": dict(self.pruned_support),
            "pruned_confidence": dict(self.pruned_confidence),
            "pruned_transitivity_events": dict(self.pruned_transitivity_events),
            "pruned_relation_checks": dict(self.pruned_relation_checks),
            "relation_checks": dict(self.relation_checks),
            "patterns_found": dict(self.patterns_found),
            "level_seconds": dict(self.level_seconds),
            "correlation_seconds": self.correlation_seconds,
            "shard_retries": dict(self.shard_retries),
            "shard_splits": dict(self.shard_splits),
            "warnings": list(self.warnings),
            "total_patterns": self.total_patterns,
        }
