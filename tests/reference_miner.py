"""The scalar reference of HTPGM's candidate evaluation (Alg. 1 lines 6–20).

:mod:`repro.core.engine` evaluates every level in batched NumPy passes
(``engine._ExtensionBatch``).  This module keeps the literal per-candidate
loops beside the tests, as the executable specification the pass is checked
against: one ``classify`` call per instance pair at level 2, one per
(occurrence, new instance, pattern event) at level ``k``, with the Lemma 4–7
checks as set lookups and the work counters bumped where the loops do the
work.  Candidate admission runs one candidate at a time too: the Apriori
checks of Lemmas 2–3 on each candidate's sequence set, the intersection of
its events' level-1 instance-dict keys (Def. 3.13, :func:`shared_sequences`,
:func:`_open_combination`), the parent lookup and Lemma 5 (the level-``k``
loop, and :func:`admit`, the engine's admission before it ran in chunks).
Pattern admission is its own as well: :func:`_finalise_node` filters each
node's stored patterns through ``admit_patterns``, where the pass never
stores a pattern its mask rejects.  :func:`evaluate_candidates` has the
engine's signature and returns the same nodes, stored arrays and counters.

:func:`reference_evaluation` routes every mine, resume and append inside its
block through this module, on every backend: both backends look
``evaluate_candidates`` up in :mod:`repro.core.engine` when a batch starts
and hand it to their workers, so forked workers inherit the swapped function
and spawn workers unpickle it by its qualified name (this directory must be
on their ``sys.path``, as it is under pytest)::

    with reference_evaluation():
        result = HTPGM(config).mine(database)
"""

from __future__ import annotations

import os
import time
from collections.abc import Sequence
from functools import partial
from itertools import combinations
from unittest import mock

import numpy as np

import repro.core.engine as engine
from repro.core import hpg, resources
from repro.core.config import MiningConfig
from repro.core.engine import (
    Candidate,
    LevelContext,
    LevelOutcome,
    _first_row,
    admit_patterns,
)
from repro.core.events import EventKey
from repro.core.hpg import CombinationNode, EventNode, Occurrence, PatternEntry
from repro.core.patterns import TemporalPattern
from repro.core.relations import Relation, classify
from repro.core.stats import MiningStatistics
from repro.timeseries.sequences import EventInstance

__all__ = [
    "admit",
    "evaluate_candidates",
    "from_rows",
    "reference_evaluation",
    "shared_sequences",
]


def reference_evaluation(log=None):
    """A context manager evaluating every batch inside its block with the
    scalar reference (reusable: each entry swaps the engine's function).

    ``log`` names a file to which each evaluation appends its process id
    and level, so a test can see which processes ran the reference; the
    logging function pickles with the path, so spawn workers log too.
    """
    evaluate = evaluate_candidates if log is None else partial(_logged, os.fspath(log))
    return mock.patch.object(engine, "evaluate_candidates", evaluate)


def _logged(log: str, context: LevelContext, candidates) -> LevelOutcome:
    with open(log, "a") as handle:
        handle.write(f"{os.getpid()} {context.level}\n")
    return evaluate_candidates(context, candidates)


def evaluate_candidates(
    context: LevelContext, candidates: Sequence[Candidate]
) -> LevelOutcome:
    """Evaluate candidates in order against a level context, one candidate
    at a time (the engine's :func:`~repro.core.engine.evaluate_candidates`,
    unbatched)."""
    started = time.perf_counter()
    stats = MiningStatistics()
    nodes: list[CombinationNode] = []
    if context.level == 2:
        evaluate = _evaluate_pair
    else:
        evaluate = partial(_evaluate_combination, views={})
    watchdog = resources.shard_watchdog(context)
    for candidate in candidates:
        if watchdog is not None:
            watchdog.check()
        node = evaluate(context, candidate, stats)
        if node is not None:
            nodes.append(node)
    stats.level_seconds[context.level] = time.perf_counter() - started
    return LevelOutcome(nodes=nodes, stats=stats)


def apriori_prune(
    joint_support: int,
    max_event_support: int,
    min_count: int,
    config: MiningConfig,
) -> str | None:
    """Which Apriori check discards a candidate of any level: ``"support"``
    (Lemma 2), ``"confidence"`` (Lemma 3) or ``None`` when it survives.

    ``max_event_support`` is the largest support among the candidate's
    events.
    """
    if not config.pruning.uses_apriori:
        return None
    if joint_support < min_count:
        return "support"
    if joint_support / max_event_support < config.min_confidence:
        return "confidence"
    return None


def shared_sequences(level1, events) -> set[int]:
    """The sequences holding every one of ``events`` (Def. 3.13): the
    intersection of their level-1 instance-dict keys."""
    return set.intersection(
        *(set(level1[event].instances_by_sequence) for event in events)
    )


def _open_combination(
    context: LevelContext, candidate: Candidate, stats: MiningStatistics
) -> CombinationNode | None:
    """The Apriori checks (Lemmas 2–3) of one candidate of any level; the
    (still empty) node of a survivor, its events sorted."""
    level = context.level
    stats.bump(stats.candidates_generated, level)
    support = len(shared_sequences(context.level1, candidate))
    prune = apriori_prune(
        support,
        max(context.level1[event].support for event in candidate),
        context.min_count,
        context.config,
    )
    if prune is not None:
        pruned = stats.pruned_support if prune == "support" else stats.pruned_confidence
        stats.bump(pruned, level)
        return None
    if support == 0:
        return None
    return CombinationNode(events=tuple(sorted(candidate)))


#: One queued decomposition of :func:`admit`: the new event and the parent's
#: key (at level 2, the one-event key of the parent event).
Decomposition = tuple[EventKey, tuple[EventKey, ...]]


def admit(
    context: LevelContext, candidates: Sequence[Candidate], stats: MiningStatistics
) -> list[tuple[CombinationNode, list[Decomposition]]]:
    """Candidate admission one candidate at a time: the engine batch's
    per-candidate ``add`` before admission ran in chunks, without the
    queueing.

    Per candidate: the Apriori checks (:func:`_open_combination`); at level
    2 one decomposition per orientation of the pair (a self pair has one);
    at level ``k`` a parent lookup per new event, skipping absent parents
    and parents with no entry holding a row from ``delta_start`` on, and
    Lemma 5 through the instance table's ``has_pair`` (a failure counts one
    pruned relation check per such entry).  Returns, in candidate order,
    each node the batch keeps pending — a survivor that queues a
    decomposition, or every survivor of a delta pass — with its queued
    decompositions in order.
    """
    level, start = context.level, context.delta_start
    table = context.instances
    transitivity = level >= 3 and context.config.pruning.uses_transitivity
    pending = []
    for candidate in candidates:
        node = _open_combination(context, candidate, stats)
        if node is None:
            continue
        queued: list[Decomposition] = []
        if level == 2:
            first, second = candidate
            queued.append((second, (first,)))
            if second != first:
                queued.append((first, (second,)))
        else:
            for new_event in node.events:
                key = tuple(e for e in node.events if e != new_event)
                parent = context.parents.get(key)
                if parent is None:
                    continue
                entries = [
                    entry
                    for entry in parent.patterns.values()
                    if _first_row(entry, start) < len(entry.sequences)
                ]
                if not entries:
                    continue
                partners = table.has_pair[table.index[new_event]]
                if transitivity and not all(partners[table.index[e]] for e in key):
                    stats.bump(stats.pruned_relation_checks, level, len(entries))
                else:
                    queued.append((new_event, key))
        if queued or start:
            pending.append((node, queued))
    return pending


def from_rows(
    pattern: TemporalPattern, hits: list[tuple[int, hpg.IndexRow]]
) -> PatternEntry:
    """The entry of the scalar reference's ``(sequence, row)`` hits, in
    arrival order.

    A stable sort by sequence keeps each sequence's rows in arrival
    order, whatever order the sequences arrived in (the scalar loops
    deliver them sequence-major and ascending, so the sort moves
    nothing)."""
    ids = np.fromiter((sid for sid, _ in hits), np.int64, len(hits))
    order = np.argsort(ids, kind="stable")
    return PatternEntry(
        pattern,
        ids[order].astype(hpg._INDEX_DTYPE),
        hpg._checked_rows([row for _, row in hits])[order],
    )


#: The scalar reference's hits of one candidate: per pattern, in first-hit
#: order, its ``(sequence, index row)`` pairs in arrival order.
_Hits = dict[TemporalPattern, list[tuple[int, hpg.IndexRow]]]


def _evaluate_pair(
    context: LevelContext, candidate: Candidate, stats: MiningStatistics
) -> CombinationNode | None:
    """Alg. 1 lines 6–14 for one candidate event pair (scalar path)."""
    node = _open_combination(context, candidate, stats)
    if node is None:
        return None
    hits: _Hits = {}
    _grow_pair_patterns(context, candidate, hits, stats)
    return _finalise_node(context, _store_hits(node, hits), stats, level=2)


def _finalise_node(
    context: LevelContext,
    node: CombinationNode,
    stats: MiningStatistics,
    level: int,
) -> CombinationNode | None:
    """Keep only the patterns :func:`~repro.core.engine.admit_patterns`
    admits; return the node when non-empty.  A delta pass returns every node
    as found: its patterns hold delta rows only, so admission is the
    session's to decide."""
    if context.delta_start:
        return node
    node.patterns = admit_patterns(
        node.patterns, context.event_support, context.min_count, context.config
    )
    if node.has_patterns():
        stats.bump(stats.patterns_found, level, len(node.patterns))
        return node
    return None


def _store_hits(node: CombinationNode, hits: _Hits) -> CombinationNode:
    """Build each hit pattern's entry once, patterns in first-hit order."""
    node.patterns = {pattern: from_rows(pattern, rows) for pattern, rows in hits.items()}
    return node


def _grow_pair_patterns(
    context: LevelContext,
    candidate: Candidate,
    hits: _Hits,
    stats: MiningStatistics,
) -> None:
    """Scalar reference of level 2: classify every chronologically ordered
    instance pair in each shared sequence from ``delta_start`` on
    (:func:`_grow_sequence_pairs_scalar`)."""
    node_a, node_b = (context.level1[event] for event in candidate)
    same_event = node_a.event == node_b.event
    for sequence_id in sorted(shared_sequences(context.level1, candidate)):
        if sequence_id < context.delta_start:
            continue
        instances_a = node_a.instances_by_sequence.get(sequence_id, [])
        instances_b = (
            instances_a
            if same_event
            else node_b.instances_by_sequence.get(sequence_id, [])
        )
        _grow_sequence_pairs_scalar(
            context.config,
            hits,
            sequence_id,
            instances_a,
            instances_b,
            same_event,
            stats,
        )


def _grow_sequence_pairs_scalar(
    config: MiningConfig,
    hits: _Hits,
    sequence_id: int,
    instances_a: list[EventInstance],
    instances_b: list[EventInstance],
    same_event: bool,
    stats: MiningStatistics,
) -> None:
    """Scalar reference path: one ``classify`` call per instance pair.

    Pairs are enumerated with their list positions so every hit is recorded
    as an index row into the columnar occurrence store — the same store the
    vectorized pass fills in blocks."""
    tmax = config.tmax
    epsilon = config.epsilon
    min_overlap = config.min_overlap
    if same_event:
        for (index_first, first), (index_second, second) in combinations(
            enumerate(instances_a), 2
        ):
            if tmax is not None and second.end - first.start > tmax:
                continue
            stats.bump(stats.relation_checks, 2)
            relation = classify(first, second, epsilon, min_overlap)
            if relation is None:
                continue
            pattern = TemporalPattern(
                events=(first.event_key, second.event_key), relations=(relation,)
            )
            hits.setdefault(pattern, []).append(
                (sequence_id, (index_first, index_second))
            )
        return
    for index_a, instance_a in enumerate(instances_a):
        for index_b, instance_b in enumerate(instances_b):
            if instance_a <= instance_b:
                first, second = instance_a, instance_b
                row = (index_a, index_b)
            else:
                first, second = instance_b, instance_a
                row = (index_b, index_a)
            if tmax is not None and second.end - first.start > tmax:
                continue
            stats.bump(stats.relation_checks, 2)
            relation = classify(first, second, epsilon, min_overlap)
            if relation is None:
                continue
            pattern = TemporalPattern(
                events=(first.event_key, second.event_key), relations=(relation,)
            )
            hits.setdefault(pattern, []).append((sequence_id, row))


#: The scalar reference's parent views of one ``evaluate_candidates`` call:
#: per ``(id(parent entry), sequence)``, its index rows and instance tuples,
#: built once however many candidates extend them.
_Views = dict[tuple[int, int], tuple[list[list[int]], list[Occurrence]]]


def _evaluate_combination(
    context: LevelContext,
    candidate: Candidate,
    stats: MiningStatistics,
    views: _Views,
) -> CombinationNode | None:
    """Alg. 1 lines 16–20 for one candidate k-event combination (scalar path)."""
    node = _open_combination(context, candidate, stats)
    if node is None:
        return None
    hits: _Hits = {}
    _grow_combination_patterns(context, node, hits, views, stats)
    return _finalise_node(context, _store_hits(node, hits), stats, context.level)


def _grow_combination_patterns(
    context: LevelContext,
    node: CombinationNode,
    hits: _Hits,
    views: _Views,
    stats: MiningStatistics,
) -> None:
    """Extend every (k-1)-pattern of every parent node with the remaining event.

    Every k-event pattern has a unique chronologically last event, so the
    decomposition (parent = pattern without its last event, new event = the
    last event) generates each pattern exactly once.  A delta pass skips the
    entries without a row from ``delta_start`` on.
    """
    config = context.config
    for new_event in node.events:
        parent_key = tuple(e for e in node.events if e != new_event)
        parent = context.parents.get(parent_key)
        if parent is None:
            continue
        new_event_node = context.level1[new_event]
        for entry in parent.patterns.values():
            if _first_row(entry, context.delta_start) == len(entry.sequences):
                continue
            if config.pruning.uses_transitivity and not _may_extend(
                context, entry.pattern, new_event, stats
            ):
                continue
            _extend_entry(context, hits, entry, new_event_node, views, stats)


def _pair_key(event_a: EventKey, event_b: EventKey) -> tuple[EventKey, EventKey]:
    """Canonical (sorted) key of an unordered event pair."""
    return (event_a, event_b) if event_a <= event_b else (event_b, event_a)


def _may_extend(
    context: LevelContext,
    pattern: TemporalPattern,
    new_event: EventKey,
    stats: MiningStatistics,
) -> bool:
    """Lemma 5: every pattern event must share a frequent pair node with the new event."""
    for event in pattern.events:
        if not context.pair_patterns.get(_pair_key(event, new_event)):
            stats.bump(stats.pruned_relation_checks, context.level)
            return False
    return True


def _extend_entry(
    context: LevelContext,
    hits: _Hits,
    entry: PatternEntry,
    new_event_node: EventNode,
    views: _Views,
    stats: MiningStatistics,
) -> None:
    """Extend the stored occurrences of one (k-1)-pattern with the new event.

    The scalar reference of level ``k``: one
    :func:`_extend_sequence_scalar` call per supporting sequence from
    ``delta_start`` on, over the entry's rows and instance tuples of that
    sequence (resolved against ``context.level1`` once per call).
    """
    for sequence_id, index_matrix in entry.iter_index_matrices():
        if sequence_id < context.delta_start:
            continue
        new_instances = new_event_node.instances_by_sequence.get(sequence_id)
        if not new_instances:
            continue
        view = views.get((id(entry), sequence_id))
        if view is None:
            view = views[id(entry), sequence_id] = (
                index_matrix.tolist(),
                entry.materialise(sequence_id, context.level1),
            )
        _extend_sequence_scalar(
            context, hits, entry.pattern, sequence_id, *view, new_instances, stats
        )


def _extend_sequence_scalar(
    context: LevelContext,
    hits: _Hits,
    pattern: TemporalPattern,
    sequence_id: int,
    rows: list[list[int]],
    occurrences: list[Occurrence],
    new_instances: list[EventInstance],
    stats: MiningStatistics,
) -> None:
    """Scalar reference path: per-occurrence, per-candidate relation checks.

    ``occurrences[i]`` holds the instances index row ``rows[i]`` points at,
    and every surviving extension is recorded as that parent row plus the
    candidate's list position."""
    config = context.config
    for row, occurrence in zip(rows, occurrences):
        last_instance = occurrence[-1]
        first_instance = occurrence[0]
        for candidate_index, candidate_instance in enumerate(new_instances):
            if candidate_instance <= last_instance:
                continue
            if (
                config.tmax is not None
                and candidate_instance.end - first_instance.start > config.tmax
            ):
                continue
            extension = _relations_for_extension(
                context, occurrence, candidate_instance, stats
            )
            if extension is None:
                continue
            new_pattern = pattern.extend(candidate_instance.event_key, extension)
            hits.setdefault(new_pattern, []).append(
                (sequence_id, (*row, candidate_index))
            )


def _relations_for_extension(
    context: LevelContext,
    occurrence: Occurrence,
    new_instance: EventInstance,
    stats: MiningStatistics,
) -> tuple[Relation, ...] | None:
    """Relations between every existing instance and the new one, or None.

    When transitivity pruning is active each new relation is verified against
    the level-2 pattern set (Lemmas 4, 6, 7): a triple that is not a frequent,
    confident 2-event pattern can never appear inside a frequent, confident
    k-event pattern, so the extension is rejected early.
    """
    config = context.config
    relations = []
    for instance in occurrence:
        stats.bump(stats.relation_checks, context.level)
        relation = classify(instance, new_instance, config.epsilon, config.min_overlap)
        if relation is None:
            return None
        if config.pruning.uses_transitivity:
            triple = TemporalPattern(
                events=(instance.event_key, new_instance.event_key),
                relations=(relation,),
            )
            known = context.pair_patterns.get(
                _pair_key(instance.event_key, new_instance.event_key)
            )
            if not known or triple not in known:
                stats.bump(stats.pruned_relation_checks, context.level)
                return None
        relations.append(relation)
    return tuple(relations)
