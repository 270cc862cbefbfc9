"""Execution layer: pluggable backends that evaluate mining candidates.

HTPGM's level-wise search has an embarrassingly parallel core: once the
candidate event pairs (level 2) or event combinations (level ``k >= 3``) are
generated, each candidate is evaluated independently — bitmap intersection,
Apriori checks, instance-pair relation classification and the final
support/confidence filter touch no shared mutable state.  This module factors
that per-candidate evaluation out of :class:`~repro.core.htpgm.HTPGM` into pure
functions over a picklable :class:`LevelContext`, and puts an
:class:`ExecutionBackend` in front of them:

``SerialBackend``
    Evaluates candidates in-process, in order — byte-for-byte the behaviour of
    the original single-threaded miner.

``ProcessPoolBackend``
    Shards the candidate list across ``n_workers`` processes
    (:mod:`concurrent.futures`), evaluates each shard with the same pure
    functions, and merges the per-worker :class:`CombinationNode` lists and
    :class:`MiningStatistics` deterministically (node order = candidate
    order, wall-clock merged as max-of-shards).  Where ``fork`` exists a
    fresh pool is forked per batch and inherits the level context through
    copy-on-write memory; otherwise (or under an explicit non-fork
    ``start_method``) a persistent pool receives the context pickled with
    each shard.

Two throughput features live in the process backend:

*Cost-balanced sharding.*  The miner estimates every candidate's evaluation
cost during candidate generation (level 2: instance-pair counts over shared
sequences; level k: parent occurrence counts × new-event instance counts) and
passes the estimates to :meth:`ProcessPoolBackend.run`.  Candidates are then
assigned to shards by greedy LPT (longest processing time first, ties broken
by candidate index), each shard is re-sorted into ascending candidate order,
and the merge applies the inverse permutation — so the merged node order, and
therefore the mined pattern set and the golden fixtures, is byte-identical to
a serial run while skewed levels no longer wait on one overloaded shard.
Batches without cost estimates fall back to contiguous equal-count shards.

*Generic sharded map.*  :meth:`ExecutionBackend.map_shards` runs any pure
``func(payload, items)`` over item shards with the same two executors;
A-HTPGM's pairwise-NMI phase (the dominant pre-mining cost) uses it to shard
series pairs across the same worker pool that later mines the patterns.

Orthogonally to the backend choice, ``MiningConfig.vectorized`` (the
default) runs relation classification through the kernel of
:mod:`repro.core.relation_kernel` over the level's flat
:class:`~repro.core.hpg.InstanceTable` (``LevelContext.instances``), every
level alike: segmented passes over :data:`_EXTENSION_BATCH_ROWS` parent rows
of many candidates (:class:`_ExtensionBatch`) — at level 2 a parent row is
one event instance, at level ``k`` a stored occurrence.
``vectorized=False`` keeps the scalar reference loops.  Passes are chunked
by ``MiningConfig.kernel_chunk_bytes``.  Both paths — under every backend —
produce byte-identical nodes and counters, down to the CSR arrays of
:class:`~repro.core.hpg.PatternEntry`.  Workers return every entry's full
arrays, so a process-engine graph holds the same occurrence store as a
serial one.  Entries' instance-source bindings are not pickled — workers
bind the parents they read from ``LevelContext.level1`` and the coordinator
rebinds returned entries — so only three compact arrays per entry cross the
process boundary.

Every backend mines the *identical* pattern set; the parity tests in
``tests/test_engine_parity.py`` and the golden fixtures in ``tests/golden/``
enforce that invariant.  Backends are selected through
:attr:`MiningConfig.engine` / :attr:`MiningConfig.n_workers` (see
:func:`backend_from_config`) or injected directly into ``HTPGM``.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import os
import pickle
import time
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Any, NamedTuple, Protocol, TypeVar, runtime_checkable

import numpy as np

from ..exceptions import ConfigurationError, MemoryBudgetExceeded, MiningError
from ..timeseries.sequences import EventInstance
from . import faults, hpg, resources
from .bitmap import Bitmap
from .config import MiningConfig, RetryPolicy
from .events import EventKey
from .hpg import CombinationNode, EventNode, InstanceTable, Occurrence, PatternEntry
from .patterns import TemporalPattern
from .relation_kernel import classify_pairs, expand_windows
from .relations import RELATIONS_BY_CODE, Relation, classify
from .stats import MiningStatistics

__all__ = [
    "Candidate",
    "LevelContext",
    "LevelOutcome",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "backend_from_config",
    "available_workers",
    "evaluate_candidates",
]

#: One unit of level work: the event pair (level 2, generation order, possibly
#: a self-pair) or the canonical sorted event combination (level k >= 3).
Candidate = tuple[EventKey, ...]

_T = TypeVar("_T")
_R = TypeVar("_R")


def available_workers() -> int:
    """Number of CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


# --------------------------------------------------------------------------- context
@dataclass
class LevelContext:
    """Everything a worker needs to evaluate one level's candidates.

    The context is a read-only snapshot of the Hierarchical Pattern Graph
    restricted to what the level actually consults, so it stays small and
    picklable:

    * ``level1`` — the :class:`EventNode` of every event appearing in a
      candidate (bitmaps for the Apriori checks, instance lists for relation
      classification and extension);
    * ``parents`` — the frequent ``(k-1)``-combination nodes, keyed by their
      canonical event tuple (empty at level 2);
    * ``pair_patterns`` — the frequent 2-event pattern set per pair node, used
      by the transitivity checks of Lemmas 4–7 (empty when transitivity
      pruning is off or at level 2).  Shipping only the pattern *identities*
      instead of the full pair nodes keeps the per-worker payload light;
    * ``instances`` — the flat :class:`~repro.core.hpg.InstanceTable` of the
      ``level1`` events with the Lemma 4–7 tables (built at construction).

    ``memory_share_bytes`` arms the worker-side memory watchdog
    (:func:`repro.core.resources.shard_watchdog`): when set — the process
    backend stamps one worker's share of ``MiningConfig.memory_budget_bytes``
    here before shipping the context — a worker polls its resident-set growth
    between candidates and aborts the shard with
    :class:`~repro.exceptions.MemoryBudgetExceeded` once the share is spent,
    letting the coordinator split the shard instead of eating a SIGKILL.
    """

    level: int
    config: MiningConfig
    min_count: int
    level1: dict[EventKey, EventNode]
    parents: dict[tuple[EventKey, ...], CombinationNode] = field(default_factory=dict)
    pair_patterns: dict[tuple[EventKey, EventKey], frozenset[TemporalPattern]] = field(
        default_factory=dict
    )
    memory_share_bytes: int | None = None
    instances: InstanceTable | None = None

    def event_support(self, event: EventKey) -> int:
        """Support of a frequent event (0 when absent, mirroring the graph)."""
        node = self.level1.get(event)
        return node.support if node is not None else 0

    def __post_init__(self) -> None:
        if self.instances is None:
            n = max((node.bitmap.length for node in self.level1.values()), default=0)
            self.instances = InstanceTable(self.level1, n, self.pair_patterns)


@dataclass
class LevelOutcome:
    """What evaluating a batch of candidates produced.

    ``nodes`` holds only combination nodes that retained at least one
    frequent, confident pattern, in candidate order; ``stats`` holds the work
    counters bumped during evaluation plus the evaluation wall-clock in
    ``level_seconds`` (already max-merged across shards for parallel runs).
    """

    nodes: list[CombinationNode]
    stats: MiningStatistics


# --------------------------------------------------------------------------- evaluation
def apriori_prune(
    joint_support: int,
    max_event_support: int,
    min_count: int,
    config: MiningConfig,
) -> str | None:
    """Which Apriori check discards a candidate of any level: ``"support"``
    (Lemma 2), ``"confidence"`` (Lemma 3) or ``None`` when it survives.

    ``max_event_support`` is the largest support among the candidate's
    events.  Shared by candidate evaluation and the miner's level-2 cost
    estimator so the prune predicate cannot drift between the two — a drift
    would not change the mined set (costs never do) but would silently skew
    the cost-balanced shards.
    """
    if not config.pruning.uses_apriori:
        return None
    if joint_support < min_count:
        return "support"
    if joint_support / max_event_support < config.min_confidence:
        return "confidence"
    return None


def evaluate_candidates(
    context: LevelContext, candidates: Sequence[Candidate]
) -> LevelOutcome:
    """Evaluate candidates in order against a level context (pure function).

    This is the shared worker body of every backend: the serial backend calls
    it directly, the process-pool backend calls it once per shard in each
    worker process.  Given the same context and candidates it always produces
    the same nodes and counters, which is what makes backend parity testable.
    Vectorized candidates of every level go through an :class:`_ExtensionBatch`.
    """
    started = time.perf_counter()
    stats = MiningStatistics()
    nodes: list[CombinationNode] = []
    evaluate = _evaluate_pair if context.level == 2 else _evaluate_combination
    batch = None
    if context.config.vectorized:
        batch = _ExtensionBatch(context, stats, nodes)
        evaluate = batch.add
    # Armed only inside process-pool workers shipping a budgeted context;
    # serial runs and the in-process degradation fallback get None.
    watchdog = resources.shard_watchdog(context)
    for candidate in candidates:
        if watchdog is not None:
            watchdog.check()
        node = evaluate(context, candidate, stats)
        if node is not None:
            nodes.append(node)
    if batch is not None:
        batch.flush()
    stats.level_seconds[context.level] = time.perf_counter() - started
    return LevelOutcome(nodes=nodes, stats=stats)


def _evaluate_pair(
    context: LevelContext, candidate: Candidate, stats: MiningStatistics
) -> CombinationNode | None:
    """Alg. 1 lines 6–14 for one candidate event pair (scalar path)."""
    node = _open_combination(context, candidate, stats)
    if node is None:
        return None
    _grow_pair_patterns(context, node, candidate, stats)
    return _finalise_node(context, node, stats, level=2)


def _grow_pair_patterns(
    context: LevelContext,
    node: CombinationNode,
    candidate: Candidate,
    stats: MiningStatistics,
) -> None:
    """Scalar reference of level 2: classify every chronologically ordered
    instance pair in each shared sequence (:func:`_grow_sequence_pairs_scalar`)."""
    node_a, node_b = (context.level1[event] for event in candidate)
    same_event = node_a.event == node_b.event
    for sequence_id in node.bitmap.indices():
        instances_a = node_a.instances_by_sequence.get(sequence_id, [])
        instances_b = (
            instances_a
            if same_event
            else node_b.instances_by_sequence.get(sequence_id, [])
        )
        _grow_sequence_pairs_scalar(
            context.config,
            node,
            node_a,
            node_b,
            sequence_id,
            instances_a,
            instances_b,
            same_event,
            stats,
        )


def _grow_sequence_pairs_scalar(
    config: MiningConfig,
    node: CombinationNode,
    node_a: EventNode,
    node_b: EventNode,
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
    sources_a = node_a.instances_by_sequence
    sources_b = node_b.instances_by_sequence
    if same_event:
        sources = (sources_a, sources_a)
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
            node.add_pattern_occurrence(
                pattern, sequence_id, (index_first, index_second), sources
            )
        return
    forward = (sources_a, sources_b)
    backward = (sources_b, sources_a)
    for index_a, instance_a in enumerate(instances_a):
        for index_b, instance_b in enumerate(instances_b):
            if instance_a <= instance_b:
                first, second = instance_a, instance_b
                row, sources = (index_a, index_b), forward
            else:
                first, second = instance_b, instance_a
                row, sources = (index_b, index_a), backward
            if tmax is not None and second.end - first.start > tmax:
                continue
            stats.bump(stats.relation_checks, 2)
            relation = classify(first, second, epsilon, min_overlap)
            if relation is None:
                continue
            pattern = TemporalPattern(
                events=(first.event_key, second.event_key), relations=(relation,)
            )
            node.add_pattern_occurrence(pattern, sequence_id, row, sources)


def _open_combination(
    context: LevelContext, candidate: Candidate, stats: MiningStatistics
) -> CombinationNode | None:
    """The Apriori checks (Lemmas 2–3) of one candidate of any level; the
    (still empty) node of a survivor, its events sorted."""
    level = context.level
    stats.bump(stats.candidates_generated, level)
    bitmap = Bitmap.intersect_all(
        context.level1[event].bitmap for event in candidate
    )
    support = bitmap.count()
    prune = apriori_prune(
        support,
        max(context.event_support(event) for event in candidate),
        context.min_count,
        context.config,
    )
    if prune is not None:
        pruned = stats.pruned_support if prune == "support" else stats.pruned_confidence
        stats.bump(pruned, level)
        return None
    if support == 0:
        return None
    return CombinationNode(events=tuple(sorted(candidate)), bitmap=bitmap)


def _evaluate_combination(
    context: LevelContext, candidate: Candidate, stats: MiningStatistics
) -> CombinationNode | None:
    """Alg. 1 lines 16–20 for one candidate k-event combination (scalar path)."""
    node = _open_combination(context, candidate, stats)
    if node is None:
        return None
    _grow_combination_patterns(context, node, stats)
    return _finalise_node(context, node, stats, context.level)


def _grow_combination_patterns(
    context: LevelContext, node: CombinationNode, stats: MiningStatistics
) -> None:
    """Extend every (k-1)-pattern of every parent node with the remaining event.

    Every k-event pattern has a unique chronologically last event, so the
    decomposition (parent = pattern without its last event, new event = the
    last event) generates each pattern exactly once.
    """
    config = context.config
    for new_event in node.events:
        parent_key = tuple(e for e in node.events if e != new_event)
        parent = context.parents.get(parent_key)
        if parent is None:
            continue
        new_event_node = context.level1[new_event]
        for entry in parent.patterns.values():
            if config.pruning.uses_transitivity and not _may_extend(
                context, entry.pattern, new_event, stats
            ):
                continue
            _extend_entry(context, node, entry, new_event_node, stats)


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
    node: CombinationNode,
    entry: PatternEntry,
    new_event_node: EventNode,
    stats: MiningStatistics,
) -> None:
    """Extend the stored occurrences of one (k-1)-pattern with the new event.

    The scalar reference of level ``k`` (``vectorized=False``): one
    :func:`_extend_sequence_scalar` call per supporting sequence.
    """
    entry.bind_sources(context.level1)
    extended_sources = entry.sources + (new_event_node.instances_by_sequence,)
    for sequence_id, index_matrix in entry.iter_index_matrices():
        new_instances = new_event_node.instances_by_sequence.get(sequence_id)
        if not new_instances:
            continue
        _extend_sequence_scalar(
            context,
            node,
            entry,
            sequence_id,
            index_matrix,
            new_instances,
            extended_sources,
            stats,
        )


def _extend_sequence_scalar(
    context: LevelContext,
    node: CombinationNode,
    entry: PatternEntry,
    sequence_id: int,
    index_matrix: np.ndarray,
    new_instances: list[EventInstance],
    extended_sources: tuple,
    stats: MiningStatistics,
) -> None:
    """Scalar reference path: per-occurrence, per-candidate relation checks.

    Occurrence instance tuples are materialised from the entry's index rows
    (one list-index per pattern event) and every surviving extension is
    recorded back as the parent row plus the candidate's list position."""
    config = context.config
    pattern = entry.pattern
    for row, occurrence in zip(
        entry.index_rows(sequence_id), entry.materialise(sequence_id)
    ):
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
            node.add_pattern_occurrence(
                new_pattern,
                sequence_id,
                (*row, candidate_index),
                extended_sources,
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


#: Parent rows (level-2 instances, level-``k`` occurrences) the vectorized
#: evaluation queues, whole candidates at a time, before it evaluates them in
#: one NumPy pass (:class:`_ExtensionBatch`).  A few thousand rows amortize a
#: pass's fixed cost; larger batches only grow its temporary arrays.  Results
#: never depend on it.  Read at call time, so tests monkeypatch it.
_EXTENSION_BATCH_ROWS = 4096


def _bytes_per_pair(level: int) -> int:
    """Transient bytes of one level-``level`` pair of the vectorized pass (a
    parent row and a new instance, classified at ``level - 1`` positions),
    fitted to ``tracemalloc`` peaks of whole passes over dense sequences
    (about 175, 200, 245 and 300 bytes at levels 2 to 5).  Sizes both the
    pass's ``kernel_chunk_bytes`` chunks and the governor's bytes per unit of
    candidate cost."""
    return 104 + 52 * (level - 1)


def _anchor_chunks(lo: np.ndarray, hi: np.ndarray, max_pairs: int | None):
    """Contiguous anchor ranges whose expanded pair counts fit the mask budget.

    Yields ``(start, stop)`` anchor index ranges covering ``[0, len(lo))`` in
    order; each range expands to at most ``max_pairs`` pairs (a single anchor
    whose window alone exceeds the budget forms its own over-budget range, so
    progress is always made).  ``None`` disables chunking.  Chunking at
    anchor granularity preserves the anchor-major enumeration order, so the
    per-chunk results concatenate to the unchunked ones.
    """
    n_anchors = len(lo)
    if n_anchors == 0:
        return
    if max_pairs is None:
        yield 0, n_anchors
        return
    cumulative = np.cumsum(np.maximum(hi - lo, 0))
    if int(cumulative[-1]) <= max_pairs:
        yield 0, n_anchors
        return
    start = 0
    consumed = 0
    while start < n_anchors:
        stop = int(np.searchsorted(cumulative, consumed + max_pairs, side="right"))
        if stop <= start:
            stop = start + 1
        yield start, stop
        consumed = int(cumulative[stop - 1])
        start = stop


def _group_keys(groups: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``groups + values * 1j``, built without arithmetic.  NumPy orders
    complex numbers lexicographically, so one ``searchsorted`` over such keys
    searches inside each query's own (event, sequence) group."""
    keys = np.empty(len(groups), dtype=np.complex128)
    keys.real, keys.imag = groups, values
    return keys


class _ParentRows(NamedTuple):
    """A parent node's stored rows, stacked once per shard.

    ``index_rows`` holds the entries' row blocks, entry by entry, and
    ``runs`` one ``(entry position, sequence, row count)`` row per
    (entry, sequence) run, read off each entry's ``sequences`` and
    ``offsets``, so per-row sequence and entry columns exist only inside a
    pass.  At level 2 the parent is one event: a single entry whose
    one-column rows are the event's instance list positions.
    """

    #: The parent's entries with stored rows.
    entries: list[PatternEntry]
    #: ``(len(entries), k - 1)`` table rows of each entry's pattern events.
    events: np.ndarray
    index_rows: np.ndarray
    runs: np.ndarray


class _Extension(NamedTuple):
    """One queued (candidate node, new event, parent node) decomposition.

    ``flipped`` marks the level-2 orientation whose parent is the
    candidate's second event."""

    node: CombinationNode
    new_event: EventKey
    parent: _ParentRows
    flipped: bool = False


class _ExtensionBatch:
    """Vectorized growth (Alg. 1 lines 6–20) across candidates of one level.

    :meth:`add` runs a candidate's Apriori checks and queues an
    :class:`_Extension` per (new event, parent node) decomposition — at
    level 2, one per orientation of the pair, whose parent is one event's
    instances.  Once :data:`_EXTENSION_BATCH_ROWS` rows are queued — checked
    between candidates, so no candidate spans two passes — :meth:`flush`
    evaluates them in one pass and finalises the queued nodes in candidate
    order.  The pass is :func:`_grow_pair_patterns` and
    :func:`_grow_combination_patterns` batched: the same pairs and gates,
    Lemmas 4–7 as table lookups (level ``k`` only), the scalar loop's
    early-exit counters rebuilt from each pair's first failing position,
    and one stored row block per pattern, patterns in first-hit order and
    each block's sequences ascending — skipping patterns whose (complete)
    support :func:`admit_patterns` would reject.  A candidate that queues
    no decomposition can only finalise empty, so it is not kept pending.
    """

    def __init__(
        self, context: LevelContext, stats: MiningStatistics, nodes: list
    ) -> None:
        self.context, self.stats, self.nodes = context, stats, nodes
        self.table = table = context.instances
        self.transitivity = (
            context.level >= 3 and context.config.pruning.uses_transitivity
        )
        self.supports = {e: node.support for e, node in context.level1.items()}
        # Lemma 5 is tested per (candidate, new event): Python lookups win.
        self.partners = table.has_pair.tolist()
        self.group_starts = _group_keys(
            np.repeat(np.arange(table.count.size), table.count.ravel()), table.starts
        )
        self.parents: dict[tuple[EventKey, ...], tuple | None] = {}
        self.event_rows: dict[EventKey, _ParentRows] = {}
        self.queue: list[_Extension] = []
        self.pending: list[CombinationNode] = []
        self.rows = 0

    def _parent(self, key: tuple[EventKey, ...]) -> tuple | None:
        """``(parent, its events' table rows, its stacked rows)`` of a parent
        node, built once (rows ``None`` when no entry has any); ``None`` if
        the parent is absent."""
        if key not in self.parents:
            parent = self.context.parents.get(key)
            if parent is None:
                self.parents[key] = None
                return None
            index = self.table.index
            entries = [
                entry for entry in parent.patterns.values() if len(entry.sequences)
            ]
            rows = None
            if entries:
                for entry in entries:
                    entry.bind_sources(self.context.level1)
                sequences = [entry.sequences for entry in entries]
                runs = np.column_stack(
                    (
                        np.repeat(np.arange(len(entries)), list(map(len, sequences))),
                        np.concatenate(sequences),
                        np.concatenate([np.diff(entry.offsets) for entry in entries]),
                    )
                )
                events = [[index[e] for e in entry.pattern.events] for entry in entries]
                index_rows = np.concatenate([entry.rows for entry in entries])
                rows = _ParentRows(entries, np.array(events), index_rows, runs)
            self.parents[key] = (parent, [index[e] for e in key], rows)
        return self.parents[key]

    def _event_rows(self, event: EventKey) -> _ParentRows:
        """A level-2 parent, built once: ``event``'s instances as one-column
        rows of list positions, one run per sequence, under a one-event
        pattern."""
        if event not in self.event_rows:
            table = self.table
            row = table.index[event]
            sequences = np.flatnonzero(table.count[row])
            counts = table.count[row, sequences]
            positions = np.arange(counts.sum()) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            entry = PatternEntry(
                TemporalPattern(events=(event,), relations=()),
                (self.context.level1[event].instances_by_sequence,),
            )
            runs = np.column_stack((np.zeros_like(sequences), sequences, counts))
            self.event_rows[event] = _ParentRows(
                [entry], np.array([[row]]), positions.astype(np.int32)[:, None], runs
            )
        return self.event_rows[event]

    def _queue(self, extension: _Extension) -> None:
        self.queue.append(extension)
        self.rows += len(extension.parent.index_rows)

    def add(
        self, context: LevelContext, candidate: Candidate, stats: MiningStatistics
    ) -> None:
        """Queue one candidate; run a pass once enough rows are queued."""
        node = _open_combination(context, candidate, stats)
        if node is None:
            return
        queued = len(self.queue)
        if context.level == 2:
            # Each orientation finds the pairs whose chronologically first
            # instance is its parent event's; a self pair has one.
            first, second = candidate
            self._queue(_Extension(node, second, self._event_rows(first)))
            if second != first:
                rows = self._event_rows(second)
                self._queue(_Extension(node, first, rows, flipped=True))
        else:
            for new_event in node.events:
                stack = self._parent(tuple(e for e in node.events if e != new_event))
                if stack is None:
                    continue
                parent, parent_rows, rows = stack
                partners = self.partners[self.table.index[new_event]]
                if self.transitivity and not all(partners[row] for row in parent_rows):
                    # Lemma 5 fails for every entry alike; the scalar loop
                    # counts each.
                    level, n_entries = context.level, len(parent.patterns)
                    stats.bump(stats.pruned_relation_checks, level, n_entries)
                elif rows is not None:
                    self._queue(_Extension(node, new_event, rows))
        if len(self.queue) > queued:
            self.pending.append(node)
        if self.rows >= _EXTENSION_BATCH_ROWS:
            self.flush()

    def flush(self) -> None:
        """Evaluate the queue, then finalise the queued nodes in order."""
        if self.queue:
            self._evaluate()
        for node in self.pending:
            node = _finalise_node(self.context, node, self.stats, self.context.level)
            if node is not None:
                self.nodes.append(node)
        self.queue, self.pending, self.rows = [], [], 0

    def _evaluate(self) -> None:
        config, table, stats = self.context.config, self.table, self.stats
        level, parents = self.context.level, [item.parent for item in self.queue]
        # A job is one (decomposition, entry) pair, numbered across the
        # queue; jobs never span passes.
        owners = [(item, entry) for item in self.queue for entry in item.parent.entries]
        first_jobs = np.cumsum([0] + [len(parent.entries) for parent in parents])[:-1]
        runs = np.concatenate([parent.runs for parent in parents])
        runs[:, 0] += np.repeat(first_jobs, [len(parent.runs) for parent in parents])
        jobs, sequences = np.repeat(runs[:, :2], runs[:, 2], axis=0).T
        index_rows = np.concatenate([parent.index_rows for parent in parents])
        event_rows = np.concatenate([parent.events for parent in parents])[jobs]
        new_rows = np.array([table.index[item.new_event] for item, _ in owners])[jobs]
        # The new event's instances of each row's sequence: flat positions
        # first .. stop, list position = flat position - first.
        first = table.offset[new_rows, sequences]
        stop = first + table.count[new_rows, sequences]
        positions = table.offset[event_rows, sequences[:, None]] + index_rows
        row_starts, row_ends = table.starts[positions], table.ends[positions]
        # Rows are in event-key order, so this is the successor key tie-break.
        after_last = new_rows > event_rows[:, -1]
        # Windows holding every pair the masks below accept: successors start
        # no earlier than the last instance, and none starts after ``bound``.
        # The exact tmax mask passes an end only if ``end - first start``
        # rounds to at most tmax, so the end is below ``first start + tmax +
        # spacing(tmax) / 2``; the computed sum is off by at most
        # ``spacing(|bound|)``, and the slack covers both errors.
        groups = new_rows * table.count.shape[1] + sequences
        lo = np.searchsorted(self.group_starts, _group_keys(groups, row_starts[:, -1]))
        tmax, hi = config.tmax, stop
        if tmax is not None and math.isfinite(tmax):
            bound = row_starts[:, 0] + tmax
            bound += 4 * (np.spacing(np.abs(bound)) + np.spacing(tmax))
            keys = _group_keys(groups, bound)
            hi = np.minimum(np.searchsorted(self.group_starts, keys, "right"), stop)
        budget = config.kernel_chunk_bytes
        max_pairs = budget and max(1, budget // _bytes_per_pair(level))
        hits = []
        for row_start, row_stop in _anchor_chunks(lo, hi, max_pairs):
            window = slice(row_start, row_stop)
            rows, candidates = expand_windows(lo[window], hi[window])
            rows += row_start
            starts, ends = table.starts[candidates], table.ends[candidates]
            last_starts, last_ends = row_starts[rows, -1], row_ends[rows, -1]
            # Strict successor of the last instance in the instance total
            # order: start, end, then the (distinct) event keys.
            feasible = (starts > last_starts) | (
                (starts == last_starts)
                & ((ends > last_ends) | ((ends == last_ends) & after_last[rows]))
            )
            if tmax is not None:
                feasible &= ends - row_starts[rows, 0] <= tmax
            rows, candidates = rows[feasible], candidates[feasible]
            if not rows.size:
                continue
            codes = classify_pairs(
                row_starts[rows],
                row_ends[rows],
                starts[feasible, None],
                ends[feasible, None],
                config.epsilon,
                config.min_overlap,
            )
            failed = codes < 0
            if self.transitivity:
                allowed = table.allowed[event_rows[rows], new_rows[rows, None], codes]
                pruned = ~failed & ~allowed
                failed |= pruned
            any_failed = failed.any(axis=1)
            first_failed = failed.argmax(axis=1)
            # A failing pair costs first_failed + 1 scalar classifications.
            checks = np.where(any_failed, first_failed + 1, level - 1).sum()
            stats.bump(stats.relation_checks, level, int(checks))
            if self.transitivity:
                failing = np.flatnonzero(any_failed)
                pruned_checks = pruned[failing, first_failed[failing]].sum()
                stats.bump(stats.pruned_relation_checks, level, int(pruned_checks))
            kept = ~any_failed
            hits.append((rows[kept], candidates[kept], codes[kept]))
        if hits:
            rows, candidates, codes = map(np.concatenate, zip(*hits))
            block = np.column_stack((index_rows[rows], candidates - first[rows]))
            if level == 2 and len(block):
                # The scalar loop's hit order: sequence, then the candidate's
                # first event's instance, then its second's.
                flipped = np.array([item.flipped for item, _ in owners])[jobs[rows]]
                order = np.lexsort(
                    (
                        np.where(flipped, block[:, 0], block[:, 1]),
                        np.where(flipped, block[:, 1], block[:, 0]),
                        sequences[rows],
                    )
                )
                rows, block, codes = rows[order], block[order], codes[order]
            if len(block):
                self._store(jobs[rows], owners, block, sequences[rows], codes)

    def _store(self, jobs, owners, block, sequences, codes) -> None:
        """Store surviving pairs (in enumeration order) by extended pattern;
        ``owners[job]`` is a job's (queued decomposition, parent entry)."""
        # One key per (job, relation codes): fold the code columns in one at
        # a time, as ranks, so the key never overflows.
        keys = jobs
        for column in codes.T:
            _, keys = np.unique(keys * len(RELATIONS_BY_CODE) + column, return_inverse=True)
        _, first_hit, group = np.unique(keys, return_index=True, return_inverse=True)
        # Groups in first-hit order, each group's pairs in enumeration order.
        order = np.argsort(first_hit[group.reshape(-1)], kind="stable")
        group, sequences = group.reshape(-1)[order], sequences[order]
        block = hpg._checked_rows(block[order])
        # A group's pairs of one sequence are contiguous (its job's rows are
        # stacked sequence by sequence, ascending): each run is one sequence's
        # run of the group's stored block.
        runs = np.flatnonzero(
            np.r_[True, (group[1:] != group[:-1]) | (sequences[1:] != sequences[:-1])]
        )
        support = np.bincount(group[runs], minlength=len(first_hit))
        queued = [owners[job] for job in jobs[first_hit].tolist()]
        supports = [max(map(self.supports.get, item.node.events)) for item, _ in queued]
        # admit_patterns as one mask: groups it would drop build no entry.
        frequent = (support >= self.context.min_count) & ~(
            support / np.array(supports) < self.context.config.min_confidence
        )
        bounds = np.r_[runs, len(block)]
        run_sequences = sequences[runs].astype(hpg._INDEX_DTYPE)
        # A group's runs are adjacent: split the runs where the group changes.
        run_groups = group[runs]
        splits = np.flatnonzero(np.r_[True, run_groups[1:] != run_groups[:-1]]).tolist()
        for a, b in zip(splits, splits[1:] + [len(runs)]):
            g = run_groups[a]
            if not frequent[g]:
                continue
            item, entry = queued[g]
            codes_row = codes[first_hit[g]].tolist()
            relations = tuple(RELATIONS_BY_CODE[code] for code in codes_row)
            pattern = entry.pattern.extend(item.new_event, relations)
            new_sources = self.context.level1[item.new_event].instances_by_sequence
            # One copy of each array, so no entry pins the pass's arrays.
            offsets = bounds[a : b + 1] - bounds[a]
            item.node.patterns[pattern] = PatternEntry.from_arrays(
                pattern,
                entry.sources + (new_sources,),
                run_sequences[a:b].copy(),
                offsets,
                block[bounds[a] : bounds[b]].copy(),
            )


def admit_patterns(
    patterns: Mapping[TemporalPattern, PatternEntry],
    event_support: Callable[[EventKey], int],
    min_count: int,
    config: MiningConfig,
) -> dict[TemporalPattern, PatternEntry]:
    """The patterns Alg. 1 keeps, in their order: support at least
    ``min_count`` and confidence — support over the largest
    ``event_support`` of the pattern's events — at least
    ``config.min_confidence``.

    The one admission rule: :func:`_finalise_node` applies it to evaluated
    nodes, :meth:`~repro.core.session.MiningSession._readmit` to the stored
    nodes an append leaves untouched.
    """
    admitted = {}
    for pattern, entry in patterns.items():
        support = entry.support
        if support < min_count:
            continue
        max_event_support = max(event_support(event) for event in pattern.events)
        if max_event_support and support / max_event_support >= config.min_confidence:
            admitted[pattern] = entry
    return admitted


def _finalise_node(
    context: LevelContext,
    node: CombinationNode,
    stats: MiningStatistics,
    level: int,
) -> CombinationNode | None:
    """Keep only the patterns :func:`admit_patterns` admits; return the node
    when non-empty."""
    node.patterns = admit_patterns(
        node.patterns, context.event_support, context.min_count, context.config
    )
    if node.has_patterns():
        stats.bump(stats.patterns_found, level, len(node.patterns))
        return node
    return None


# --------------------------------------------------------------------------- backends
@runtime_checkable
class ExecutionBackend(Protocol):
    """Strategy evaluating one level's candidates against a context.

    Implementations must be *semantically transparent*: for the same
    ``(context, candidates)`` input they must produce the same nodes (in
    candidate order) and the same counter totals as
    :func:`evaluate_candidates` run serially.  ``level_seconds`` is the one
    allowed difference — parallel backends report the max over shards, which
    the miner then combines with its own merge overhead.

    Backends that balance shards by candidate cost expose ``wants_costs =
    True``; the miner checks it via ``getattr(backend, "wants_costs",
    False)`` and skips cost estimation entirely for backends that would
    discard the estimates (the serial backend).
    """

    name: str

    def run(
        self,
        context: LevelContext,
        candidates: Sequence[Candidate],
        costs: Sequence[float] | None = None,
    ) -> LevelOutcome:
        """Evaluate all candidates and return the merged outcome.

        ``costs`` are optional per-candidate cost estimates (aligned with
        ``candidates``) that parallel backends may use to balance their
        shards; they must never change the outcome.
        """
        ...

    def map_shards(
        self,
        func: Callable[[Any, list[_T]], _R],
        payload: Any,
        items: Sequence[_T],
        costs: Sequence[float] | None = None,
    ) -> list[_R]:
        """Run a pure ``func(payload, shard_items)`` over shards of ``items``.

        Returns one result per shard, in deterministic shard order.  Used by
        work that is embarrassingly parallel but not candidate evaluation —
        e.g. A-HTPGM's pairwise NMI over series pairs.  ``func`` must be a
        module-level function (picklable by reference) and must not mutate
        ``payload``.
        """
        ...

    def close(self) -> None:
        """Release any resources (worker processes); idempotent."""
        ...


class SerialBackend:
    """In-process, in-order evaluation — the original single-threaded miner."""

    name = "serial"
    #: Serial evaluation never shards, so cost estimates would be wasted work.
    wants_costs = False

    def run(
        self,
        context: LevelContext,
        candidates: Sequence[Candidate],
        costs: Sequence[float] | None = None,
    ) -> LevelOutcome:
        return evaluate_candidates(context, candidates)

    def map_shards(
        self,
        func: Callable[[Any, list[_T]], _R],
        payload: Any,
        items: Sequence[_T],
        costs: Sequence[float] | None = None,
    ) -> list[_R]:
        return [func(payload, list(items))]

    def close(self) -> None:  # nothing to release
        pass

    def __enter__(self) -> "SerialBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "SerialBackend()"


#: ``(func, payload)`` inherited by forked workers through copy-on-write
#: memory.  Set by :meth:`ProcessPoolBackend._run_shards` immediately before
#: the per-batch pool forks, so the (potentially large) payload — the level
#: context or the symbolic database — never crosses a pipe.
_FORK_PAYLOAD: tuple[Callable[[Any, list], Any], Any] | None = None


def _call_forked(
    items: list, directive: tuple[str, float] | None = None
) -> Any:
    """Worker entry point when func and payload were inherited at fork time."""
    assert _FORK_PAYLOAD is not None, "fork worker started without a payload"
    func, payload = _FORK_PAYLOAD
    with resources.worker_scope():
        faults.apply_worker_fault(directive)
        return func(payload, items)


def _call_plain(
    func: Callable[[Any, list], Any],
    payload: Any,
    items: list,
    directive: tuple[str, float] | None = None,
) -> Any:
    """Persistent-pool worker entry point: func and payload arrive pickled."""
    with resources.worker_scope():
        faults.apply_worker_fault(directive)
        return func(payload, items)


def _fork_available() -> bool:
    """Whether copy-on-write worker processes are supported (Linux/macOS)."""
    return "fork" in multiprocessing.get_all_start_methods()


class _PoolUnavailable(Exception):
    """Internal: a worker pool could not be obtained (resource exhaustion).

    Raised by the executor helpers and caught by :meth:`_run_shards`, which
    degrades the backend to in-process evaluation instead of failing the
    mining run.  Never escapes the backend.
    """


@dataclass
class _ShardPiece:
    """One schedulable slice of an original shard.

    Every shard starts as a single piece covering all its items; a piece
    that fails with memory pressure is replaced by two half-sized pieces
    (recursively, down to one item).  ``shard`` keeps the original shard
    index — the merge key and the fault-plan coordinate, so a plan armed at
    ``shard=N`` keeps firing on N's descendants — and ``offset`` orders a
    shard's pieces so their results concatenate back into exact shard-item
    order.  ``attempts`` counts only *transport* failures against
    :attr:`RetryPolicy.max_retries`; memory recoveries are a different
    currency (they change the work, not just re-run it) and are bounded by
    the item count instead.
    """

    shard: int
    offset: int
    items: list
    attempts: int = 0


#: Halving ``kernel_chunk_bytes`` below this is pointless: the per-chunk
#: bookkeeping starts to rival the chunk itself, and a working set this
#: small was never the problem.
_CHUNK_SHRINK_FLOOR = 1 << 20


class ProcessPoolBackend:
    """Shards candidate evaluation across ``n_workers`` processes.

    With per-candidate cost estimates (supplied by the miner) the candidates
    are partitioned by greedy LPT into near-equal-*cost* shards; without them
    into contiguous near-equal-*count* shards.  Either way each shard keeps
    ascending candidate order and the merge restores the global candidate
    order via the inverse permutation, so the node order is byte-identical
    to a serial run; statistics merge via
    :meth:`MiningStatistics.merge_shard` (counters add, wall-clock maxes).

    Two transports are used for the worker payload (the level context or, for
    :meth:`map_shards`, an arbitrary picklable object), which is by far the
    largest transfer:

    * On fork-capable platforms a fresh pool is forked per batch and the
      workers inherit the payload through copy-on-write memory — only the
      item shards are pickled in, and only the results are pickled out.
    * Otherwise (Windows, or an explicit non-fork ``start_method``) a
      persistent pool is kept and the payload is pickled once per shard.

    ``start_method`` pins the :mod:`multiprocessing` start method (e.g.
    ``"spawn"`` to exercise the spawn transport on a fork-capable platform);
    ``None`` keeps the historical choice — fork when available, the
    platform default otherwise.

    Batches smaller than ``min_candidates_per_worker * 2`` are evaluated
    in-process: for tiny levels the scheduling overhead dwarfs the work being
    distributed.

    ``memory_budget`` (bytes, or a ``"512M"``-style string) puts the whole
    worker fleet under a :class:`~repro.core.resources.ResourceGovernor`:
    the up-front split is refined so no shard's estimated transient
    footprint exceeds one worker's share, shipped contexts carry the share
    so workers arm a resident-set watchdog, and shards that still outgrow
    their share (watchdog abort or a raw ``MemoryError``) are recovered by
    :meth:`_recover_memory`'s split-and-degrade chain instead of a verbatim
    resubmit.  The budget never changes the mined output — only how the
    work is cut and retried.
    """

    name = "process"
    #: The miner's cost estimates drive the LPT split.
    wants_costs = True

    def __init__(
        self,
        n_workers: int | None = None,
        min_candidates_per_worker: int = 4,
        start_method: str | None = None,
        retry: RetryPolicy | None = None,
        fault_plan: "faults.FaultPlan | None" = None,
        memory_budget: int | None = None,
    ) -> None:
        if n_workers is not None and n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1 or None, got {n_workers}"
            )
        if min_candidates_per_worker < 1:
            raise ConfigurationError(
                "min_candidates_per_worker must be >= 1, "
                f"got {min_candidates_per_worker}"
            )
        if (
            start_method is not None
            and start_method not in multiprocessing.get_all_start_methods()
        ):
            raise ConfigurationError(
                f"start_method must be one of "
                f"{multiprocessing.get_all_start_methods()} or None, "
                f"got {start_method!r}"
            )
        self.n_workers = n_workers if n_workers is not None else available_workers()
        self.min_candidates_per_worker = min_candidates_per_worker
        self.start_method = start_method
        #: How crashed/hung/failed shards are resubmitted (see
        #: :class:`~repro.core.config.RetryPolicy`).
        self.retry = retry if retry is not None else RetryPolicy()
        #: Degradation warnings recorded by this backend; the miner copies
        #: them into :class:`MiningStatistics` after every batch.
        self.warnings: list[str] = []
        #: Captured once so ``times=N`` fault budgets survive across rounds.
        self._fault_plan = (
            fault_plan if fault_plan is not None else faults.active_plan()
        )
        self._serial_degraded = False
        self._level_retries: dict[int, int] = {}
        #: Coordinator side of the memory budget (``None`` = ungoverned);
        #: sizes the up-front split and the per-worker watchdog share.
        self.governor = (
            resources.ResourceGovernor(memory_budget, self.n_workers)
            if memory_budget is not None
            else None
        )
        self._level_splits: dict[int, int] = {}
        self._executor: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------ lifecycle
    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            mp_context = (
                multiprocessing.get_context(self.start_method)
                if self.start_method is not None
                else None
            )
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers, mp_context=mp_context
            )
        return self._executor

    def close(self) -> None:
        """Shut any persistent worker pool down (recreated on the next run).

        Idempotent, and safe to call on a broken pool (after a worker
        crash); runs automatically on every exit path — context-manager
        ``__exit__``, the owning session/pipeline ``finally`` blocks, and
        mid-batch failures in :meth:`_run_shards`.
        """
        if self._executor is not None:
            executor, self._executor = self._executor, None
            executor.shutdown(wait=True)

    def __enter__(self) -> "ProcessPoolBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ execution
    def run(
        self,
        context: LevelContext,
        candidates: Sequence[Candidate],
        costs: Sequence[float] | None = None,
    ) -> LevelOutcome:
        candidates = list(candidates)
        if costs is not None and len(costs) != len(candidates):
            raise ConfigurationError(
                f"got {len(costs)} cost estimates for {len(candidates)} candidates"
            )
        level = context.level
        retries_before = self._level_retries.get(level, 0)
        splits_before = self._level_splits.get(level, 0)
        n_shards = self._shard_count(len(candidates))
        if self.governor is not None and candidates:
            # The budget may demand a finer split than the CPU count does:
            # cap every shard's estimated transient footprint at one worker's
            # share of the budget (minus the shared context each worker maps).
            n_shards = self.governor.plan_shards(
                n_shards,
                costs if costs is not None else [1.0] * len(candidates),
                bytes_per_cost=self._bytes_per_cost(level),
                max_shards=len(candidates),
                context_bytes=resources.estimate_context_bytes(context),
            )
            if context.memory_share_bytes is None:
                context.memory_share_bytes = self.governor.worker_share
        if n_shards <= 1:
            return self._stamp_stats(
                evaluate_candidates(context, candidates),
                level,
                retries_before,
                splits_before,
            )
        shard_indices = self._shard_indices(n_shards, costs, len(candidates))
        shards = [[candidates[i] for i in indices] for indices in shard_indices]
        outcomes = self._run_shards(
            evaluate_candidates,
            context,
            shards,
            level=level,
            combine=_combine_level_outcomes,
        )
        outcome = _merge_indexed_outcomes(shard_indices, shards, outcomes)
        return self._stamp_stats(outcome, level, retries_before, splits_before)

    def _bytes_per_cost(self, level: int) -> float:
        """Transient kernel bytes one unit of candidate cost expands into.

        Costs are instance-pair counts (level 2) or occurrence×instance
        pair counts (level ``k``), priced by the same :func:`_bytes_per_pair`
        the vectorized pass chunks with.
        """
        return float(_bytes_per_pair(level))

    def _stamp_stats(
        self,
        outcome: LevelOutcome,
        level: int,
        retries_before: int,
        splits_before: int,
    ) -> LevelOutcome:
        """Record this batch's retries, splits and any degradation warnings."""
        delta = self._level_retries.get(level, 0) - retries_before
        if delta:
            outcome.stats.shard_retries[level] = (
                outcome.stats.shard_retries.get(level, 0) + delta
            )
        splits = self._level_splits.get(level, 0) - splits_before
        if splits:
            outcome.stats.shard_splits[level] = (
                outcome.stats.shard_splits.get(level, 0) + splits
            )
        for message in self.warnings:
            outcome.stats.record_warning(message)
        return outcome

    def map_shards(
        self,
        func: Callable[[Any, list[_T]], _R],
        payload: Any,
        items: Sequence[_T],
        costs: Sequence[float] | None = None,
    ) -> list[_R]:
        items = list(items)
        if costs is not None and len(costs) != len(items):
            raise ConfigurationError(
                f"got {len(costs)} cost estimates for {len(items)} items"
            )
        n_shards = self._shard_count(len(items))
        if n_shards <= 1:
            return [func(payload, items)]
        shard_indices = self._shard_indices(n_shards, costs, len(items))
        shards = [[items[i] for i in indices] for indices in shard_indices]
        return self._run_shards(func, payload, shards, level=0)

    def _shard_count(self, n_items: int) -> int:
        return min(self.n_workers, max(1, n_items // self.min_candidates_per_worker))

    def would_shard(self, n_items: int) -> bool:
        """Whether a batch of ``n_items`` would actually be split across workers.

        The miner consults this (together with ``wants_costs``) before paying
        for cost estimation: sub-threshold batches are evaluated in-process,
        where the estimates would be discarded.
        """
        return self._shard_count(n_items) > 1

    def _shard_indices(
        self, n_shards: int, costs: Sequence[float] | None, n_items: int
    ) -> list[list[int]]:
        if costs is not None:
            return _split_lpt_indices(costs, n_shards)
        return _split_contiguous_indices(n_items, n_shards)

    def _run_shards(
        self,
        func: Callable[[Any, list], _R],
        payload: Any,
        shards: list[list],
        level: int = 0,
        combine: Callable[[list], Any] | None = None,
    ) -> list[_R]:
        """Execute one shard batch with retries.

        Shards are pure functions of ``(payload, shard_items)``, so the loop
        below may resubmit any failed shard without affecting the others:
        each retry *round* re-runs only the still-unfinished work, with a
        rebuilt pool where necessary, until every
        shard has a result or one shard has exhausted
        :attr:`RetryPolicy.max_retries` (whose last error then propagates).
        A pool that cannot be obtained at all degrades the whole backend to
        in-process evaluation instead — the results are identical, only the
        parallelism is lost.

        Memory pressure is a separate recovery class.  Work is scheduled as
        :class:`_ShardPiece`\\ s; a piece failing with ``MemoryError`` or
        :class:`MemoryBudgetExceeded` is not resubmitted verbatim (a
        verbatim resubmit of an over-budget shard is guaranteed to die
        again) but *split in half* via :meth:`_recover_memory`, recursively
        down to one item, then pushed down a degradation chain.  Splitting
        requires a ``combine`` to reassemble a shard's piece results in
        offset order — :meth:`run` passes the level-outcome combiner;
        without one (``map_shards``) memory failures fall back to the plain
        bounded retry path.
        """
        if self._serial_degraded:
            return [func(payload, list(shard)) for shard in shards]
        policy = self.retry
        parts: list[dict[int, Any]] = [{} for _ in shards]
        pending = [
            _ShardPiece(shard=index, offset=0, items=list(shard))
            for index, shard in enumerate(shards)
        ]
        round_index = 0
        while pending:
            # Deterministic submission order no matter how pieces were born.
            pending.sort(key=lambda piece: (piece.shard, piece.offset))
            try:
                done, failed = self._run_round(func, payload, pending, level)
            except _PoolUnavailable as error:
                self._degrade_to_serial(error)
                for piece in pending:
                    parts[piece.shard][piece.offset] = func(
                        payload, list(piece.items)
                    )
                pending = []
                break
            for piece, result in done:
                parts[piece.shard][piece.offset] = result
            if not failed:
                break
            retry: list[_ShardPiece] = []
            transport_failures = 0
            for piece, error in failed:
                if combine is not None and isinstance(
                    error, (MemoryError, MemoryBudgetExceeded)
                ):
                    retry.extend(
                        self._recover_memory(func, payload, piece, parts, level, error)
                    )
                    continue
                piece.attempts += 1
                if piece.attempts > policy.max_retries:
                    if isinstance(error, TimeoutError):
                        raise MiningError(
                            f"shard {piece.shard} of level {level} exceeded its "
                            f"{policy.shard_timeout}s timeout on all "
                            f"{piece.attempts} attempts"
                        ) from error
                    raise error
                retry.append(piece)
                transport_failures += 1
            if transport_failures:
                self._level_retries[level] = (
                    self._level_retries.get(level, 0) + transport_failures
                )
                # Backoff only cushions transport trouble; split pieces carry
                # *less* work than before and should resubmit immediately.
                delay = policy.delay(round_index, seed=level)
                if delay > 0:
                    time.sleep(delay)
            pending = retry
            round_index += 1
        results: list[Any] = []
        for shard_parts in parts:
            ordered = [shard_parts[offset] for offset in sorted(shard_parts)]
            results.append(ordered[0] if len(ordered) == 1 else combine(ordered))
        return results

    # --------------------------------------------------------------- memory recovery
    def _recover_memory(
        self,
        func: Callable[[Any, list], Any],
        payload: Any,
        piece: _ShardPiece,
        parts: list[dict[int, Any]],
        level: int,
        error: BaseException,
    ) -> list[_ShardPiece]:
        """Turn one over-budget piece into smaller/cheaper work; never verbatim.

        The chain, each step output-preserving and recorded as a warning:

        1. **Split in half** while the piece has more than one item — two
           pieces of roughly half the transient working set each.
        2. **Shrink ``kernel_chunk_bytes``** (halving, floored at
           :data:`_CHUNK_SHRINK_FLOOR`) — the vectorized kernel's transient
           pair buffers are proportional to the chunk cap.
        3. **Evaluate in-process** — the coordinator usually has more
           headroom than a budget-watched worker, and the watchdog never
           arms outside worker scope, so this step cannot loop.  If even
           that exceeds memory (or an injected memory fault is still armed,
           proving the plan wanted the floor reached), the run fails with a
           clean :class:`MiningError`.
        """
        self._level_splits[level] = self._level_splits.get(level, 0) + 1
        if len(piece.items) > 1:
            half = (len(piece.items) + 1) // 2
            self._warn(
                f"shard {piece.shard} of level {level} ran out of its memory "
                f"share ({error}); split into pieces of {half} and "
                f"{len(piece.items) - half} candidates and resubmitted"
            )
            return [
                _ShardPiece(piece.shard, piece.offset, piece.items[:half]),
                _ShardPiece(piece.shard, piece.offset + half, piece.items[half:]),
            ]
        if self._shrink_kernel_chunks(payload, level):
            return [piece]
        self._warn(
            f"shard {piece.shard} of level {level} is over budget at a single "
            "candidate; evaluating it in-process without a watchdog"
        )
        try:
            if self._fault_plan:
                faults.apply_worker_fault(
                    self._fault_plan.take(faults.MEMORY_KINDS, level, piece.shard)
                )
            parts[piece.shard][piece.offset] = func(payload, list(piece.items))
        except (MemoryError, MemoryBudgetExceeded) as final_error:
            raise MiningError(
                f"shard {piece.shard} of level {level} stayed over the memory "
                "budget after splitting to a single candidate, shrinking "
                "kernel chunks and dropping to in-process evaluation"
            ) from final_error
        return []

    def _shrink_kernel_chunks(self, payload: Any, level: int) -> bool:
        """Halve the level's kernel chunk cap; False once at/below the floor.

        Chunking is output-preserving by construction (anchor-granular
        chunks concatenate to the unchunked result, see
        :func:`_anchor_chunks`), so mutating the shared context's config is
        safe — every subsequent round, forked or pooled, re-ships the
        payload and picks the new cap up.
        """
        if not isinstance(payload, LevelContext):
            return False
        config = payload.config
        if not config.vectorized:
            return False
        current = config.kernel_chunk_bytes
        shrunk = (
            64 * 1024 * 1024 // 2 if current is None else current // 2
        )
        if shrunk < _CHUNK_SHRINK_FLOOR:
            return False
        payload.config = replace(config, kernel_chunk_bytes=shrunk)
        self._warn(
            f"level {level} over budget at a single candidate; kernel chunk "
            f"cap shrunk to {shrunk} bytes"
        )
        return True

    # ------------------------------------------------------------- fault handling
    def _warn(self, message: str) -> None:
        if message not in self.warnings:
            self.warnings.append(message)

    def _worker_fault(self, level: int, shard: int) -> tuple[str, float] | None:
        """Directive for an armed worker fault at this coordinate, if any."""
        if not self._fault_plan:
            return None
        return self._fault_plan.take(faults.WORKER_KINDS, level, shard)

    def _degrade_to_serial(self, error: BaseException) -> None:
        """Give up on worker processes for the rest of this backend's life."""
        self._serial_degraded = True
        self._warn(
            f"process pool unavailable ({error}); continuing with "
            "in-process evaluation"
        )

    def _kill_executor(self, executor: ProcessPoolExecutor) -> None:
        """Tear an executor down without waiting on its (possibly hung) workers.

        ``shutdown(wait=True)`` on a pool with a hung or dying worker blocks
        forever; terminate the workers first, then let shutdown reap the
        corpses.  Also the only way to cancel a *running* shard (timeouts).
        """
        processes = list(getattr(executor, "_processes", {}).values())
        for process in processes:
            process.terminate()
        for process in processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - stuck in the kernel
                process.kill()
        executor.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------ one round
    def _uses_fork(self) -> bool:
        return self.start_method == "fork" or (
            self.start_method is None and _fork_available()
        )

    def _round_executor(
        self, n_tasks: int, level: int
    ) -> tuple[ProcessPoolExecutor, bool]:
        """Obtain this round's executor; ``(executor, ephemeral)``.

        Raises :class:`_PoolUnavailable` when no pool can be built — real
        resource exhaustion, or an injected ``pool`` fault.
        """
        injected = (
            self._fault_plan.take(("pool",), level) if self._fault_plan else None
        )
        try:
            if injected is not None:
                raise OSError("injected pool construction failure")
            if self._uses_fork():
                return (
                    ProcessPoolExecutor(
                        max_workers=min(n_tasks, self.n_workers),
                        mp_context=multiprocessing.get_context("fork"),
                    ),
                    True,
                )
            return self._ensure_executor(), False
        except OSError as error:
            raise _PoolUnavailable(error) from error

    def _run_round(
        self,
        func: Callable[[Any, list], _R],
        payload: Any,
        pending: list[_ShardPiece],
        level: int,
    ) -> tuple[
        list[tuple[_ShardPiece, _R]], list[tuple[_ShardPiece, BaseException]]
    ]:
        """Submit every pending piece once; collect successes and failures.

        Returns ``(done, failed)`` tagged by piece.  Failures are only the
        retryable kinds (worker death, timeout, transport errors, memory
        pressure); anything else — a genuine evaluation bug — propagates
        immediately.  Fault directives are looked up by the piece's
        *original* shard index, so a plan armed at ``shard=N`` follows N
        through every split.
        """
        global _FORK_PAYLOAD
        executor, ephemeral = self._round_executor(len(pending), level)
        teardown = False
        if ephemeral:
            _FORK_PAYLOAD = (func, payload)
        try:
            futures = []
            for piece in pending:
                directive = self._worker_fault(level, piece.shard)
                if ephemeral:
                    future = executor.submit(_call_forked, piece.items, directive)
                else:
                    future = executor.submit(
                        _call_plain, func, payload, piece.items, directive
                    )
                futures.append(future)
            done, failed, teardown = self._collect_round(futures, pending)
            return done, failed
        except BaseException:
            teardown = True
            raise
        finally:
            if ephemeral:
                _FORK_PAYLOAD = None
                if teardown:
                    self._kill_executor(executor)
                else:
                    executor.shutdown(wait=True)
            elif teardown:
                # The persistent pool is broken or owns hung workers; kill it
                # and let the next round (or run) build a fresh one.
                self._executor = None
                self._kill_executor(executor)

    def _collect_round(
        self,
        futures: list[Any],
        pending: list[_ShardPiece],
    ) -> tuple[
        list[tuple[_ShardPiece, Any]],
        list[tuple[_ShardPiece, BaseException]],
        bool,
    ]:
        """Gather one round's results; classify failures as retryable or not.

        Returns ``(done, failed, teardown)`` where ``teardown`` demands the
        executor be killed rather than drained (hung or dead workers).  The
        timeout budget covers the whole round: ``shard_timeout`` scaled by
        how many executor waves the round needs, since queued shards wait for
        a worker before their own clock meaningfully starts.
        """
        done: list[tuple[_ShardPiece, Any]] = []
        failed: list[tuple[_ShardPiece, BaseException]] = []
        teardown = False
        deadline = None
        if self.retry.shard_timeout is not None:
            waves = math.ceil(len(futures) / max(1, self.n_workers))
            deadline = time.monotonic() + self.retry.shard_timeout * max(1, waves)
        for piece, future in zip(pending, futures):
            try:
                if deadline is None:
                    result = future.result()
                else:
                    remaining = max(0.0, deadline - time.monotonic())
                    result = future.result(timeout=remaining)
            # TimeoutError subclasses OSError (PEP 3151) and must win the
            # match; BrokenProcessPool is a RuntimeError.
            except TimeoutError as error:
                failed.append((piece, error))
                teardown = True
                continue
            except BrokenProcessPool as error:
                failed.append((piece, error))
                teardown = True
                continue
            except (MemoryError, MemoryBudgetExceeded) as error:
                # Memory pressure: the shard is too big, not the transport
                # too flaky — _run_shards routes it to split-and-degrade.
                failed.append((piece, error))
                continue
            except (pickle.PickleError, EOFError, OSError) as error:
                # Transport-shaped failures: the shard never really ran to a
                # usable result, resubmitting it is safe.
                failed.append((piece, error))
                continue
            done.append((piece, result))
        return done, failed, teardown

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ProcessPoolBackend(n_workers={self.n_workers})"


def _combine_level_outcomes(chunks: list[LevelOutcome]) -> LevelOutcome:
    """Reassemble one shard's piece outcomes (already in offset order).

    Pieces partition the shard's candidate list contiguously, so their node
    lists concatenate back into exact shard order and their counters add —
    evaluation counters are strictly per-candidate, which is what makes the
    split invisible to :func:`_merge_indexed_outcomes` and to parity.
    """
    nodes: list[CombinationNode] = []
    stats = MiningStatistics()
    for chunk in chunks:
        nodes.extend(chunk.nodes)
        stats.merge_shard(chunk.stats)
    return LevelOutcome(nodes=nodes, stats=stats)


def _merge_indexed_outcomes(
    shard_indices: Sequence[list[int]],
    shards: Sequence[list[Candidate]],
    outcomes: Sequence[LevelOutcome],
) -> LevelOutcome:
    """Restore global candidate order across shards (the inverse permutation).

    Each worker returns its surviving nodes in shard-candidate order, and a
    node's canonical event tuple equals the sorted tuple of the candidate it
    came from (unique per candidate), so a single forward walk over the shard
    pairs every node with its original candidate index.  Sorting the indexed
    nodes then reproduces the serial node order exactly, no matter how the
    LPT assignment scattered the candidates.
    """
    indexed: list[tuple[int, CombinationNode]] = []
    stats = MiningStatistics()
    for indices, candidates, outcome in zip(shard_indices, shards, outcomes):
        nodes = iter(outcome.nodes)
        node = next(nodes, None)
        for index, candidate in zip(indices, candidates):
            if node is not None and node.events == tuple(sorted(candidate)):
                indexed.append((index, node))
                node = next(nodes, None)
        if node is not None:
            raise RuntimeError(
                "shard returned a node that matches none of its candidates"
            )
        stats.merge_shard(outcome.stats)
    indexed.sort(key=lambda pair: pair[0])
    return LevelOutcome(nodes=[node for _, node in indexed], stats=stats)


def _split_contiguous_indices(n_items: int, n_shards: int) -> list[list[int]]:
    """Contiguous index chunks whose sizes differ by at most 1."""
    base, extra = divmod(n_items, n_shards)
    shards = []
    start = 0
    for shard_index in range(n_shards):
        size = base + (1 if shard_index < extra else 0)
        shards.append(list(range(start, start + size)))
        start += size
    return shards


def _split_lpt_indices(costs: Sequence[float], n_shards: int) -> list[list[int]]:
    """Greedy LPT assignment of item indices to near-equal-cost shards.

    Items are placed heaviest-first onto the least-loaded shard; every tie
    (equal costs, equal loads) breaks towards the lower index, so the split is
    fully deterministic.  Each shard's indices are then sorted ascending
    ("stable reordering") so workers evaluate in candidate order and
    :func:`_merge_indexed_outcomes` can undo the permutation.
    """
    order = sorted(range(len(costs)), key=lambda index: (-costs[index], index))
    loads = [(0.0, shard) for shard in range(n_shards)]
    shards: list[list[int]] = [[] for _ in range(n_shards)]
    for index in order:
        load, shard = heapq.heappop(loads)
        shards[shard].append(index)
        heapq.heappush(loads, (load + costs[index], shard))
    for shard in shards:
        shard.sort()
    return [shard for shard in shards if shard]


def backend_from_config(config: MiningConfig) -> ExecutionBackend:
    """Instantiate the backend selected by ``config.engine`` / ``config.n_workers``."""
    if config.engine == "serial":
        return SerialBackend()
    if config.engine == "process":
        return ProcessPoolBackend(
            n_workers=config.n_workers,
            retry=config.retry,
            memory_budget=config.memory_budget_bytes,
        )
    raise ConfigurationError(  # pragma: no cover - caught by MiningConfig validation
        f"unknown engine {config.engine!r}; known: 'serial', 'process'"
    )
