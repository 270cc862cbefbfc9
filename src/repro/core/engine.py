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

Three throughput features live in the process backend:

*Cost-balanced sharding.*  The miner estimates every candidate's evaluation
cost during candidate generation (level 2: instance-pair counts over shared
sequences; level k: parent occurrence counts × new-event instance counts) and
passes the estimates to :meth:`ProcessPoolBackend.run`.  Candidates are then
assigned to shards by greedy LPT (longest processing time first, ties broken
by candidate index), each shard is re-sorted into ascending candidate order,
and the merge applies the inverse permutation — so the merged node order, and
therefore the mined pattern set and the golden fixtures, is byte-identical to
a serial run while skewed levels no longer wait on one overloaded shard.
Without cost estimates (or with ``cost_balanced=False``) the backend falls
back to contiguous equal-count shards.  ``shards_per_worker`` optionally
over-decomposes the split (N shards per worker instead of one) so residual
cost-model error on very skewed levels is absorbed by the executor's
first-free-worker scheduling instead of stalling a whole worker.

*Summary-only final-level payloads.*  When the coordinator knows a level is
the last one (``LevelContext.final_level``, set by the miner when
``max_pattern_size`` is reached), workers strip the occurrence lists of the
surviving patterns down to per-sequence occurrence *counts* before pickling
the result back (:meth:`~repro.core.hpg.PatternEntry.summarise`).  Occurrence
lists of a final level are never extended again, so only the pickle traffic
shrinks — supports, confidences and the mined pattern set are untouched.
The same slimming applies to *dead-end* nodes of any level ``k >= 3`` when
transitivity pruning is active (``LevelContext.summarise_dead_ends``): a
node none of whose events shares a frequent pair node with a further event
can never be extended (Lemma 5), so its occurrences ship as counts too.

*Generic sharded map.*  :meth:`ExecutionBackend.map_shards` runs any pure
``func(payload, items)`` over item shards with the same two executors;
A-HTPGM's pairwise-NMI phase (the dominant pre-mining cost) uses it to shard
series pairs across the same worker pool that later mines the patterns.

Orthogonally to the backend choice, the relation-classification inner loops
(:func:`_grow_pair_patterns`, :func:`_extend_entry`) route dense sequence
batches through the vectorized kernel of :mod:`repro.core.relation_kernel`
when ``MiningConfig.vectorized`` is set (the default), falling back to the
scalar per-pair reference loop for batches below :data:`_KERNEL_MIN_PAIRS`
instance pairs and for ``vectorized=False``.  Oversized batches are
processed in order-preserving chunks bounded by
``MiningConfig.kernel_chunk_bytes``.  Both paths — under every backend —
produce byte-identical nodes and counters, down to the occurrence store
itself: hits land in the columnar index matrices of
:class:`~repro.core.hpg.PatternEntry` (per-hit rows on the scalar path, one
batched block per kernel batch), whose level-``k`` endpoint blocks are then
*gathered* from the columnar start/end arrays cached on
:class:`~repro.core.hpg.EventNode`.  Neither the array caches nor the
entries' instance-source bindings are pickled into worker payloads — workers
rebuild the former on first use and rebind the latter from
``LevelContext.level1``, so only the compact index matrices cross the
process boundary in either direction.

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
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Any, Protocol, TypeVar, runtime_checkable

import numpy as np

from ..exceptions import ConfigurationError, MemoryBudgetExceeded, MiningError
from ..timeseries.sequences import EventInstance
from . import faults, resources
from .bitmap import Bitmap
from .config import MiningConfig, RetryPolicy
from .events import EventKey
from .hpg import CombinationNode, EventNode, Occurrence, PatternEntry
from .patterns import TemporalPattern
from .relation_kernel import candidate_windows, classify_pairs, expand_windows
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
      instead of the full pair nodes keeps the per-worker payload light.

    ``final_level`` marks a level whose nodes will never be extended again
    (the miner sets it when ``max_pattern_size`` is reached).  Parallel
    workers then return pattern + support/occurrence-count summaries instead
    of full occurrence lists, cutting the pickled return payload; the serial
    backend ignores the flag, so a serial graph keeps full occurrences.

    ``summarise_dead_ends`` extends the same optimisation to levels that
    merely *happen* to be final for some nodes: with transitivity pruning
    active, a node none of whose events shares a frequent pair with any
    further event can never be extended (Lemma 5 rejects every extension),
    so parallel workers summarise such *dead-end* nodes before pickling.
    The miner only sets the flag when transitivity pruning is on (without it
    the worker cannot prove a node dead) and occurrence retention is off.

    ``memory_share_bytes`` arms the worker-side memory watchdog
    (:func:`repro.core.resources.shard_watchdog`): when set — the process
    backend stamps one worker's share of ``MiningConfig.memory_budget_bytes``
    here before shipping the context — a worker polls its resident-set growth
    between candidates and aborts the shard with
    :class:`~repro.exceptions.MemoryBudgetExceeded` once the share is spent,
    letting the coordinator split the shard instead of eating a SIGKILL.
    ``allow_summarise`` records whether forcing ``summarise_dead_ends`` on
    retry is *legal* for this level (set by the miner under the exact same
    conditions it would set ``summarise_dead_ends`` itself); the memory
    degradation chain consults it so a budget recovery can never summarise
    occurrences a retaining session needs.
    """

    level: int
    config: MiningConfig
    min_count: int
    level1: dict[EventKey, EventNode]
    parents: dict[tuple[EventKey, ...], CombinationNode] = field(default_factory=dict)
    pair_patterns: dict[tuple[EventKey, EventKey], frozenset[TemporalPattern]] = field(
        default_factory=dict
    )
    final_level: bool = False
    summarise_dead_ends: bool = False
    memory_share_bytes: int | None = None
    allow_summarise: bool = False

    def event_support(self, event: EventKey) -> int:
        """Support of a frequent event (0 when absent, mirroring the graph)."""
        node = self.level1.get(event)
        return node.support if node is not None else 0


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
def apriori_pair_prune(
    joint_support: int,
    support_a: int,
    support_b: int,
    min_count: int,
    config: MiningConfig,
) -> str | None:
    """Which Apriori check discards an event pair: ``"support"`` (Lemma 2),
    ``"confidence"`` (Lemma 3) or ``None`` when the pair survives.

    Shared by pair evaluation and the miner's cost estimator so the prune
    predicate cannot drift between the two — a drift would not change the
    mined set (costs never do) but would silently skew the cost-balanced
    shards.
    """
    if not config.pruning.uses_apriori:
        return None
    if joint_support < min_count:
        return "support"
    if joint_support / max(support_a, support_b) < config.min_confidence:
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
    """
    started = time.perf_counter()
    stats = MiningStatistics()
    nodes: list[CombinationNode] = []
    evaluate = _evaluate_pair if context.level == 2 else _evaluate_combination
    # Armed only inside process-pool workers shipping a budgeted context;
    # serial runs and the in-process degradation fallback get None.
    watchdog = resources.shard_watchdog(context)
    for candidate in candidates:
        if watchdog is not None:
            watchdog.check()
        node = evaluate(context, candidate, stats)
        if node is not None:
            nodes.append(node)
    stats.level_seconds[context.level] = time.perf_counter() - started
    return LevelOutcome(nodes=nodes, stats=stats)


def _evaluate_pair(
    context: LevelContext, candidate: Candidate, stats: MiningStatistics
) -> CombinationNode | None:
    """Alg. 1 lines 6–14 for one candidate event pair."""
    config = context.config
    event_a, event_b = candidate
    stats.bump(stats.candidates_generated, 2)
    node_a = context.level1[event_a]
    node_b = context.level1[event_b]
    joint = node_a.bitmap & node_b.bitmap
    joint_support = joint.count()
    prune = apriori_pair_prune(
        joint_support, node_a.support, node_b.support, context.min_count, config
    )
    if prune == "support":
        stats.bump(stats.pruned_support, 2)
        return None
    if prune == "confidence":
        stats.bump(stats.pruned_confidence, 2)
        return None
    if joint_support == 0:
        return None

    node = CombinationNode(events=tuple(sorted((event_a, event_b))), bitmap=joint)
    _grow_pair_patterns(config, node, node_a, node_b, stats)
    return _finalise_node(context, node, stats, level=2)


#: Minimum instance-pair count for which a sequence batch is routed through
#: the NumPy relation kernel.  Vectorization pays a fixed per-batch cost
#: (array slicing, mask allocation, a handful of kernel launches) that only
#: amortizes over enough pairs; below the threshold the scalar loop is
#: faster, so the hybrid dispatch keeps sparse workloads at their historical
#: speed while dense batches get the kernel.  Both paths produce
#: byte-identical nodes and counters, so the routing is purely a scheduling
#: choice and can never change the mined output.
#:
#: Read at call time (here and by the session's columnar prebuild), so tests
#: force either path by monkeypatching this one name.
_KERNEL_MIN_PAIRS = 64


def _grow_pair_patterns(
    config: MiningConfig,
    node: CombinationNode,
    node_a: EventNode,
    node_b: EventNode,
    stats: MiningStatistics,
) -> None:
    """Classify every chronologically ordered instance pair in shared sequences.

    With ``config.vectorized`` each sequence's pair batch is routed through
    the NumPy kernel once it is large enough to amortize the kernel overhead
    (:data:`_KERNEL_MIN_PAIRS`); smaller batches — and every batch when the
    flag is off — run the scalar reference loop.  The two paths produce
    byte-identical nodes and counters.
    """
    same_event = node_a.event == node_b.event
    vectorized = config.vectorized
    min_pairs = _KERNEL_MIN_PAIRS
    pattern_cache: dict[tuple[bool, int], tuple[TemporalPattern, tuple]] = {}
    for sequence_id in node.bitmap.indices():
        instances_a = node_a.instances_by_sequence.get(sequence_id, [])
        instances_b = (
            instances_a
            if same_event
            else node_b.instances_by_sequence.get(sequence_id, [])
        )
        n_a, n_b = len(instances_a), len(instances_b)
        n_pairs = n_a * (n_a - 1) // 2 if same_event else n_a * n_b
        if vectorized and n_pairs >= min_pairs:
            _grow_sequence_pairs_kernel(
                config,
                node,
                node_a,
                node_b,
                sequence_id,
                instances_a,
                instances_b,
                same_event,
                pattern_cache,
                stats,
            )
        else:
            _grow_sequence_pairs_scalar(
                config,
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
    kernel path fills in blocks."""
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


def _cached_pair_pattern(
    cache: dict[tuple[bool, int], tuple[TemporalPattern, tuple]],
    event_first: EventKey,
    event_second: EventKey,
    node_first: EventNode,
    node_second: EventNode,
    swapped: bool,
    code: int,
) -> tuple[TemporalPattern, tuple]:
    """The (at most six per pair node) 2-event patterns + sources, built once each."""
    key = (swapped, code)
    cached = cache.get(key)
    if cached is None:
        cached = (
            TemporalPattern(
                events=(event_first, event_second),
                relations=(RELATIONS_BY_CODE[code],),
            ),
            (node_first.instances_by_sequence, node_second.instances_by_sequence),
        )
        cache[key] = cached
    return cached


#: Approximate transient bytes one level-2 kernel pair costs — two ``intp``
#: pair indices, four gathered ``float64`` endpoints, the relation masks and
#: the ``int8`` code — the divisor that turns ``kernel_chunk_bytes`` into a
#: per-chunk pair cap covering the whole working set, not just the masks.
_LEVEL2_BYTES_PER_PAIR = 80


def _anchor_chunks(lo: np.ndarray, hi: np.ndarray, max_pairs: int | None):
    """Contiguous anchor ranges whose expanded pair counts fit the mask budget.

    Yields ``(start, stop)`` anchor index ranges covering ``[0, len(lo))`` in
    order; each range expands to at most ``max_pairs`` pairs (a single anchor
    whose window alone exceeds the budget forms its own over-budget range, so
    progress is always made).  ``None`` disables chunking.  Chunking at
    anchor granularity preserves the anchor-major enumeration order of the
    scalar loops exactly, so the per-chunk results concatenate to the
    unchunked ones.
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


def _grow_sequence_pairs_kernel(
    config: MiningConfig,
    node: CombinationNode,
    node_a: EventNode,
    node_b: EventNode,
    sequence_id: int,
    instances_a: list[EventInstance],
    instances_b: list[EventInstance],
    same_event: bool,
    pattern_cache: dict[tuple[bool, int], tuple[TemporalPattern, tuple]],
    stats: MiningStatistics,
) -> None:
    """Kernel path: classify one sequence's instance pairs in batched chunks.

    The enumeration order of the scalar loops is preserved exactly — left
    instances outermost, partner indices ascending (for self pairs: the upper
    triangle in ``combinations`` order) — because the occurrence insertion
    order is part of the byte-identical-result contract.  With ``tmax`` set,
    the ``searchsorted`` prefilter bounds each left instance's partner window
    before anything is materialised; the pairs it drops are exactly pairs the
    scalar loop would skip at the ``tmax`` check (their start gap already
    exceeds ``tmax``), so the ``relation_checks`` counter — which only counts
    pairs *passing* that check — is unaffected.  Very large batches are
    processed in anchor-major chunks bounded by
    ``config.kernel_chunk_bytes`` (:func:`_anchor_chunks`), which caps the
    peak mask memory on dense ``tmax=None`` workloads without changing any
    result.

    Surviving pairs are recorded as index rows into the columnar occurrence
    store: hits are grouped by their (orientation, relation) — at most six
    distinct 2-event patterns per node, visited in first-hit order — and each
    group is inserted as one ``(n, 2)`` block, so no per-hit Python runs.
    """
    tmax = config.tmax
    key_a, key_b = node_a.event, node_b.event
    if same_event:
        n = len(instances_a)
        starts, ends = node_a.sequence_arrays(sequence_id)
        # Upper triangle: partners j > i, windowed by tmax on the right.
        lo = np.arange(1, n + 1, dtype=np.intp)
        if tmax is None:
            hi = np.full(n, n, dtype=np.intp)
        else:
            hi = np.searchsorted(starts, starts + tmax, side="right")
    else:
        starts_a, ends_a = node_a.sequence_arrays(sequence_id)
        starts_b, ends_b = node_b.sequence_arrays(sequence_id)
        lo, hi = candidate_windows(starts_b, starts_a, tmax)
    budget = config.kernel_chunk_bytes
    max_pairs = (
        None if budget is None else max(1, budget // _LEVEL2_BYTES_PER_PAIR)
    )
    for anchor_start, anchor_stop in _anchor_chunks(lo, hi, max_pairs):
        left, right = expand_windows(lo[anchor_start:anchor_stop], hi[anchor_start:anchor_stop])
        if left.size == 0:
            continue
        if anchor_start:
            left = left + anchor_start
        if same_event:
            first_starts, first_ends = starts[left], ends[left]
            second_starts, second_ends = starts[right], ends[right]
            swapped = None
        else:
            a_starts, a_ends = starts_a[left], ends_a[left]
            b_starts, b_ends = starts_b[right], ends_b[right]
            # Chronological ordering per pair (min/max in the instance total
            # order); keys break full interval ties, and the keys differ.
            swapped = (b_starts < a_starts) | (
                (b_starts == a_starts)
                & ((b_ends < a_ends) | ((b_ends == a_ends) & (key_b < key_a)))
            )
            first_starts = np.where(swapped, b_starts, a_starts)
            first_ends = np.where(swapped, b_ends, a_ends)
            second_starts = np.where(swapped, a_starts, b_starts)
            second_ends = np.where(swapped, a_ends, b_ends)
        if tmax is not None:
            keep = second_ends - first_starts <= tmax
            if not keep.all():
                left, right = left[keep], right[keep]
                first_starts, first_ends = first_starts[keep], first_ends[keep]
                second_starts, second_ends = second_starts[keep], second_ends[keep]
                if swapped is not None:
                    swapped = swapped[keep]
                if left.size == 0:
                    continue
        codes = classify_pairs(
            first_starts,
            first_ends,
            second_starts,
            second_ends,
            config.epsilon,
            config.min_overlap,
        )
        stats.bump(stats.relation_checks, 2, int(codes.size))
        _insert_pair_hits(
            node,
            node_a,
            node_b,
            sequence_id,
            codes,
            left,
            right,
            swapped,
            pattern_cache,
        )


def _insert_pair_hits(
    node: CombinationNode,
    node_a: EventNode,
    node_b: EventNode,
    sequence_id: int,
    codes: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    swapped: np.ndarray | None,
    pattern_cache: dict[tuple[bool, int], tuple[TemporalPattern, tuple]],
) -> None:
    """Batched survivor insertion for one level-2 kernel chunk.

    Hits are grouped by ``orientation * 3 + code`` (at most six groups),
    visited in order of each group's first hit so the pattern-dict insertion
    order matches the scalar loop, and every group lands in the store as one
    ``(n, 2)`` index block."""
    hits = np.nonzero(codes >= 0)[0]
    if hits.size == 0:
        return
    key_a, key_b = node_a.event, node_b.event
    hit_codes = codes[hits].astype(np.intp)
    hit_left = left[hits]
    hit_right = right[hits]
    if swapped is None:
        group_keys = hit_codes
    else:
        group_keys = hit_codes + 3 * swapped[hits]
    unique_keys, first_positions = np.unique(group_keys, return_index=True)
    for group_key in unique_keys[np.argsort(first_positions)].tolist():
        mask = group_keys == group_key
        code = group_key % 3
        lefts = hit_left[mask]
        rights = hit_right[mask]
        if swapped is None:
            pattern, sources = _cached_pair_pattern(
                pattern_cache, key_a, key_a, node_a, node_a, False, code
            )
            block = np.column_stack((lefts, rights))
        elif group_key >= 3:
            pattern, sources = _cached_pair_pattern(
                pattern_cache, key_b, key_a, node_b, node_a, True, code
            )
            block = np.column_stack((rights, lefts))
        else:
            pattern, sources = _cached_pair_pattern(
                pattern_cache, key_a, key_b, node_a, node_b, False, code
            )
            block = np.column_stack((lefts, rights))
        node.add_pattern_occurrences(pattern, sequence_id, block, sources)


def _evaluate_combination(
    context: LevelContext, candidate: Candidate, stats: MiningStatistics
) -> CombinationNode | None:
    """Alg. 1 lines 16–20 for one candidate k-event combination."""
    config = context.config
    level = context.level
    stats.bump(stats.candidates_generated, level)
    bitmap = Bitmap.intersect_all(
        context.level1[event].bitmap for event in candidate
    )
    support = bitmap.count()
    if config.pruning.uses_apriori:
        if support < context.min_count:
            stats.bump(stats.pruned_support, level)
            return None
        max_event_support = max(context.event_support(event) for event in candidate)
        if support / max_event_support < config.min_confidence:
            stats.bump(stats.pruned_confidence, level)
            return None
    if support == 0:
        return None

    node = CombinationNode(events=candidate, bitmap=bitmap)
    _grow_combination_patterns(context, node, stats)
    return _finalise_node(context, node, stats, level)


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

    With ``config.vectorized``, each sequence whose occurrence-block ×
    new-instance-block product is large enough to amortize the kernel
    overhead (:data:`_KERNEL_MIN_PAIRS`) is classified in one batched kernel
    call; smaller sequences — and everything when the flag is off — run the
    scalar reference loop.  Both paths produce byte-identical nodes and
    counters.
    """
    vectorized = context.config.vectorized
    min_pairs = _KERNEL_MIN_PAIRS
    kernel_state: _ExtensionKernelState | None = None
    entry.bind_sources(context.level1)
    extended_sources = entry.sources + (new_event_node.instances_by_sequence,)
    for sequence_id, index_matrix in entry.iter_index_matrices():
        new_instances = new_event_node.instances_by_sequence.get(sequence_id)
        if not new_instances:
            continue
        if (
            vectorized
            and index_matrix.shape[0] * len(new_instances) >= min_pairs
        ):
            if kernel_state is None:
                kernel_state = _ExtensionKernelState(
                    context, entry.pattern, new_event_node.event
                )
            _extend_sequence_kernel(
                context,
                node,
                entry,
                new_event_node,
                sequence_id,
                index_matrix,
                new_instances,
                extended_sources,
                kernel_state,
                stats,
            )
        else:
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


class _ExtensionKernelState:
    """Per-(entry, new event) constants of the kernel extension path.

    Built lazily on the first sequence that is routed through the kernel:

    * ``allowed`` — the transitivity lookup table.  ``allowed[i, c]`` is True
      when the 2-event pattern ``(pattern.events[i], new_key)`` with relation
      code ``c`` is a frequent, confident level-2 pattern — the membership
      test of Lemmas 4, 6, 7, precomputed once (at most ``3 * (k-1)`` cells)
      instead of once per instance pair.  ``None`` when transitivity pruning
      is off.
    * ``key_after_last`` — tie-break for the strict chronological-successor
      test: when a candidate instance has exactly the last instance's
      interval, the instance total order falls through to the
      ``(series, symbol)`` keys, and the last pattern event is the same for
      every occurrence of the entry.
    * ``extended_cache`` — extended patterns by relation-code row, so equal
      extensions reuse one :class:`TemporalPattern` object.
    * ``parent_nodes`` — the level-1 node of every pattern event, whose
      cached columnar start/end arrays the gather-built endpoint blocks read.
    """

    __slots__ = ("allowed", "key_after_last", "extended_cache", "parent_nodes")

    def __init__(
        self, context: LevelContext, pattern: TemporalPattern, new_key: EventKey
    ) -> None:
        self.key_after_last = new_key > pattern.events[-1]
        self.extended_cache: dict[bytes, TemporalPattern] = {}
        self.parent_nodes = tuple(
            context.level1[event] for event in pattern.events
        )
        if not context.config.pruning.uses_transitivity:
            self.allowed = None
            return
        allowed = np.zeros((len(pattern.events), len(RELATIONS_BY_CODE)), dtype=bool)
        for position, event in enumerate(pattern.events):
            known = context.pair_patterns.get(_pair_key(event, new_key))
            if not known:
                continue
            for code, relation in enumerate(RELATIONS_BY_CODE):
                triple = TemporalPattern(
                    events=(event, new_key), relations=(relation,)
                )
                if triple in known:
                    allowed[position, code] = True
        self.allowed = allowed


def _extend_sequence_kernel(
    context: LevelContext,
    node: CombinationNode,
    entry: PatternEntry,
    new_event_node: EventNode,
    sequence_id: int,
    index_matrix: np.ndarray,
    new_instances: list[EventInstance],
    extended_sources: tuple,
    state: _ExtensionKernelState,
    stats: MiningStatistics,
) -> None:
    """Kernel path: one batched call per (occurrence block × instance block).

    The occurrence endpoint blocks — ``(n_occurrences, k-1)`` start/end
    matrices — are *gathered* from the pattern events' cached columnar
    per-sequence arrays through the entry's index matrix
    (``starts[index_matrix[:, j]]``), replacing the historical per-call
    Python list comprehensions over instance objects; the new event's
    instances are a cached column.  The chronological-successor and ``tmax``
    gates become boolean masks, and a single :func:`classify_pairs` call
    classifies every remaining (occurrence instance, new instance) pair at
    once.  When the ``(n_occurrences × n_candidates)`` feasibility mask would
    exceed ``config.kernel_chunk_bytes``, the occurrence rows are processed
    in order-preserving chunks, bounding peak mask memory on dense
    ``tmax=None`` workloads.

    The scalar reference loop early-exits per pair — it stops classifying an
    extension at its first failing position, counting one ``relation_checks``
    bump per classification actually performed and one
    ``pruned_relation_checks`` bump only when the stopper was the
    transitivity membership test.  The kernel classifies all positions and
    then *reconstructs* those counters from the first failing position of
    each row, so the statistics stay byte-identical to the scalar path.

    Survivors never touch instance objects at all: rows are grouped by their
    relation-code row (one group per distinct extended pattern, visited in
    first-hit order) and each group joins the store as one batched
    ``(n, k)`` block — the parent rows gathered from the index matrix with
    the candidate position appended.
    """
    config = context.config
    level = context.level
    pattern = entry.pattern
    n_events = len(pattern.events)
    new_key = new_event_node.event
    tmax = config.tmax
    candidate_starts, candidate_ends = new_event_node.sequence_arrays(sequence_id)
    n_candidates = candidate_starts.shape[0]
    budget = config.kernel_chunk_bytes
    # Per (occurrence, candidate) cell the chunk pays the feasibility-mask
    # byte, the selection indices, and — for pairs surviving selection — the
    # gathered float64 endpoint copies plus relation masks/codes across all
    # k-1 positions, so the divisor scales with the pattern size.
    cell_bytes = 16 + 28 * n_events
    chunk_rows = (
        index_matrix.shape[0]
        if budget is None
        else max(1, budget // max(1, n_candidates * cell_bytes))
    )
    parent_nodes = state.parent_nodes
    parent_columns = [
        parent_node.sequence_arrays(sequence_id) for parent_node in parent_nodes
    ]
    extended_cache = state.extended_cache
    for chunk_start in range(0, index_matrix.shape[0], chunk_rows):
        idx = index_matrix[chunk_start : chunk_start + chunk_rows]
        occurrence_starts = np.empty((idx.shape[0], n_events), dtype=np.float64)
        occurrence_ends = np.empty_like(occurrence_starts)
        for position, (starts, ends) in enumerate(parent_columns):
            column = idx[:, position]
            occurrence_starts[:, position] = starts[column]
            occurrence_ends[:, position] = ends[column]
        last_starts = occurrence_starts[:, -1:]
        last_ends = occurrence_ends[:, -1:]
        feasible = (candidate_starts > last_starts) | (
            (candidate_starts == last_starts)
            & (
                (candidate_ends > last_ends)
                | ((candidate_ends == last_ends) & state.key_after_last)
            )
        )
        if tmax is not None:
            feasible &= candidate_ends - occurrence_starts[:, :1] <= tmax
        occurrence_index, candidate_index = np.nonzero(feasible)
        if occurrence_index.size == 0:
            continue
        codes = classify_pairs(
            occurrence_starts[occurrence_index],
            occurrence_ends[occurrence_index],
            candidate_starts[candidate_index, None],
            candidate_ends[candidate_index, None],
            config.epsilon,
            config.min_overlap,
        )
        failed = codes < 0
        transitivity_failed = None
        if state.allowed is not None:
            classified = ~failed
            transitivity_failed = np.zeros_like(failed)
            transitivity_failed[classified] = ~state.allowed[
                np.nonzero(classified)[1], codes[classified]
            ]
            failed |= transitivity_failed
        any_failed = failed.any(axis=1)
        first_failed = failed.argmax(axis=1)
        # The scalar loop performs first_failed + 1 classifications for a
        # failing row and n_events for a surviving one.
        stats.bump(
            stats.relation_checks,
            level,
            int(np.where(any_failed, first_failed + 1, n_events).sum()),
        )
        if transitivity_failed is not None:
            failed_rows = np.nonzero(any_failed)[0]
            stats.bump(
                stats.pruned_relation_checks,
                level,
                int(transitivity_failed[failed_rows, first_failed[failed_rows]].sum()),
            )
        surviving_rows = np.nonzero(~any_failed)[0]
        if surviving_rows.size == 0:
            continue
        surviving_codes = codes[surviving_rows]
        surviving_occurrences = occurrence_index[surviving_rows]
        surviving_candidates = candidate_index[surviving_rows]
        unique_rows, inverse = np.unique(
            surviving_codes, axis=0, return_inverse=True
        )
        inverse = inverse.reshape(-1)
        if len(unique_rows) == 1:
            group_order = [0]
        else:
            # np.unique sorts lexicographically; recover first-hit order so
            # the pattern-dict insertion order matches the scalar loop.
            first_hit = np.full(len(unique_rows), len(inverse), dtype=np.intp)
            np.minimum.at(first_hit, inverse, np.arange(len(inverse)))
            group_order = np.argsort(first_hit).tolist()
        for group in group_order:
            row_codes = unique_rows[group]
            cache_key = row_codes.tobytes()
            new_pattern = extended_cache.get(cache_key)
            if new_pattern is None:
                new_pattern = pattern.extend(
                    new_key,
                    tuple(RELATIONS_BY_CODE[code] for code in row_codes.tolist()),
                )
                extended_cache[cache_key] = new_pattern
            member = inverse == group
            block = np.column_stack(
                (idx[surviving_occurrences[member]], surviving_candidates[member])
            )
            node.add_pattern_occurrences(
                new_pattern, sequence_id, block, extended_sources
            )


def _finalise_node(
    context: LevelContext,
    node: CombinationNode,
    stats: MiningStatistics,
    level: int,
) -> CombinationNode | None:
    """Keep only frequent, confident patterns; return the node when non-empty."""
    config = context.config
    keep: set[TemporalPattern] = set()
    for pattern, entry in node.patterns.items():
        support = entry.support
        if support < context.min_count:
            continue
        max_event_support = max(
            context.event_support(event) for event in pattern.events
        )
        if max_event_support == 0:
            continue
        if support / max_event_support < config.min_confidence:
            continue
        keep.add(pattern)
    node.prune_patterns(keep)
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
    discard the estimates (the serial backend, or a process backend with
    ``cost_balanced=False``).
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


def _summarise_final_level(outcome: LevelOutcome) -> LevelOutcome:
    """Strip occurrence lists down to counts before the outcome is pickled."""
    for node in outcome.nodes:
        for entry in node.patterns.values():
            entry.summarise()
    return outcome


def _summarise_dead_end_nodes(
    context: LevelContext, outcome: LevelOutcome
) -> LevelOutcome:
    """Summarise nodes that provably cannot be extended at the next level.

    With transitivity pruning active, extending a node requires an event that
    forms a frequent pair node with *every* event of the node (Lemma 5; the
    workers enforce exactly this via :func:`_may_extend`, so a node failing
    it for every candidate event will never have its occurrences read again).
    The adjacency of the frequent pair set is known from
    ``context.pair_patterns``, so each produced node is checked against it
    and dead ends ship as summaries, like a known-final level would.  The
    adjacency rebuild is per shard but O(|frequent pairs|) set inserts —
    noise next to the evaluation work the shard just did — and is skipped
    entirely when the shard produced nothing.
    """
    if not outcome.nodes:
        return outcome
    partners: dict[EventKey, set[EventKey]] = {}
    for (event_a, event_b), patterns in context.pair_patterns.items():
        if patterns:
            partners.setdefault(event_a, set()).add(event_b)
            partners.setdefault(event_b, set()).add(event_a)
    for node in outcome.nodes:
        node_events = set(node.events)
        extendable = any(
            extension not in node_events
            and all(extension in partners.get(event, ()) for event in node.events)
            for extension in partners.get(node.events[0], ())
        )
        if not extendable:
            for entry in node.patterns.values():
                entry.summarise()
    return outcome


def _evaluate_level_shard(
    context: LevelContext, candidates: list[Candidate]
) -> LevelOutcome:
    """Worker body of the process backend: evaluate, then slim the payload."""
    outcome = evaluate_candidates(context, candidates)
    if context.final_level:
        _summarise_final_level(outcome)
    elif context.summarise_dead_ends:
        _summarise_dead_end_nodes(context, outcome)
    return outcome


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
    (or with ``cost_balanced=False``) into contiguous near-equal-*count*
    shards.  Either way each shard keeps ascending candidate order and the
    merge restores the global candidate order via the inverse permutation, so
    the node order is byte-identical to a serial run; statistics merge via
    :meth:`MiningStatistics.merge_shard` (counters add, wall-clock maxes).

    Two transports are used for the worker payload (the level context or, for
    :meth:`map_shards`, an arbitrary picklable object), which is by far the
    largest transfer:

    * On fork-capable platforms a fresh pool is forked per batch and the
      workers inherit the payload through copy-on-write memory — only the
      item shards are pickled in, and only the results are pickled out
      (final-level results additionally slimmed to summaries, see
      :func:`_evaluate_level_shard`).
    * Otherwise (Windows, or an explicit non-fork ``start_method``) a
      persistent pool is kept and the payload is pickled once per shard.

    ``start_method`` pins the :mod:`multiprocessing` start method (e.g.
    ``"spawn"`` to exercise the spawn transport on a fork-capable platform);
    ``None`` keeps the historical choice — fork when available, the
    platform default otherwise.

    ``shards_per_worker`` over-decomposes the split: targeting ``N`` shards
    per worker (instead of exactly one) bounds the damage of a cost-model
    miss on very skewed levels — a shard that turns out heavier than
    estimated delays only ``1/N`` of a worker's assignment, because the
    executor hands the remaining shards to whichever workers free up first.
    The default of 1 keeps the historical one-shard-per-worker behaviour.

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

    def __init__(
        self,
        n_workers: int | None = None,
        min_candidates_per_worker: int = 4,
        cost_balanced: bool = True,
        shards_per_worker: int = 1,
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
        if shards_per_worker < 1:
            raise ConfigurationError(
                f"shards_per_worker must be >= 1, got {shards_per_worker}"
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
        self.cost_balanced = cost_balanced
        self.shards_per_worker = shards_per_worker
        self.start_method = start_method
        #: Only a cost-balancing backend can use the miner's estimates.
        self.wants_costs = cost_balanced
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
            _evaluate_level_shard,
            context,
            shards,
            level=level,
            combine=_combine_level_outcomes,
        )
        outcome = _merge_indexed_outcomes(shard_indices, shards, outcomes)
        return self._stamp_stats(outcome, level, retries_before, splits_before)

    def _bytes_per_cost(self, level: int) -> float:
        """Transient kernel bytes one unit of candidate cost expands into.

        Level-2 costs are instance-pair counts (the kernel's per-pair
        working set is :data:`_LEVEL2_BYTES_PER_PAIR`); level-``k`` costs
        are occurrence×instance pair counts whose gathered cell rows grow
        with the combination arity, mirroring the kernel's own chunk
        arithmetic in :func:`_anchor_chunks` callers.
        """
        if level == 2:
            return float(_LEVEL2_BYTES_PER_PAIR)
        return float(16 + 28 * max(2, level))

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
        return min(
            self.n_workers * self.shards_per_worker,
            max(1, n_items // self.min_candidates_per_worker),
        )

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
        if costs is not None and self.cost_balanced:
            return _split_cost_balanced(costs, n_shards)
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
        3. **Force occurrence summarisation** where the miner declared it
           legal (``LevelContext.allow_summarise``) — slims what the worker
           holds while packing its response.
        4. **Evaluate in-process** — the coordinator usually has more
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
        if self._force_summaries(payload, level):
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

    def _force_summaries(self, payload: Any, level: int) -> bool:
        """Turn dead-end summarisation on early, where the miner allows it."""
        if not isinstance(payload, LevelContext):
            return False
        if (
            not payload.allow_summarise
            or payload.summarise_dead_ends
            or payload.final_level
        ):
            return False
        payload.summarise_dead_ends = True
        self._warn(
            f"level {level} still over budget; forcing dead-end occurrence "
            "summarisation to slim worker payloads"
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
        return (
            f"ProcessPoolBackend(n_workers={self.n_workers}, "
            f"cost_balanced={self.cost_balanced}, "
            f"shards_per_worker={self.shards_per_worker})"
        )


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


def _split_cost_balanced(costs: Sequence[float], n_shards: int) -> list[list[int]]:
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
