"""Persistent mining sessions: explicit HTPGM level state plus incremental append.

Historically :meth:`HTPGM.mine` rebuilt all of its working state — level-1
bitmaps and instance lists, pair and combination node trees, the Hierarchical
Pattern Graph, the statistics — as per-call locals and threw most of it away.
A production deployment that keeps mining the same stream cannot afford that:
new time windows arrive continuously and re-mining the whole sequence database
from scratch repeats almost all of yesterday's work.

:class:`MiningSession` makes that state explicit and serialisable:

* :meth:`MiningSession.mine` runs the ordinary level-wise HTPGM search and
  *keeps* the constructed state — every event's bitmap and instance lists
  (frequent or not), the full node trees with their occurrence evidence, the
  statistics;
* :meth:`MiningSession.append` folds new sequences into that state
  *incrementally*: level-1 bitmaps and instance lists are extended in place,
  and at every level only the candidates whose support sets can actually
  change — combinations whose events co-occur in a delta sequence, or that
  involve a newly frequent event — are re-evaluated; every other node is
  reused as-is (re-checked against the new thresholds, never re-computed);
* :mod:`repro.io.session_io` saves and loads a session, so the mining state
  can outlive the process that built it.

One per-level method, :meth:`MiningSession._level`, serves both: it
generates a level's candidates, evaluates those whose support set can change
through one ``backend.run``, re-admits the stored nodes of the rest and
merges both in canonical candidate order.  A full mine — and
:meth:`MiningSession.resume` of a checkpointed one — is a merge against an
empty previous state, in which every frequent event is newly frequent, so
every candidate is evaluated.

The correctness contract (enforced by ``tests/test_session.py``) is exact:

    ``mine(D)`` followed by ``append(ΔD)`` produces the identical
    :class:`~repro.core.result.MiningResult` — patterns, supports,
    confidences, order — as ``mine(D ∪ ΔD)`` from scratch,

for every execution backend and every pruning mode.  The key monotonicity
facts behind the delta rule: appending sequences never lowers the absolute
support threshold, never lowers an event's support, and never adds
occurrences to a pattern whose events do not co-occur in a delta sequence.
An *untouched* pattern therefore keeps its exact support and confidence and
can only *fall out* of the frequent set (threshold re-check, no
re-evaluation), while anything previously pruned that could now become
frequent necessarily involves the delta and is re-evaluated in full.

:class:`HTPGM` remains the stable public miner; its :meth:`~HTPGM.mine` is a
thin wrapper that creates a session, runs the levels and builds the result.
Every session keeps the full occurrence store under every backend, so every
completed session — :class:`HTPGM`'s included — can be appended to and
saved.  A session restored from an interrupted checkpoint must be finished
with :meth:`MiningSession.resume` first.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from itertools import combinations
from typing import NamedTuple

import numpy as np

from ..exceptions import MiningError
from ..timeseries.sequences import SequenceDatabase, TemporalSequence
from . import faults
from .bitmap import Bitmap
from .config import MiningConfig
from .engine import (
    Candidate,
    ExecutionBackend,
    LevelContext,
    admit_patterns,
    apriori_prune,
    backend_from_config,
)
from .events import EventKey, TemporalEvent, collect_events
from .hpg import (
    CombinationNode,
    EventNode,
    HierarchicalPatternGraph,
)
from .patterns import PatternMeasures
from .result import MinedPattern, MiningResult
from .stats import MiningStatistics

__all__ = ["MiningSession"]

#: Predicate deciding whether an event participates in mining at all.
EventFilter = Callable[[EventKey], bool]
#: Predicate deciding whether an event pair may form level-2 candidates.
PairFilter = Callable[[EventKey, EventKey], bool]


def _restrict_level1(
    graph: HierarchicalPatternGraph, candidates: list[Candidate]
) -> dict[EventKey, EventNode]:
    """Level-1 nodes of only the events appearing in ``candidates``.

    The level context travels to worker processes, so shipping just the
    needed event nodes (bitmaps + instance lists) keeps the payload minimal
    when filters or transitivity pruning have narrowed the candidate set.
    """
    needed = {event for candidate in candidates for event in candidate}
    return {event: graph.level1[event] for event in graph.level1 if event in needed}


# --------------------------------------------------------------------------- cost model
def _backend_uses_costs(backend: ExecutionBackend, n_candidates: int) -> bool:
    """Whether estimating candidate costs for this level is worth anything.

    Estimates matter only to a cost-balancing backend (``wants_costs``) that
    will actually shard the batch (``would_shard``); for every other
    combination — the serial backend, or a level too small to split — the
    estimates would be discarded, so the miner skips the estimation pass
    entirely.
    """
    if not getattr(backend, "wants_costs", False):
        return False
    would_shard = getattr(backend, "would_shard", None)
    return would_shard is None or would_shard(n_candidates)


def _estimate_pair_costs(
    context: LevelContext,
    candidates: list[Candidate],
    config: MiningConfig,
    min_count: int,
) -> list[float]:
    """Per-candidate evaluation cost estimates for level 2.

    The dominant cost of a surviving pair is relation classification over the
    chronologically ordered instance pairs in shared sequences, so the
    estimate is the product of the two instance counts summed over the shared
    sequences (the self-pair analogue: instances choose two) — computed as a
    dot product of the events' rows of the level's instance-table ``count``
    matrix over the shared sequence ids, instead of a Python loop per
    sequence.  Pairs the Apriori checks of Lemmas 2–3
    would discard stop after one bitmap intersection, so they are estimated
    at unit cost.

    Pairs that Lemma 2 *certainly* prunes — the smaller event support is
    already below the threshold, an upper bound on the joint support — are
    recognised without any bitmap work, so on prune-dominated workloads the
    estimation pre-pass does not replicate the level's intersections
    serially.  For the remaining pairs the estimator repeats the bitmap AND
    the worker will perform — one word-wise intersection + popcount,
    negligible next to the instance-pair classification it predicts;
    shipping the intersections to the workers instead would grow the very
    payload the engine tries to keep small.
    """
    uses_apriori = config.pruning.uses_apriori
    table = context.instances
    costs: list[float] = []
    for event_a, event_b in candidates:
        node_a = context.level1[event_a]
        node_b = context.level1[event_b]
        if uses_apriori and min(node_a.support, node_b.support) < min_count:
            costs.append(1.0)
            continue
        joint = node_a.bitmap & node_b.bitmap
        joint_support = joint.count()
        if joint_support == 0 or (
            apriori_prune(
                joint_support, max(node_a.support, node_b.support), min_count, config
            )
            is not None
        ):
            costs.append(1.0)
            continue
        shared = np.fromiter(joint.indices(), dtype=np.intp, count=joint_support)
        counts_a = table.count[table.index[event_a], shared]
        if event_a == event_b:
            pair_count = float(counts_a @ (counts_a - 1.0)) / 2.0
        else:
            pair_count = float(counts_a @ table.count[table.index[event_b], shared])
        costs.append(max(pair_count, 1.0))
    return costs


def _estimate_combination_costs(
    context: LevelContext, candidates: list[Candidate]
) -> list[float]:
    """Per-candidate evaluation cost estimates for level ``k >= 3``.

    Evaluating a combination extends every stored occurrence of every parent
    ``(k-1)``-node with the instances of the remaining event, so the estimate
    sums, over each (parent, new event) decomposition, the per-sequence
    product of parent occurrence counts and new-event instance counts.  A
    parent's per-sequence occurrence counts are one ``np.add.at`` of its
    entries' run lengths (``np.diff(offsets)``) over their ``sequences``;
    each decomposition is one dot product of those counts with the new
    event's row of the level's instance-table ``count`` matrix (one matrix
    product per parent).  Every sum is an exact integer.
    """
    table = context.instances
    # Every (parent, new event) decomposition, grouped by parent.
    decompositions: dict[tuple[EventKey, ...], tuple[list[int], list[int]]] = {}
    for position, candidate in enumerate(candidates):
        for new_event in candidate:
            parent_key = tuple(e for e in candidate if e != new_event)
            positions, rows = decompositions.setdefault(parent_key, ([], []))
            positions.append(position)
            rows.append(table.index[new_event])
    costs = np.zeros(len(candidates), dtype=np.int64)
    for parent_key, (positions, rows) in decompositions.items():
        parent = context.parents.get(parent_key)
        if parent is None or not parent.patterns:
            continue
        entries = parent.patterns.values()
        sequences = np.concatenate([entry.sequences for entry in entries])
        runs = np.concatenate([np.diff(entry.offsets) for entry in entries])
        ids, position = np.unique(sequences, return_inverse=True)
        counts = np.zeros(len(ids), dtype=np.int64)
        np.add.at(counts, position, runs)
        # The parent's decompositions' dot products, as one matrix product.
        costs[positions] += table.count[np.ix_(rows, ids)] @ counts
    return np.maximum(costs, 1).astype(float).tolist()


class MiningSession:
    """Explicit, appendable state of one level-wise HTPGM mining run.

    Parameters
    ----------
    config:
        Thresholds, relation buffers, pruning switches and engine selection.
    event_filter, pair_filter:
        Optional predicates used by A-HTPGM to exclude uncorrelated series;
        ``None`` (the default) keeps everything, which is the exact
        algorithm.  A session carrying filters cannot be serialised
        (arbitrary callables do not round-trip through a file).

    Attributes
    ----------
    events:
        Level-1 state of *every* event passing ``event_filter``, frequent or
        not: bitmap over sequence ids plus per-sequence instance lists.
        Infrequent events must be retained because an append can push them
        over the (also growing) support threshold.  Empty until
        :meth:`mine`.
    graph:
        The Hierarchical Pattern Graph of the current state (level-1 nodes
        of the frequent events plus all surviving combination nodes).
    statistics:
        Work counters of the most recent operation (:meth:`mine` or
        :meth:`append`).  Append statistics count only the incremental work;
        ``patterns_found`` is always rewritten to describe the merged state.
    """

    def __init__(
        self,
        config: MiningConfig | None = None,
        event_filter: EventFilter | None = None,
        pair_filter: PairFilter | None = None,
    ) -> None:
        self.config = config or MiningConfig()
        self.event_filter = event_filter
        self.pair_filter = pair_filter
        self.n_sequences: int = 0
        self.events: dict[EventKey, EventNode] = {}
        self.graph: HierarchicalPatternGraph | None = None
        self.statistics: MiningStatistics | None = None
        self.appends: int = 0
        #: Progress marker of an unfinished mine(): ``{"next_level": k}``
        #: when level ``k`` still has to run, ``None`` when the state is
        #: complete.  Persisted by :func:`repro.io.session_io.write_session`
        #: so :meth:`resume` knows where to pick up; while it is set,
        #: :meth:`result` and :meth:`append` refuse the state.
        self._mining_state: dict | None = None

    # ------------------------------------------------------------------ properties
    @property
    def mined(self) -> bool:
        """True once :meth:`mine` has populated the session state."""
        return self.graph is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"MiningSession(n_sequences={self.n_sequences}, "
            f"mined={self.mined}, appends={self.appends})"
        )

    # ------------------------------------------------------------------ public API
    def mine(
        self, database: SequenceDatabase, backend: ExecutionBackend | None = None
    ) -> MiningResult:
        """Mine all frequent temporal patterns, keeping the level state.

        ``backend`` evaluates the level candidates; ``None`` resolves one
        from ``config.engine`` for this call and closes it afterwards, an
        injected backend stays owned by the caller.

        With ``config.checkpoint_path`` set the session snapshots itself to
        that file (atomically, via the ordinary session writer) after level 1
        and after every level that produced nodes; an interrupted run
        restarts from the last finished level via :meth:`resume` and
        produces the identical final result.
        """
        if self.graph is not None:
            raise MiningError(
                "session already holds mined state; use append() for new "
                "sequences or create a fresh session"
            )
        if len(database) == 0:
            raise MiningError("cannot mine an empty sequence database")
        checkpointing = self.config.checkpoint_path is not None
        if checkpointing and (
            self.event_filter is not None or self.pair_filter is not None
        ):
            # Checkpoints reuse write_session, so they inherit its contract.
            raise MiningError(
                "sessions carrying event/pair filters cannot be "
                "checkpointed; filters are arbitrary callables"
            )

        started = time.perf_counter()
        stats = MiningStatistics(n_sequences=len(database))
        min_count = self.config.support_count(len(database))
        graph = HierarchicalPatternGraph(n_sequences=len(database))

        backend, owns_backend = self._resolve_backend(backend)
        try:
            all_events = self._mine_single_events(database, graph, stats, min_count)
            if checkpointing:
                # Publish the in-progress state so every checkpoint below can
                # go through the ordinary session writer; on failure the
                # except arm rolls the in-memory session back to unmined.
                self.n_sequences = len(database)
                self.events = all_events
                self.graph = graph
                self.statistics = stats
                self._write_checkpoint(2)
            self._mine_levels(graph, stats, min_count, backend, 2)
        except BaseException:
            if checkpointing:
                # The on-disk checkpoint survives for resume(); in memory the
                # session reverts to unmined so a retry starts clean.
                self.n_sequences = 0
                self.events = {}
                self.graph = None
                self.statistics = None
            self._mining_state = None
            raise
        finally:
            if owns_backend:
                backend.close()

        runtime = time.perf_counter() - started
        self.n_sequences = len(database)
        self.events = all_events
        self.graph = graph
        self.statistics = stats
        self._write_checkpoint(None)
        return self._build_result(graph, stats, runtime, backend.name)

    def resume(
        self, database: SequenceDatabase, backend: ExecutionBackend | None = None
    ) -> MiningResult:
        """Continue an interrupted checkpointed :meth:`mine` run.

        The session must have been loaded from a checkpoint file written by
        an interrupted run (``read_session`` restores the progress marker).
        Mining restarts at the first level the checkpoint had not completed —
        earlier levels are reused as-is, so resume + remainder produces the
        identical result a never-interrupted run would have.  ``database``
        must be the same sequence database the interrupted run was mining
        (level 1 is *not* re-scanned; the checkpoint already holds it, and
        the size check below is the cheap guard against handing in a
        different database).  With ``config.checkpoint_path`` unset the
        remaining levels write no checkpoints, but the finished session is
        complete all the same: it builds results, appends and saves.

        On a checkpoint whose run actually completed this is a no-op that
        rebuilds and returns the final result.
        """
        if self.graph is None:
            raise MiningError(
                "resume() needs checkpointed state; call mine() first"
            )
        state = self._mining_state
        if state is None:
            return self.result()
        if len(database) != self.n_sequences:
            raise MiningError(
                f"resume database holds {len(database)} sequences but the "
                f"checkpoint was mining {self.n_sequences}; resume() needs "
                "the exact database of the interrupted run"
            )
        started = time.perf_counter()
        graph, stats = self.graph, self.statistics
        min_count = self.config.support_count(self.n_sequences)
        backend, owns_backend = self._resolve_backend(backend)
        try:
            self._mine_levels(
                graph, stats, min_count, backend, int(state["next_level"])
            )
        finally:
            if owns_backend:
                backend.close()

        runtime = time.perf_counter() - started
        self._write_checkpoint(None)
        return self._build_result(graph, stats, runtime, backend.name)

    def result(self) -> MiningResult:
        """Rebuild the :class:`MiningResult` of completed mined state.

        Used after loading a finished run's checkpoint; the reported runtime
        is zero because no mining happened in this process.
        """
        if self.graph is None or self.statistics is None:
            raise MiningError("no mined state to build a result from")
        self._require_complete()
        return self._build_result(
            self.graph, self.statistics, 0.0, self.config.engine
        )

    def _require_complete(self) -> None:
        """Refuse state whose checkpointed run has levels still to mine."""
        if self._mining_state is not None:
            raise MiningError(
                "the run behind this checkpoint did not complete; "
                "call resume() to finish it"
            )

    def _write_checkpoint(self, next_level: int | None) -> None:
        """Record a level boundary; snapshot the session when checkpointing.

        ``next_level`` is the first level the state has *not* completed;
        ``None`` marks the state complete.  The progress marker is updated
        with or without ``config.checkpoint_path``, so a :meth:`resume` run
        without one still leaves a complete session behind.  The write is
        atomic (:func:`~repro.io.session_io.write_session`), so a crash
        mid-write leaves the previous checkpoint intact.
        """
        self._mining_state = (
            None if next_level is None else {"next_level": next_level}
        )
        if self.config.checkpoint_path is None:
            return
        from ..io.session_io import write_session

        write_session(self, self.config.checkpoint_path)

    def append(
        self,
        new_sequences: SequenceDatabase | Iterable[TemporalSequence],
        backend: ExecutionBackend | None = None,
    ) -> MiningResult:
        """Fold new sequences into the mined state incrementally.

        The new sequences are re-indexed to follow the existing ones (their
        incoming sequence ids are ignored), exactly as if they had been the
        last rows of the original database.  Only candidates whose support
        sets can change — all events co-occurring in a delta sequence, or a
        newly frequent event involved — are re-evaluated (through
        ``backend``, so appends parallelise like full mines); every other
        node is reused after a constant-time threshold re-check.

        Invariant: the returned result is identical — patterns, supports,
        confidences, order — to mining the concatenated database from
        scratch.  State restored from an interrupted checkpoint is refused
        until :meth:`resume` has finished it.
        """
        if self.graph is None:
            raise MiningError("append() needs mined state; call mine() first")
        self._require_complete()

        started = time.perf_counter()
        config = self.config
        delta_db = SequenceDatabase(
            [
                TemporalSequence(self.n_sequences + offset, list(sequence.instances))
                for offset, sequence in enumerate(new_sequences)
            ]
        )
        n_new = self.n_sequences + len(delta_db)
        min_count = config.support_count(n_new)
        stats = MiningStatistics(n_sequences=n_new)

        # ---- level 1: extend bitmaps and instance lists with the delta scan
        level_start = time.perf_counter()
        delta_events = collect_events(delta_db)
        merged_events, delta_ids = self._merge_level1(delta_events, n_new)
        graph = HierarchicalPatternGraph(n_sequences=n_new)
        for key, node in merged_events.items():
            if node.support >= min_count:
                graph.add_event_node(node)
        previous = _PreviousState(
            self.graph,
            delta_ids,
            {key for key in graph.level1 if key not in self.graph.level1},
        )
        stats.events_scanned = len(merged_events)
        stats.frequent_events = len(graph.level1)
        stats.patterns_found[1] = len(graph.level1)
        stats.level_seconds[1] = time.perf_counter() - level_start

        backend, owns_backend = self._resolve_backend(backend)
        try:
            # No checkpoints: ``self.graph`` holds the old state until the
            # append completes.
            level = 2
            while self._mines_level(graph, level):
                if not self._level(graph, stats, min_count, level, backend, previous):
                    break
                level += 1
        finally:
            if owns_backend:
                backend.close()

        runtime = time.perf_counter() - started
        self.n_sequences = n_new
        self.events = merged_events
        self.graph = graph
        self.statistics = stats
        self.appends += 1
        return self._build_result(graph, stats, runtime, backend.name)

    # ------------------------------------------------------------------ level 1
    def _mine_single_events(
        self,
        database: SequenceDatabase,
        graph: HierarchicalPatternGraph,
        stats: MiningStatistics,
        min_count: int,
    ) -> dict[EventKey, EventNode]:
        """Alg. 1 lines 1–4: frequent single events via one database scan.

        Returns the level-1 nodes of *every* event passing the filter:
        appends need the infrequent ones too.
        """
        level_start = time.perf_counter()
        events = collect_events(database)
        stats.events_scanned = len(events)
        all_nodes: dict[EventKey, EventNode] = {}
        for key, event in events.items():
            if self.event_filter is not None and not self.event_filter(key):
                continue
            bitmap = Bitmap.from_indices(
                len(database), event.instances_by_sequence.keys()
            )
            node = EventNode(
                event=key,
                bitmap=bitmap,
                instances_by_sequence=event.instances_by_sequence,
            )
            all_nodes[key] = node
            if bitmap.count() >= min_count:
                graph.add_event_node(node)
        stats.frequent_events = len(graph.level1)
        stats.patterns_found[1] = len(graph.level1)
        stats.level_seconds[1] = time.perf_counter() - level_start
        return all_nodes

    def _merge_level1(
        self,
        delta_events: dict[EventKey, TemporalEvent],
        n_new: int,
    ) -> tuple[dict[EventKey, EventNode], dict[EventKey, set[int]]]:
        """Merge the delta scan into the all-event level-1 state.

        Returns the merged nodes (bitmaps grown to ``n_new``, instance dicts
        extended with the delta sequences) plus, for each event occurring in
        the delta, the set of delta sequence ids containing it — the raw
        material of the *touched candidate* test.
        """
        merged: dict[EventKey, EventNode] = {}
        delta_ids: dict[EventKey, set[int]] = {}
        for key, node in self.events.items():
            delta = delta_events.get(key)
            if delta is None:
                merged[key] = EventNode(
                    event=key,
                    bitmap=node.bitmap.resized(n_new),
                    instances_by_sequence=node.instances_by_sequence,
                )
                continue
            instances = dict(node.instances_by_sequence)
            instances.update(delta.instances_by_sequence)
            bitmap = node.bitmap.resized(n_new)
            for sequence_id in delta.instances_by_sequence:
                bitmap.set(sequence_id)
            merged[key] = EventNode(
                event=key, bitmap=bitmap, instances_by_sequence=instances
            )
            delta_ids[key] = set(delta.instances_by_sequence)
        for key, delta in delta_events.items():
            if key in merged:
                continue
            if self.event_filter is not None and not self.event_filter(key):
                continue
            merged[key] = EventNode(
                event=key,
                bitmap=Bitmap.from_indices(n_new, delta.instances_by_sequence.keys()),
                instances_by_sequence=delta.instances_by_sequence,
            )
            delta_ids[key] = set(delta.instances_by_sequence)
        return merged, delta_ids

    # ------------------------------------------------------------------ candidate generation
    def _generate_pair_candidates(
        self, graph: HierarchicalPatternGraph
    ) -> list[Candidate]:
        """Level-2 candidates: event pairs (and self pairs) passing the filter."""
        config = self.config
        frequent = graph.frequent_events()
        candidate_pairs: list[Candidate] = list(combinations(frequent, 2))
        if config.allow_self_relations:
            candidate_pairs.extend((event, event) for event in frequent)
        if self.pair_filter is not None:
            candidate_pairs = [
                pair for pair in candidate_pairs if self.pair_filter(*pair)
            ]
        return candidate_pairs

    def _generate_combination_candidates(
        self,
        graph: HierarchicalPatternGraph,
        stats: MiningStatistics,
        level: int,
    ) -> list[Candidate]:
        """Level-k candidates grown from the ``(k-1)`` nodes, in sorted order."""
        config = self.config
        prev_nodes = graph.nodes_at(level - 1)
        frequent = graph.frequent_events()

        if config.pruning.uses_transitivity:
            allowed_events = {event for node in prev_nodes for event in node.events}
            extension_events = [e for e in frequent if e in allowed_events]
            stats.bump(
                stats.pruned_transitivity_events,
                level,
                len(frequent) - len(extension_events),
            )
        else:
            extension_events = list(frequent)

        # Candidate combinations: (k-1)-node events plus one new single event.
        # Self-relation nodes (the same event paired with itself) are only kept
        # for their own 2-event patterns and are not grown further, so every
        # combination of three or more events consists of distinct events.
        candidates: set[Candidate] = set()
        for node in prev_nodes:
            node_events = set(node.events)
            if len(node_events) < len(node.events):
                continue
            for event in extension_events:
                if event in node_events:
                    continue
                candidates.add(tuple(sorted((*node.events, event))))
        return sorted(candidates)

    # ------------------------------------------------------------------ levels 2..k
    def _mines_level(self, graph: HierarchicalPatternGraph, level: int) -> bool:
        """Whether the level-wise loop mines ``level``: within
        ``max_pattern_size``, and past level 2 only on top of level-``(k-1)``
        nodes."""
        max_size = self.config.max_pattern_size
        return (max_size is None or level <= max_size) and (
            level == 2 or bool(graph.levels.get(level - 1))
        )

    def _mine_levels(
        self,
        graph: HierarchicalPatternGraph,
        stats: MiningStatistics,
        min_count: int,
        backend: ExecutionBackend,
        first_level: int,
    ) -> None:
        """Alg. 1 lines 5–20 from ``first_level`` on, for :meth:`mine` and
        :meth:`resume`.

        Every level merges against an empty previous state, in which every
        frequent event is newly frequent, so every candidate is evaluated.
        The ``exit`` fault hook fires before each level, and a checkpoint
        follows every level that produced nodes; a level that produced none
        ends the run.
        """
        plan = faults.active_plan()
        empty = HierarchicalPatternGraph(n_sequences=graph.n_sequences)
        previous = _PreviousState(empty, {}, set(graph.level1))
        level = first_level
        while self._mines_level(graph, level):
            faults.coordinator_exit(plan, level)
            if not self._level(graph, stats, min_count, level, backend, previous):
                break
            self._write_checkpoint(level + 1)
            level += 1

    def _level(
        self,
        graph: HierarchicalPatternGraph,
        stats: MiningStatistics,
        min_count: int,
        level: int,
        backend: ExecutionBackend,
        previous: _PreviousState,
    ) -> bool:
        """Mine one level into ``graph``, merged against ``previous``.

        Candidates are generated from the ``(k-1)`` state of ``graph`` —
        exactly as a from-scratch run over the whole database would generate
        them, since that state equals the from-scratch one by induction —
        then partitioned:

        * candidates whose support set can change go through one
          ``backend.run`` (A-HTPGM's ``pair_filter`` already applied, costs
          estimated for cost-balancing backends);
        * every other candidate either re-admits its stored node of
          ``previous`` (supports and confidences of untouched patterns are
          unchanged, so :func:`~repro.core.engine.admit_patterns` re-checks
          each pattern in constant time against the grown thresholds), or
          provably mined nothing before and would mine nothing now.

        Against an empty previous state every candidate is evaluated.  The
        merge walks the canonical candidate order, so node order — and the
        result — is identical to a from-scratch run.  Returns whether the
        level produced a node.

        ``level_seconds`` is *evaluation time + coordinator overhead*: the
        backend reports the evaluation wall-clock (for parallel backends: the
        slowest shard, per :meth:`MiningStatistics.merge_shard`), and the
        time this process spent generating candidates, building the context
        and merging the nodes is added on top.
        """
        level_start = time.perf_counter()
        if level == 2:
            generated = self._generate_pair_candidates(graph)
        else:
            generated = self._generate_combination_candidates(graph, stats, level)
        stored = previous.graph.levels.get(level, {})
        touched, readmitted = [], {}
        for candidate in generated:
            if _support_can_change(candidate, previous):
                touched.append(candidate)
                continue
            key = tuple(sorted(candidate))
            node = self._readmit(stored.get(key), graph, min_count)
            if node is not None:
                readmitted[key] = node

        context = self._level_context(graph, level, min_count, touched)
        costs = None
        if _backend_uses_costs(backend, len(touched)):
            costs = (
                _estimate_pair_costs(context, touched, self.config, min_count)
                if level == 2
                else _estimate_combination_costs(context, touched)
            )
        backend_start = time.perf_counter()
        outcome = backend.run(context, touched, costs)
        backend_elapsed = time.perf_counter() - backend_start
        stats.absorb_counters(outcome.stats)

        # Evaluated and re-admitted keys are disjoint.
        nodes = {node.events: node for node in outcome.nodes}
        nodes.update(readmitted)
        for candidate in generated:
            node = nodes.get(tuple(sorted(candidate)))
            if node is None:
                continue
            graph.add_combination_node(node)
            # Entries returned by worker processes carry only their arrays,
            # and re-admitted ones are bound to the old level 1: bind every
            # entry to this graph's instance lists.
            for entry in node.patterns.values():
                entry.bind_sources(graph.level1)

        # ``patterns_found`` describes the merged level (re-admitted and
        # evaluated), not just the evaluation the counters above recorded.
        stats.patterns_found.pop(level, None)
        found = sum(len(node.patterns) for node in nodes.values())
        stats.bump(stats.patterns_found, level, found)
        evaluation_seconds = outcome.stats.level_seconds.get(level, 0.0)
        overhead = max(0.0, (time.perf_counter() - level_start) - backend_elapsed)
        stats.level_seconds[level] = evaluation_seconds + overhead
        return bool(nodes)

    def _readmit(
        self,
        node: CombinationNode | None,
        graph: HierarchicalPatternGraph,
        min_count: int,
    ) -> CombinationNode | None:
        """An untouched stored node under the new thresholds, if any pattern
        survives.

        Untouched patterns keep their exact support (no delta sequence
        contains all their events) and their occurrences, but the absolute
        support threshold and the event supports (confidence denominators)
        may have grown; a node losing every pattern disappears, just as a
        from-scratch run would never have created it.
        """
        if node is None:
            return None
        patterns = admit_patterns(
            node.patterns, graph.event_support, min_count, self.config
        )
        if not patterns:
            return None
        return CombinationNode(
            events=node.events,
            bitmap=node.bitmap.resized(graph.n_sequences),
            patterns=patterns,
        )

    # ------------------------------------------------------------------ shared helpers
    def _resolve_backend(
        self, backend: ExecutionBackend | None
    ) -> tuple[ExecutionBackend, bool]:
        """The backend to use plus whether this call owns (and must close) it."""
        if backend is not None:
            return backend, False
        return backend_from_config(self.config), True

    def _level_context(
        self,
        graph: HierarchicalPatternGraph,
        level: int,
        min_count: int,
        candidates: list[Candidate],
    ) -> LevelContext:
        """Build the worker context for one level's candidate batch.

        The context builds the level's flat instance table once, for every
        shard — serial, forked or spawned — and the cost estimators.

        Memory governance needs nothing extra here: the process backend
        stamps the per-worker budget share onto the context itself, and the
        checkpoint interplay is free by construction — an over-budget level
        is retried *inside* ``backend.run``, so :meth:`_mine_levels` only
        reaches its post-level ``_write_checkpoint`` once the level has
        fully recovered, and a level that exhausts every degradation step
        raises out of ``backend.run`` with the previous level's checkpoint
        already durable on disk.
        """
        config = self.config
        pair_patterns = {}
        if level >= 3 and config.pruning.uses_transitivity:
            # Lemmas 4–7 read only the level-2 pattern identities.
            pair_patterns = {
                events: frozenset(node.patterns)
                for events, node in graph.levels.get(2, {}).items()
            }
        return LevelContext(
            level=level,
            config=config,
            min_count=min_count,
            level1=_restrict_level1(graph, candidates),
            parents=dict(graph.levels.get(level - 1, {})) if level >= 3 else {},
            pair_patterns=pair_patterns,
        )

    def _build_result(
        self,
        graph: HierarchicalPatternGraph,
        stats: MiningStatistics,
        runtime: float,
        engine: str,
    ) -> MiningResult:
        """Collect every stored pattern into a :class:`MiningResult`."""
        mined = []
        n_sequences = graph.n_sequences
        for _level, _node, entry in graph.iter_pattern_entries():
            support = entry.support
            max_event_support = max(
                graph.event_support(event) for event in entry.pattern.events
            )
            # Every sequence supporting the pattern contains each of its
            # events, so support <= max_event_support and the ratio is
            # already in (0, 1] — no clamp needed.
            confidence = support / max_event_support if max_event_support else 0.0
            mined.append(
                MinedPattern(
                    pattern=entry.pattern,
                    measures=PatternMeasures(
                        support=support,
                        relative_support=support / n_sequences,
                        confidence=confidence,
                    ),
                )
            )
        mined.sort(key=lambda m: (m.size, -m.support, m.pattern.describe()))
        return MiningResult(
            patterns=mined,
            config=self.config,
            n_sequences=n_sequences,
            statistics=stats,
            runtime_seconds=runtime,
            algorithm="E-HTPGM",
            engine=engine,
        )


class _PreviousState(NamedTuple):
    """What a level merges against: the graph before the delta, the delta
    sequences holding each event, and the frequent events the old graph
    lacks.  A full mine's previous state is an empty graph, in which every
    frequent event is newly frequent."""

    graph: HierarchicalPatternGraph
    delta_ids: dict[EventKey, set[int]]
    newly_frequent: set[EventKey]


def _support_can_change(candidate: Candidate, previous: _PreviousState) -> bool:
    """Whether appending the delta can change this candidate's support set.

    A pattern over the candidate's events gains occurrences only inside delta
    sequences containing *all* of those events; a candidate involving a newly
    frequent event has no stored state at all (it was never generated) and
    may surface old-sequence patterns, so it must be evaluated in full either
    way.
    """
    if any(event in previous.newly_frequent for event in candidate):
        return True
    shared: set[int] | None = None
    for event in candidate:
        ids = previous.delta_ids.get(event)
        if not ids:
            return False
        shared = ids if shared is None else shared & ids
        if not shared:
            return False
    return True
