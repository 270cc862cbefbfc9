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
thin wrapper that creates a throwaway session (``retain_occurrences=False``,
which keeps the worker payload optimisations active), runs the levels and
builds the result.  Appendable sessions set ``retain_occurrences=True`` so no
occurrence list is ever summarised away — future appends may need any of
them.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from itertools import combinations

import numpy as np

from ..exceptions import MiningError
from ..timeseries.sequences import SequenceDatabase, TemporalSequence
from . import engine, faults
from .bitmap import Bitmap
from .config import MiningConfig
from .engine import (
    Candidate,
    ExecutionBackend,
    LevelContext,
    apriori_pair_prune,
    backend_from_config,
)
from .events import EventKey, TemporalEvent, collect_events
from .hpg import (
    CombinationNode,
    EventNode,
    HierarchicalPatternGraph,
)
from .patterns import PatternMeasures, TemporalPattern
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


def _prebuild_columnar_views(node: EventNode, sequence_ids=None) -> None:
    """Eagerly build a frequent event's columnar start/end arrays.

    Only instance lists long enough that a pairing could plausibly reach the
    kernel routing threshold (``len² >= engine._KERNEL_MIN_PAIRS``) are built
    here — sparse lists would pay the array-construction cost without the
    kernel ever reading it.  A short list paired against a very dense partner
    can still reach the kernel; :meth:`EventNode.sequence_arrays` then builds
    its arrays lazily, once, on first use.
    """
    by_sequence = node.instances_by_sequence
    if sequence_ids is None:
        sequence_ids = by_sequence.keys()
    min_pairs = engine._KERNEL_MIN_PAIRS
    node.build_sequence_arrays(
        sequence_id
        for sequence_id in sequence_ids
        if len(by_sequence[sequence_id]) ** 2 >= min_pairs
    )


# --------------------------------------------------------------------------- cost model
def _backend_uses_costs(backend: ExecutionBackend, n_candidates: int) -> bool:
    """Whether estimating candidate costs for this level is worth anything.

    Estimates matter only to a cost-balancing backend (``wants_costs``) that
    will actually shard the batch (``would_shard``); for every other
    combination — the serial backend, ``cost_balanced=False``, or a level too
    small to split — the estimates would be discarded, so the miner skips the
    estimation pass entirely.
    """
    if not getattr(backend, "wants_costs", False):
        return False
    would_shard = getattr(backend, "would_shard", None)
    return would_shard is None or would_shard(n_candidates)


def _estimate_pair_costs(
    graph: HierarchicalPatternGraph,
    candidates: list[Candidate],
    config: MiningConfig,
    min_count: int,
) -> list[float]:
    """Per-candidate evaluation cost estimates for level 2.

    The dominant cost of a surviving pair is relation classification over the
    chronologically ordered instance pairs in shared sequences, so the
    estimate is the product of the two instance counts summed over the shared
    sequences (the self-pair analogue: instances choose two) — computed as a
    dot product of the events' cached per-sequence instance-count vectors
    (:meth:`EventNode.instance_counts`) over the shared sequence ids, instead
    of a Python loop per sequence.  Pairs the Apriori checks of Lemmas 2–3
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
    n_sequences = graph.n_sequences
    costs: list[float] = []
    for event_a, event_b in candidates:
        node_a = graph.level1[event_a]
        node_b = graph.level1[event_b]
        if uses_apriori and min(node_a.support, node_b.support) < min_count:
            costs.append(1.0)
            continue
        joint = node_a.bitmap & node_b.bitmap
        joint_support = joint.count()
        if joint_support == 0 or (
            apriori_pair_prune(
                joint_support, node_a.support, node_b.support, min_count, config
            )
            is not None
        ):
            costs.append(1.0)
            continue
        shared = np.fromiter(joint.indices(), dtype=np.intp, count=joint_support)
        counts_a = node_a.instance_counts(n_sequences)[shared]
        if event_a == event_b:
            pair_count = float(counts_a @ (counts_a - 1.0)) / 2.0
        else:
            pair_count = float(
                counts_a @ node_b.instance_counts(n_sequences)[shared]
            )
        costs.append(max(pair_count, 1.0))
    return costs


def _estimate_combination_costs(
    graph: HierarchicalPatternGraph, candidates: list[Candidate], level: int
) -> list[float]:
    """Per-candidate evaluation cost estimates for level ``k >= 3``.

    Evaluating a combination extends every stored occurrence of every parent
    ``(k-1)``-node with the instances of the remaining event, so the estimate
    sums, over each (parent, new event) decomposition, the per-sequence
    product of parent occurrence counts and new-event instance counts.
    Summarised entries (final-level or dead-end nodes of a previous parallel
    run) contribute their per-sequence occurrence *counts* instead.
    """
    parents = graph.levels.get(level - 1, {})
    occurrence_counts: dict[tuple[EventKey, ...], dict[int, int]] = {}
    for parent_key, parent in parents.items():
        counts: dict[int, int] = {}
        for entry in parent.patterns.values():
            # Summarised entries contribute their stored counts, columnar
            # ones their per-sequence matrix row counts — no materialising.
            for sequence_id, n_occurrences in (
                entry.occurrence_counts_by_sequence().items()
            ):
                counts[sequence_id] = counts.get(sequence_id, 0) + n_occurrences
        occurrence_counts[parent_key] = counts
    costs: list[float] = []
    for candidate in candidates:
        cost = 0
        for new_event in candidate:
            parent_key = tuple(e for e in candidate if e != new_event)
            parent_counts = occurrence_counts.get(parent_key)
            if not parent_counts:
                continue
            instances = graph.level1[new_event].instances_by_sequence
            for sequence_id, n_occurrences in parent_counts.items():
                n_instances = len(instances.get(sequence_id, ()))
                if n_instances:
                    cost += n_occurrences * n_instances
        costs.append(float(max(cost, 1)))
    return costs


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
    retain_occurrences:
        When True (the default) every pattern's occurrence evidence is kept
        in full — the worker-side summary optimisations are disabled —
        because :meth:`append` may need to extend any of it later.  The
        throwaway sessions created by :meth:`HTPGM.mine` pass False and keep
        the summary optimisations; such sessions cannot be appended to.

    Attributes
    ----------
    events:
        Level-1 state of *every* event passing ``event_filter``, frequent or
        not: bitmap over sequence ids plus per-sequence instance lists.
        Infrequent events must be retained because an append can push them
        over the (also growing) support threshold.  Empty until
        :meth:`mine`; only populated when ``retain_occurrences`` is True.
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
        retain_occurrences: bool = True,
    ) -> None:
        self.config = config or MiningConfig()
        self.event_filter = event_filter
        self.pair_filter = pair_filter
        self.retain_occurrences = retain_occurrences
        self.n_sequences: int = 0
        self.events: dict[EventKey, EventNode] = {}
        self.graph: HierarchicalPatternGraph | None = None
        self.statistics: MiningStatistics | None = None
        self.appends: int = 0
        #: Progress marker of an interrupted checkpointed mine():
        #: ``{"next_level": k}`` when level ``k`` still has to run, ``None``
        #: when the state is complete.  Persisted by
        #: :func:`repro.io.session_io.write_session` so :meth:`resume` knows
        #: where to pick up.
        self._mining_state: dict | None = None
        # Level 2 is immutable once a run finished, so its pattern-identity
        # snapshot (used by the transitivity checks at every level >= 3) is
        # built once per run and reused.
        self._pair_patterns: dict[
            tuple[EventKey, EventKey], frozenset[TemporalPattern]
        ] | None = None

    # ------------------------------------------------------------------ properties
    @property
    def mined(self) -> bool:
        """True once :meth:`mine` has populated the session state."""
        return self.graph is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"MiningSession(n_sequences={self.n_sequences}, "
            f"mined={self.mined}, appends={self.appends}, "
            f"retain_occurrences={self.retain_occurrences})"
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
        that file (atomically, via the ordinary session writer) after every
        completed level; an interrupted run restarts from the last finished
        level via :meth:`resume` and produces the identical final result.
        """
        if self.graph is not None:
            raise MiningError(
                "session already holds mined state; use append() for new "
                "sequences or create a fresh session"
            )
        if len(database) == 0:
            raise MiningError("cannot mine an empty sequence database")
        checkpointing = self.config.checkpoint_path is not None
        if checkpointing:
            # Checkpoints reuse write_session, so they inherit its contract.
            if not self.retain_occurrences:
                raise MiningError(
                    "checkpointing requires a session with retained "
                    "occurrences (retain_occurrences=True)"
                )
            if self.event_filter is not None or self.pair_filter is not None:
                raise MiningError(
                    "sessions carrying event/pair filters cannot be "
                    "checkpointed; filters are arbitrary callables"
                )

        plan = faults.active_plan()
        started = time.perf_counter()
        config = self.config
        stats = MiningStatistics(n_sequences=len(database))
        min_count = config.support_count(len(database))
        graph = HierarchicalPatternGraph(n_sequences=len(database))
        self._pair_patterns = None

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
            max_size = config.max_pattern_size
            if max_size is None or max_size >= 2:
                faults.coordinator_exit(plan, 2)
                self._mine_pairs(graph, stats, min_count, backend)
                self._write_checkpoint(3)
                level = 3
                while (max_size is None or level <= max_size) and graph.nodes_at(
                    level - 1
                ):
                    faults.coordinator_exit(plan, level)
                    if not self._mine_level(graph, stats, min_count, level, backend):
                        break
                    self._write_checkpoint(level + 1)
                    level += 1
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
        different database).

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
        next_level = int(state["next_level"])

        plan = faults.active_plan()
        started = time.perf_counter()
        config = self.config
        stats = self.statistics
        min_count = config.support_count(self.n_sequences)
        graph = self.graph
        self._pair_patterns = None

        backend, owns_backend = self._resolve_backend(backend)
        try:
            max_size = config.max_pattern_size
            level = next_level
            if level == 2 and (max_size is None or max_size >= 2):
                faults.coordinator_exit(plan, 2)
                self._mine_pairs(graph, stats, min_count, backend)
                self._write_checkpoint(3)
                level = 3
            while (
                level >= 3
                and (max_size is None or level <= max_size)
                and graph.nodes_at(level - 1)
            ):
                faults.coordinator_exit(plan, level)
                if not self._mine_level(graph, stats, min_count, level, backend):
                    break
                self._write_checkpoint(level + 1)
                level += 1
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
        if self._mining_state is not None:
            raise MiningError(
                "the run behind this checkpoint did not complete; "
                "call resume() to finish it"
            )
        return self._build_result(
            self.graph, self.statistics, 0.0, self.config.engine
        )

    def _write_checkpoint(self, next_level: int | None) -> None:
        """Snapshot the session after a level boundary (no-op when disabled).

        ``next_level`` is the first level the snapshot has *not* completed;
        ``None`` marks the state complete.  The write is atomic
        (:func:`~repro.io.session_io.write_session`), so a crash mid-write
        leaves the previous checkpoint intact.
        """
        if self.config.checkpoint_path is None:
            return
        self._mining_state = (
            None if next_level is None else {"next_level": next_level}
        )
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
        scratch.
        """
        if self.graph is None:
            raise MiningError("append() needs mined state; call mine() first")
        if not self.retain_occurrences:
            raise MiningError(
                "this session was mined without retained occurrences "
                "(retain_occurrences=False) and cannot be appended to; "
                "mine a MiningSession(retain_occurrences=True) instead"
            )

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
        old_graph = self.graph
        self._pair_patterns = None

        # ---- level 1: extend bitmaps and instance lists with the delta scan
        level_start = time.perf_counter()
        delta_events = collect_events(delta_db)
        merged_events, delta_ids = self._merge_level1(delta_events, n_new)
        graph = HierarchicalPatternGraph(n_sequences=n_new)
        for key, node in merged_events.items():
            if node.support >= min_count:
                graph.add_event_node(node)
        newly_frequent = {
            key for key in graph.level1 if key not in old_graph.level1
        }
        stats.events_scanned = len(merged_events)
        stats.frequent_events = len(graph.level1)
        stats.patterns_found[1] = len(graph.level1)
        stats.level_seconds[1] = time.perf_counter() - level_start

        backend, owns_backend = self._resolve_backend(backend)
        try:
            max_size = config.max_pattern_size
            if max_size is None or max_size >= 2:
                self._append_level(
                    graph, stats, min_count, 2, backend, old_graph, delta_ids,
                    newly_frequent,
                )
                level = 3
                while (max_size is None or level <= max_size) and graph.nodes_at(
                    level - 1
                ):
                    if not self._append_level(
                        graph, stats, min_count, level, backend, old_graph,
                        delta_ids, newly_frequent,
                    ):
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

        Returns the level-1 nodes of *every* event passing the filter when
        occurrences are retained (appends need the infrequent ones too);
        otherwise an empty dict, so a throwaway session holds no extra state.
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
            if self.retain_occurrences:
                all_nodes[key] = node
            if bitmap.count() >= min_count:
                if self.config.vectorized:
                    _prebuild_columnar_views(node)
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
        vectorized = self.config.vectorized
        merged: dict[EventKey, EventNode] = {}
        delta_ids: dict[EventKey, set[int]] = {}
        for key, node in self.events.items():
            delta = delta_events.get(key)
            if delta is None:
                merged_node = EventNode(
                    event=key,
                    bitmap=node.bitmap.resized(n_new),
                    instances_by_sequence=node.instances_by_sequence,
                )
                merged_node.adopt_sequence_arrays(node)
                merged[key] = merged_node
                continue
            instances = dict(node.instances_by_sequence)
            instances.update(delta.instances_by_sequence)
            bitmap = node.bitmap.resized(n_new)
            for sequence_id in delta.instances_by_sequence:
                bitmap.set(sequence_id)
            merged_node = EventNode(
                event=key, bitmap=bitmap, instances_by_sequence=instances
            )
            # Appends only add new sequence ids, so the old columnar views
            # stay valid; extend the cache in place with the delta sequences
            # instead of rebuilding every sequence's arrays from scratch.
            merged_node.adopt_sequence_arrays(node)
            if vectorized:
                _prebuild_columnar_views(merged_node, delta.instances_by_sequence)
            merged[key] = merged_node
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

    # ------------------------------------------------------------------ full-mine levels
    def _mine_pairs(
        self,
        graph: HierarchicalPatternGraph,
        stats: MiningStatistics,
        min_count: int,
        backend: ExecutionBackend,
    ) -> None:
        """Alg. 1 lines 5–14: frequent 2-event patterns.

        Generates the candidate pairs (applying A-HTPGM's ``pair_filter``
        here, in the coordinating process) and estimates each pair's
        evaluation cost, then delegates the per-pair evaluation to the
        backend.
        """
        level_start = time.perf_counter()
        candidate_pairs = self._generate_pair_candidates(graph)
        costs = (
            _estimate_pair_costs(graph, candidate_pairs, self.config, min_count)
            if _backend_uses_costs(backend, len(candidate_pairs))
            else None
        )
        context = self._level_context(graph, 2, min_count, candidate_pairs)
        self._run_level(
            graph, stats, backend, context, candidate_pairs, level_start, costs
        )

    def _mine_level(
        self,
        graph: HierarchicalPatternGraph,
        stats: MiningStatistics,
        min_count: int,
        level: int,
        backend: ExecutionBackend,
    ) -> bool:
        """Alg. 1 lines 15–20: frequent k-event patterns for one level."""
        level_start = time.perf_counter()
        ordered_candidates = self._generate_combination_candidates(
            graph, stats, level
        )
        costs = (
            _estimate_combination_costs(graph, ordered_candidates, level)
            if _backend_uses_costs(backend, len(ordered_candidates))
            else None
        )
        context = self._level_context(graph, level, min_count, ordered_candidates)
        return self._run_level(
            graph, stats, backend, context, ordered_candidates, level_start, costs
        )

    # ------------------------------------------------------------------ incremental levels
    def _append_level(
        self,
        graph: HierarchicalPatternGraph,
        stats: MiningStatistics,
        min_count: int,
        level: int,
        backend: ExecutionBackend,
        old_graph: HierarchicalPatternGraph,
        delta_ids: dict[EventKey, set[int]],
        newly_frequent: set[EventKey],
    ) -> bool:
        """Merge one level of the new state: re-evaluate touched, reuse the rest.

        Candidates are generated exactly as a from-scratch run over the
        concatenated database would generate them (the merged ``(k-1)`` state
        equals the from-scratch one by induction), then partitioned:

        * *touched* candidates — support set able to change — go through the
          backend for full re-evaluation;
        * every other candidate either has a stored node whose patterns are
          re-checked against the grown support threshold and event supports
          (supports and confidences of untouched patterns are unchanged, so
          the check is constant-time per pattern), or provably mined nothing
          before and would mine nothing now.

        The merge walks the canonical candidate order, so node order — and
        the final result — is byte-identical to a from-scratch run.
        """
        level_start = time.perf_counter()
        if level == 2:
            generated = self._generate_pair_candidates(graph)
        else:
            generated = self._generate_combination_candidates(graph, stats, level)
        touched = [
            candidate
            for candidate in generated
            if _support_can_change(candidate, delta_ids, newly_frequent)
        ]

        if level == 2:
            costs = (
                _estimate_pair_costs(graph, touched, self.config, min_count)
                if _backend_uses_costs(backend, len(touched))
                else None
            )
        else:
            costs = (
                _estimate_combination_costs(graph, touched, level)
                if _backend_uses_costs(backend, len(touched))
                else None
            )
        context = self._level_context(graph, level, min_count, touched)
        backend_start = time.perf_counter()
        outcome = backend.run(context, touched, costs)
        backend_elapsed = time.perf_counter() - backend_start
        stats.absorb_counters(outcome.stats)

        evaluated = {node.events: node for node in outcome.nodes}
        touched_keys = {tuple(sorted(candidate)) for candidate in touched}
        old_nodes = old_graph.levels.get(level, {})
        produced = False
        for candidate in generated:
            key = tuple(sorted(candidate))
            if key in touched_keys:
                node = evaluated.get(key)
            else:
                node = self._refilter_node(old_nodes.get(key), graph, min_count)
            if node is not None:
                graph.add_combination_node(node)
                for entry in node.patterns.values():
                    entry.bind_sources(graph.level1)
                produced = True

        # ``patterns_found`` describes the merged state (reused + re-mined),
        # not just the incremental work the counters above recorded.
        stats.patterns_found.pop(level, None)
        stats.bump(
            stats.patterns_found,
            level,
            sum(len(node.patterns) for node in graph.nodes_at(level)),
        )
        evaluation_seconds = outcome.stats.level_seconds.get(level, 0.0)
        overhead = max(0.0, (time.perf_counter() - level_start) - backend_elapsed)
        stats.level_seconds[level] = evaluation_seconds + overhead
        return produced

    def _refilter_node(
        self,
        node: CombinationNode | None,
        graph: HierarchicalPatternGraph,
        min_count: int,
    ) -> CombinationNode | None:
        """Re-check an untouched node's patterns against the new thresholds.

        Untouched patterns keep their exact support (no delta sequence
        contains all their events) and their occurrence evidence, but the
        absolute support threshold has grown and event supports may have
        grown (raising confidence denominators), so each stored pattern is
        re-admitted or dropped; a node losing every pattern disappears, just
        as a from-scratch run would never have created it.
        """
        if node is None:
            return None
        config = self.config
        kept = {}
        for pattern, entry in node.patterns.items():
            support = entry.support
            if support < min_count:
                continue
            max_event_support = max(
                graph.event_support(event) for event in pattern.events
            )
            if max_event_support == 0:
                continue
            if support / max_event_support < config.min_confidence:
                continue
            kept[pattern] = entry
        if not kept:
            return None
        return CombinationNode(
            events=node.events,
            bitmap=node.bitmap.resized(graph.n_sequences),
            patterns=kept,
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

        A retaining session never allows the workers to summarise occurrence
        lists (neither at a known-final level nor at dead-end nodes): a
        future append may extend any stored occurrence.  ``allow_summarise``
        mirrors the exact ``summarise_dead_ends`` predicate so the engine's
        memory degradation chain can flip summarisation on early *only*
        where this session would have permitted it anyway — never for a
        retaining session.

        Memory governance needs nothing extra here: the process backend
        stamps the per-worker budget share onto the context itself, and the
        checkpoint interplay is free by construction — an over-budget level
        is retried *inside* ``backend.run``, so :meth:`mine` only reaches
        its post-level ``_write_checkpoint`` once the level has fully
        recovered, and a level that exhausts every degradation step raises
        out of ``backend.run`` with the previous level's checkpoint already
        durable on disk.
        """
        config = self.config
        final_level = (
            not self.retain_occurrences and config.max_pattern_size == level
        )
        pair_patterns: dict[tuple[EventKey, EventKey], frozenset[TemporalPattern]] = {}
        if level >= 3 and config.pruning.uses_transitivity:
            pair_patterns = self._pair_patterns_for(graph)
        return LevelContext(
            level=level,
            config=config,
            min_count=min_count,
            level1=_restrict_level1(graph, candidates),
            parents=dict(graph.levels.get(level - 1, {})) if level >= 3 else {},
            pair_patterns=pair_patterns,
            final_level=final_level,
            summarise_dead_ends=(
                not self.retain_occurrences
                and not final_level
                and level >= 3
                and config.pruning.uses_transitivity
            ),
            allow_summarise=(
                not self.retain_occurrences
                and not final_level
                and level >= 3
                and config.pruning.uses_transitivity
            ),
        )

    def _pair_patterns_for(
        self, graph: HierarchicalPatternGraph
    ) -> dict[tuple[EventKey, EventKey], frozenset[TemporalPattern]]:
        """Pattern-identity snapshot of level 2, built once per run."""
        if self._pair_patterns is None:
            self._pair_patterns = {
                events: frozenset(node.patterns)
                for events, node in graph.levels.get(2, {}).items()
            }
        return self._pair_patterns

    def _run_level(
        self,
        graph: HierarchicalPatternGraph,
        stats: MiningStatistics,
        backend: ExecutionBackend,
        context: LevelContext,
        candidates: list[Candidate],
        level_start: float,
        costs: list[float] | None = None,
    ) -> bool:
        """Delegate one level's candidates to the backend and merge the outcome.

        ``costs`` carries the per-candidate cost estimates computed during
        generation for cost-balancing backends (``wants_costs``); it is
        ``None`` for backends that would ignore the estimates.

        ``level_seconds`` is assembled as *evaluation time + coordinator
        overhead*: the backend reports the evaluation wall-clock (for parallel
        backends: the slowest shard, per
        :meth:`MiningStatistics.merge_shard`), and the time this process spent
        generating candidates, building the context and attaching the
        resulting nodes is added on top.  Summing per-shard times instead
        would overstate the level cost by up to the worker count.
        """
        backend_start = time.perf_counter()
        outcome = backend.run(context, candidates, costs)
        backend_elapsed = time.perf_counter() - backend_start

        level1 = graph.level1
        for node in outcome.nodes:
            graph.add_combination_node(node)
            # Entries returned by worker processes carry only their index
            # matrices; re-attach the coordinator's instance lists so the
            # lazy tuple views (and the next level's scalar path) resolve.
            for entry in node.patterns.values():
                entry.bind_sources(level1)
        stats.absorb_counters(outcome.stats)
        evaluation_seconds = outcome.stats.level_seconds.get(context.level, 0.0)
        overhead = max(0.0, (time.perf_counter() - level_start) - backend_elapsed)
        stats.level_seconds[context.level] = evaluation_seconds + overhead
        return bool(outcome.nodes)

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


def _support_can_change(
    candidate: Candidate,
    delta_ids: dict[EventKey, set[int]],
    newly_frequent: set[EventKey],
) -> bool:
    """Whether appending the delta can change this candidate's support set.

    A pattern over the candidate's events gains occurrences only inside delta
    sequences containing *all* of those events; a candidate involving a newly
    frequent event has no stored state at all (it was never generated) and
    may surface old-sequence patterns, so it must be evaluated in full either
    way.
    """
    if any(event in newly_frequent for event in candidate):
        return True
    shared: set[int] | None = None
    for event in candidate:
        ids = delta_ids.get(event)
        if not ids:
            return False
        shared = ids if shared is None else shared & ids
        if not shared:
            return False
    return True
