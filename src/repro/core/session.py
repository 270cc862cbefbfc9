"""Persistent mining sessions: explicit HTPGM level state plus incremental append.

Historically :meth:`HTPGM.mine` rebuilt all of its working state — level-1
instance lists, pair and combination node trees, the Hierarchical Pattern
Graph, the statistics — as per-call locals and threw most of it away.
A production deployment that keeps mining the same stream cannot afford that:
new time windows arrive continuously and re-mining the whole sequence database
from scratch repeats almost all of yesterday's work.

:class:`MiningSession` makes that state explicit and serialisable:

* :meth:`MiningSession.mine` runs the ordinary level-wise HTPGM search and
  *keeps* the constructed state — every event's instance lists (frequent or
  not), the full node trees with their occurrence evidence, the statistics;
* :meth:`MiningSession.append` folds new sequences into that state
  *incrementally*: level-1 instance lists are extended, and at every level
  a candidate whose events co-occur in a delta sequence is evaluated on the
  delta sequences only (the *delta pass*), then settled: its stored patterns
  take their delta rows and are re-admitted, and a pattern the old state
  did not store is dropped by a support bound.  Only a candidate the bound
  cannot settle, or one involving a newly frequent event, is evaluated over
  every sequence; every other node is reused as-is (re-checked against the
  new thresholds, never re-computed);
* :mod:`repro.io.session_io` saves and loads a session, so the mining state
  can outlive the process that built it.

One per-level method, :meth:`MiningSession._level`, serves both: it
generates a level's candidates, runs the delta pass over the touched ones
and settles them, evaluates the rest of the touched ones over every sequence
through one more ``backend.run``, re-admits the stored nodes of the
untouched ones and merges all of them in canonical candidate order.  A full
mine — and :meth:`MiningSession.resume` of a checkpointed one — is a merge
against an empty previous state, in which every frequent event is newly
frequent, so there is no delta pass and every candidate is evaluated.

The correctness contract (enforced by ``tests/test_session.py``) is exact:

    ``mine(D)`` followed by ``append(ΔD)`` produces the identical
    :class:`~repro.core.result.MiningResult` — patterns, supports,
    confidences, order — as ``mine(D ∪ ΔD)`` from scratch,

for every execution backend and every pruning mode, down to the occurrence
store.  The key monotonicity facts behind the delta rule: appending
sequences never lowers the absolute support threshold, never lowers an
event's support, and never adds occurrences to a pattern whose events do not
co-occur in a delta sequence.  An *untouched* pattern therefore keeps its
exact support and confidence and can only *fall out* of the frequent set
(threshold re-check, no re-evaluation).  A touched pattern the old state
stored keeps its old rows, which are its from-scratch rows, and gains the
delta rows after them, because delta sequence ids follow the old ones.  A
touched pattern it did not store had an old support below ``⌈σ·|D|⌉`` or a
confidence below δ, so its old support is bounded, and the bound plus its
delta support decides whether it can pass now
(:meth:`MiningSession._may_pass`).

:class:`HTPGM` remains the stable public miner; its :meth:`~HTPGM.mine` is a
thin wrapper that creates a session, runs the levels and builds the result.
Every session keeps the full occurrence store under every backend, so every
completed session — :class:`HTPGM`'s included — can be appended to and
saved.  A session restored from an interrupted checkpoint must be finished
with :meth:`MiningSession.resume` first.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterable
from dataclasses import replace
from itertools import combinations
from typing import NamedTuple

from ..exceptions import DataError, MiningError
from ..timeseries.sequences import SequenceDatabase, TemporalSequence
from . import faults
from .config import MiningConfig
from .engine import (
    Candidate,
    ExecutionBackend,
    LevelContext,
    LevelOutcome,
    admit_patterns,
    admits,
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
    needed event nodes (instance lists) keeps the payload minimal when
    filters or transitivity pruning have narrowed the candidate set.
    """
    needed = {event for candidate in candidates for event in candidate}
    return {event: graph.level1[event] for event in graph.level1 if event in needed}


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
        not: its per-sequence instance lists, whose keys are its sequences.
        Infrequent events must be retained because an append can push them
        over the (also growing) support threshold.  Empty until
        :meth:`mine`.
    graph:
        The Hierarchical Pattern Graph of the current state (level-1 nodes
        of the frequent events plus all surviving combination nodes).
    statistics:
        Work counters of the most recent operation (:meth:`mine` or
        :meth:`append`).  Append statistics count only the incremental work
        (see :class:`~repro.core.stats.MiningStatistics`); ``patterns_found``
        is always rewritten to describe the merged state.
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
        for sequence in database:
            # The ids index the instance table's columns (a negative one
            # would silently count as the last sequence).
            if not 0 <= sequence.sequence_id < len(database):
                raise DataError(
                    f"sequence id {sequence.sequence_id!r} is outside "
                    f"[0, {len(database)}): the ids must number the sequences"
                )
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
        last rows of the original database.  A candidate whose events all
        co-occur in a delta sequence is evaluated on the delta sequences
        only, then settled by :meth:`_settle`: stored patterns take their
        delta rows, unstored ones are dropped by a support bound.  Candidates
        the bound cannot settle, and those involving a newly frequent event,
        are evaluated over every sequence.  Both evaluations go through
        ``backend``, so appends parallelise like full mines; every other node
        is reused after a constant-time threshold re-check.  So an append
        costs about what its delta costs when the delta is small next to the
        gap between the old and new support thresholds.

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

        # ---- level 1: extend the instance lists with the delta scan
        level_start = time.perf_counter()
        delta_events = collect_events(delta_db)
        merged_events, delta_ids = self._merge_level1(delta_events)
        graph = HierarchicalPatternGraph(n_sequences=n_new)
        for key, node in merged_events.items():
            if node.support >= min_count:
                graph.add_event_node(node)
        previous = _PreviousState(
            self.graph,
            delta_ids,
            {key: node.support for key, node in self.graph.level1.items()},
            config.support_count(self.n_sequences),
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
            node = EventNode(key, event.instances_by_sequence)
            all_nodes[key] = node
            if node.support >= min_count:
                graph.add_event_node(node)
        stats.frequent_events = len(graph.level1)
        stats.patterns_found[1] = len(graph.level1)
        stats.level_seconds[1] = time.perf_counter() - level_start
        return all_nodes

    def _merge_level1(
        self, delta_events: dict[EventKey, TemporalEvent]
    ) -> tuple[dict[EventKey, EventNode], dict[EventKey, set[int]]]:
        """Merge the delta scan into the all-event level-1 state.

        Returns the merged nodes (the delta's events with their instance
        dicts extended) plus, for each event occurring in the delta, the set
        of delta sequence ids containing it — the raw material of the
        *touched candidate* test.
        """
        merged = dict(self.events)
        delta_ids: dict[EventKey, set[int]] = {}
        for key, delta in delta_events.items():
            node = merged.get(key)
            if node is None:
                if self.event_filter is not None and not self.event_filter(key):
                    continue
                node = EventNode(key, {})
            instances = {**node.instances_by_sequence, **delta.instances_by_sequence}
            merged[key] = EventNode(key, instances)
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
        previous = _PreviousState(empty, {}, {}, 0)
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

        * a candidate with a newly frequent event has no stored state, so it
          is evaluated over every sequence — against an empty previous state
          every candidate is;
        * a candidate whose events co-occur in a delta sequence goes through
          one *delta pass* (a ``backend.run`` that reads only the delta
          sequences) and is settled by :meth:`_settle`, or, when only a
          count over every sequence can tell, evaluated over every sequence
          after all;
        * every other candidate either re-admits its stored node of
          ``previous`` (supports and confidences of untouched patterns are
          unchanged, so :func:`~repro.core.engine.admit_patterns` re-checks
          each pattern in constant time against the grown thresholds), or
          provably mined nothing before and would mine nothing now.

        The candidates evaluated over every sequence go through one more
        ``backend.run`` (A-HTPGM's ``pair_filter`` already applied).  A
        backend may return its nodes in any order: the merge looks each up
        by its event key while it walks the canonical candidate order, so
        node order — and the result — is identical to a from-scratch run.
        Returns whether the level produced a node.  ``candidates_generated``
        and the Apriori counters count each candidate once; the
        relation-check counters count both runs' work.

        ``level_seconds`` is *evaluation time + coordinator overhead*: the
        backend reports each run's evaluation wall-clock (for parallel
        backends: the slowest shard, per :meth:`MiningStatistics.merge_shard`),
        and the time this process spent generating candidates, building the
        contexts, settling and merging the nodes is added on top.
        """
        level_start = time.perf_counter()
        if level == 2:
            generated = self._generate_pair_candidates(graph)
        else:
            generated = self._generate_combination_candidates(graph, stats, level)
        stored = previous.graph.levels.get(level, {})
        touched, delta, nodes = [], [], {}
        for candidate in generated:
            if any(event not in previous.supports for event in candidate):
                touched.append(candidate)
            elif _co_occur_in_delta(candidate, previous):
                touched.append(candidate)
                delta.append(candidate)
            else:
                key = tuple(sorted(candidate))
                node = self._readmit(stored.get(key), graph, min_count)
                if node is not None:
                    nodes[key] = node

        # One context, and one instance table, serves both runs.
        context = self._level_context(graph, level, min_count, touched)
        runs: list[tuple[LevelOutcome, float]] = []
        settled: set[Candidate] = set()
        if delta:
            delta_context = replace(context, delta_start=previous.graph.n_sequences)
            runs.append(self._run(backend, delta_context, delta, stats))
            supports = {event: node.support for event, node in graph.level1.items()}
            # Candidates Apriori pruned return no node: they are settled.
            survivors = {node.events: node for node in runs[-1][0].nodes}
            for candidate in delta:
                key = tuple(sorted(candidate))
                node = survivors.get(key)
                if node is not None:
                    node = self._settle(
                        node, stored.get(key), supports, min_count, previous
                    )
                    if node is None:
                        continue
                    if node.patterns:
                        nodes[key] = node
                settled.add(candidate)
        evaluate = [candidate for candidate in touched if candidate not in settled]
        if evaluate:
            runs.append(self._run(backend, context, evaluate, stats))
            # Evaluated and settled or re-admitted keys are disjoint.
            nodes.update((node.events, node) for node in runs[-1][0].nodes)
        # The delta pass already counted the candidates it could not settle.
        stats.bump(stats.candidates_generated, level, len(settled) - len(delta))

        for candidate in generated:
            node = nodes.get(tuple(sorted(candidate)))
            if node is None:
                continue
            graph.add_combination_node(node)

        # ``patterns_found`` describes the merged level (re-admitted, settled
        # and evaluated), not just the evaluation the counters above recorded.
        stats.patterns_found.pop(level, None)
        found = sum(len(node.patterns) for node in nodes.values())
        stats.bump(stats.patterns_found, level, found)
        evaluation_seconds = sum(
            outcome.stats.level_seconds.get(level, 0.0) for outcome, _ in runs
        )
        elapsed = time.perf_counter() - level_start
        overhead = max(0.0, elapsed - sum(seconds for _, seconds in runs))
        stats.level_seconds[level] = evaluation_seconds + overhead
        return bool(nodes)

    def _run(
        self,
        backend: ExecutionBackend,
        context: LevelContext,
        candidates: list[Candidate],
        stats: MiningStatistics,
    ) -> tuple[LevelOutcome, float]:
        """One ``backend.run`` over ``candidates``, its counters absorbed
        into ``stats``; returns the outcome and the call's wall-clock.  How
        the candidates are cut, and whether that needs cost estimates, is
        the backend's to decide."""
        started = time.perf_counter()
        outcome = backend.run(context, candidates)
        elapsed = time.perf_counter() - started
        stats.absorb_counters(outcome.stats)
        return outcome, elapsed

    def _settle(
        self,
        found: CombinationNode,
        stored: CombinationNode | None,
        supports: dict[EventKey, int],
        min_count: int,
        previous: _PreviousState,
    ) -> CombinationNode | None:
        """A delta-passed candidate's node under the new thresholds (its
        patterns may be empty), or ``None`` when only an evaluation over
        every sequence can tell.

        ``found`` holds the delta rows of every pattern the delta pass found
        and ``supports`` the new event supports.  A stored pattern's rows in
        old sequences are its from-scratch rows, because its parents' are
        (by induction), and its delta rows come from the parents' delta
        rows; delta sequence ids follow the old ones, so the two blocks
        concatenate into the from-scratch entry, which
        :func:`~repro.core.engine.admit_patterns` re-admits.  A pattern the
        old state did not store must be proven unable to pass
        (:meth:`_may_pass`).  So only stored patterns survive; each occurs in
        an old sequence, so its stored order is its from-scratch first-hit
        order.
        """
        if stored is None and not found.patterns:
            return found
        patterns = dict(stored.patterns) if stored is not None else {}
        for pattern, delta in found.patterns.items():
            entry = patterns.get(pattern)
            if entry is not None:
                patterns[pattern] = entry.followed_by(delta)
            elif self._may_pass(pattern, delta.support, supports, min_count, previous):
                return None
        return CombinationNode(
            events=found.events,
            patterns=admit_patterns(patterns, supports.get, min_count, self.config),
        )

    def _may_pass(
        self,
        pattern: TemporalPattern,
        delta_support: int,
        supports: dict[EventKey, int],
        min_count: int,
        previous: _PreviousState,
    ) -> bool:
        """Whether a pattern the old state did not store, found in
        ``delta_support`` delta sequences, might pass the new thresholds.

        Let ``mc_old`` be the old support threshold and ``ES_D`` the largest
        old support among the pattern's events (none is newly frequent).  An
        unstored pattern failed admission, or its node failed Apriori, or a
        sub-pattern failed: support and confidence are anti-monotone (Lemmas
        2–3), a sub-pattern's ``ES_D`` is no larger, and Lemmas 4–7 prune
        only patterns holding a failed level-2 pattern.  Either way its old
        support is below ``mc_old`` or its confidence below δ, so it is at
        most ``max(mc_old − 1, s_conf)``, where ``s_conf`` is the largest
        support failing the confidence test over ``ES_D``
        (:func:`_confidence_floor`).  Adding the delta support bounds its
        support over every sequence; the pattern might pass only if that
        bound passes :func:`~repro.core.engine.admits`.
        """
        old_max = max(previous.supports[event] for event in pattern.events)
        bound = max(previous.min_count - 1, _confidence_floor(old_max, self.config))
        new_max = max(supports[event] for event in pattern.events)
        return admits(bound + delta_support, new_max, min_count, self.config)

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
        return CombinationNode(events=node.events, patterns=patterns)

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
        shard — serial, forked or spawned — and for the process backend's
        cost estimates.

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
            n_sequences=graph.n_sequences,
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
    """What a level merges against: the graph before the delta (its
    ``n_sequences`` is the first delta sequence id), the delta sequences
    holding each event, and the old graph's support threshold and the
    supports of its frequent events — a frequent event without one is newly
    frequent.  A full mine's previous state is an empty graph, in which every
    frequent event is newly frequent."""

    graph: HierarchicalPatternGraph
    delta_ids: dict[EventKey, set[int]]
    supports: dict[EventKey, int]
    min_count: int


def _co_occur_in_delta(candidate: Candidate, previous: _PreviousState) -> bool:
    """Whether the candidate's events all occur in one delta sequence: only
    then can a pattern over them gain occurrences from the delta."""
    shared: set[int] | None = None
    for event in candidate:
        ids = previous.delta_ids.get(event)
        if not ids:
            return False
        shared = ids if shared is None else shared & ids
        if not shared:
            return False
    return True


def _confidence_floor(max_event_support: int, config: MiningConfig) -> int:
    """The largest support whose confidence over ``max_event_support`` (> 0)
    fails the admission rule, i.e. the largest ``s`` with ``s /
    max_event_support < δ``.  Found through :func:`admits` itself, so float
    rounding cannot make the bound and the rule disagree."""
    support = min(
        max_event_support, math.ceil(config.min_confidence * max_event_support)
    )
    while support > 0 and admits(support - 1, max_event_support, 0, config):
        support -= 1
    while not admits(support, max_event_support, 0, config):
        support += 1
    return support - 1
