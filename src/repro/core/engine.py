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
    functions, and concatenates the per-worker :class:`CombinationNode`
    lists and :class:`MiningStatistics` (counters add, wall-clock merged as
    max-of-shards); the session merges nodes by their event key, so their
    order is free.  Where ``fork`` exists a fresh pool is forked per batch
    and inherits the level context through copy-on-write memory; otherwise
    (or under an explicit non-fork ``start_method``) a persistent pool
    receives the context pickled with each shard.

*Cost-balanced sharding.*  :meth:`ProcessPoolBackend.run` estimates every
candidate's evaluation cost (:func:`candidate_costs`; level 2: instance-pair
counts over shared sequences; level k: parent occurrence counts × new-event
instance counts), reading the arrays admission reads, whenever its CPU
split or its memory governor will use the estimates.  Candidates are then
assigned to shards by greedy LPT (longest processing time first, ties broken
by candidate index), so skewed levels no longer wait on one overloaded
shard; the mined pattern set and the golden fixtures stay byte-identical to
a serial run.

Under every backend, :func:`evaluate_candidates` admits candidates
:data:`_ADMISSION_CHUNK` at a time as one matrix of instance-table rows —
Apriori over the table's packed bitmap words, one ``searchsorted`` for the
decompositions' parents, Lemma 5 as one gather — and runs relation
classification through the kernel of :mod:`repro.core.relation_kernel` over
the level's flat :class:`~repro.core.hpg.InstanceTable`
(``LevelContext.instances``), every level alike: segmented passes over
:data:`_EXTENSION_BATCH_ROWS` parent rows of many candidates
(:class:`_ExtensionBatch`) — at level 2 a parent row is one event instance,
at level ``k`` a stored occurrence — chunked by :data:`_PASS_CHUNK_BYTES`.
Every backend produces byte-identical nodes and counters, down to the two
arrays of :class:`~repro.core.hpg.PatternEntry`, and so does the scalar
reference the tests keep (``tests/reference_miner.py``).  Workers return
every entry's full arrays, so a process-engine graph holds the same
occurrence store as a serial one.  An entry is its pattern, one sequence id
per row and its row block, and refers to no instance list, so nothing is
bound or rebound on either side of the process boundary: the pass reads
only arrays.

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
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, NamedTuple, Protocol, TypeVar, runtime_checkable

import numpy as np

from ..exceptions import (
    ConfigurationError,
    MemoryBudgetExceeded,
    MiningError,
    RepresentationOverflowError,
)
from . import faults, hpg, resources
from .config import MiningConfig, RetryPolicy
from .events import EventKey
from .hpg import CombinationNode, EventNode, InstanceTable, PatternEntry
from .patterns import TemporalPattern
from .relation_kernel import classify_pairs, expand_windows
from .relations import RELATIONS_BY_CODE
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
      candidate: the instance lists ``instances`` is built from (the pass
      reads arrays only; the tests' scalar reference resolves the parent
      rows it extends against them);
    * ``n_sequences`` — |DSEQ|, the width of the table's ``count`` matrix
      and of its bitmap words;
    * ``parents`` — the frequent ``(k-1)``-combination nodes, keyed by their
      canonical event tuple (empty at level 2);
    * ``pair_patterns`` — the frequent 2-event pattern set per pair node, used
      by the transitivity checks of Lemmas 4–7 (empty when transitivity
      pruning is off or at level 2).  Shipping only the pattern *identities*
      instead of the full pair nodes keeps the per-worker payload light;
    * ``instances`` — the flat :class:`~repro.core.hpg.InstanceTable` of the
      ``level1`` events with the Lemma 4–7 tables and the packed bitmap
      words of the Apriori checks (built at construction).

    ``delta_start`` turns the evaluation into an append's *delta pass*: the
    Apriori checks still read the bits of every sequence, but relation checks
    read only the parent rows and new-event instances of sequences with an id
    of at least ``delta_start``, and every pattern found is kept, admitted or
    not, with its delta rows — raw evidence for
    :meth:`~repro.core.session.MiningSession._level` to settle.  A node is
    returned for every candidate that survives Apriori, even an empty one.
    ``0`` (the default) evaluates over every sequence.

    ``memory_share_bytes`` arms the worker-side memory watchdog
    (:func:`repro.core.resources.shard_watchdog`): when set — the process
    backend stamps one worker's share of ``MiningConfig.memory_budget_bytes``
    here before shipping the context — a worker polls its resident-set growth
    between candidates and aborts the shard with
    :class:`~repro.exceptions.MemoryBudgetExceeded` once the share is spent,
    letting the coordinator split the shard instead of eating a SIGKILL.
    ``chunk_bytes`` caps the pass's chunks below :data:`_PASS_CHUNK_BYTES`
    once the backend's memory recovery has halved it
    (:meth:`ProcessPoolBackend._shrink_kernel_chunks`); ``None`` otherwise.
    """

    level: int
    config: MiningConfig
    min_count: int
    level1: dict[EventKey, EventNode]
    n_sequences: int
    parents: dict[tuple[EventKey, ...], CombinationNode] = field(default_factory=dict)
    pair_patterns: dict[tuple[EventKey, EventKey], frozenset[TemporalPattern]] = field(
        default_factory=dict
    )
    memory_share_bytes: int | None = None
    instances: InstanceTable | None = None
    delta_start: int = 0
    chunk_bytes: int | None = None

    def event_support(self, event: EventKey) -> int:
        """Support of a frequent event (0 when absent, mirroring the graph),
        read off the table (``InstanceTable.support``), so evaluation reads
        no instance list."""
        row = self.instances.index.get(event)
        return 0 if row is None else int(self.instances.support[row])

    def __post_init__(self) -> None:
        if self.instances is None:
            self.instances = InstanceTable(
                self.level1, self.n_sequences, self.pair_patterns
            )


@dataclass
class LevelOutcome:
    """What evaluating a batch of candidates produced.

    ``nodes`` holds only combination nodes that retained at least one
    frequent, confident pattern (:func:`evaluate_candidates` returns them in
    candidate order, a backend in any order); ``stats`` holds the work
    counters bumped during evaluation plus the evaluation wall-clock in
    ``level_seconds`` (already max-merged across shards for parallel runs).
    """

    nodes: list[CombinationNode]
    stats: MiningStatistics


# --------------------------------------------------------------------------- evaluation
def evaluate_candidates(
    context: LevelContext, candidates: Sequence[Candidate]
) -> LevelOutcome:
    """Evaluate candidates in order against a level context (pure function).

    This is the shared worker body of every backend: the serial backend calls
    it directly, the process-pool backend calls it once per shard in each
    worker process.  Given the same context and candidates it always produces
    the same nodes and counters, which is what makes backend parity testable.
    Candidates of every level go through one :class:`_ExtensionBatch`.
    """
    started = time.perf_counter()
    stats = MiningStatistics()
    nodes: list[CombinationNode] = []
    batch = _ExtensionBatch(context, stats, nodes)
    batch.admit(candidates)
    batch.flush()
    stats.level_seconds[context.level] = time.perf_counter() - started
    return LevelOutcome(nodes=nodes, stats=stats)


#: Candidates admitted per step (:meth:`_ExtensionBatch.admit` and
#: :func:`candidate_costs`): a step maps its candidates to one ``(n, k)``
#: matrix of instance-table rows and runs Apriori, the parent lookup and
#: Lemma 5 as array operations over it, so its arrays (``n`` joint bitmaps
#: of ``⌈|DSEQ|/64⌉`` words among them) stay bounded.  Results never depend
#: on it.  Read at call time, so tests monkeypatch it.
_ADMISSION_CHUNK = 1024


def candidate_chunks(table: InstanceTable, candidates: Sequence[Candidate]):
    """Yield ``(first, rows)`` per admission step: ``rows[i]`` holds the
    table rows of the events of ``candidates[first + i]``, in candidate
    order."""
    index, step = table.index, _ADMISSION_CHUNK
    for first in range(0, len(candidates), step):
        chunk = candidates[first : first + step]
        events = chain.from_iterable(chunk)
        flat = np.fromiter(map(index.__getitem__, events), np.intp)
        yield first, flat.reshape(len(chunk), -1)


def apriori(context: LevelContext, rows: np.ndarray):
    """Lemmas 2–3 for candidates given as ``(n, k)`` table rows.

    Returns the joint supports (the population count of the AND of the
    rows' packed bitmap words, ``InstanceTable.bitmaps``), the largest event
    support of each candidate (``InstanceTable.support``), and the two prune
    masks: Lemma 2 prunes a support below ``min_count``, Lemma 3 then a
    ``support / max event support`` below ``min_confidence``, divided in
    ``float64`` as Python divides two ints.  Without Apriori pruning both
    masks are all False.
    """
    bitmaps = context.instances.bitmaps
    words = bitmaps[rows[:, 0]]
    for column in rows.T[1:]:
        words &= bitmaps[column]
    support = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    max_support = context.instances.support[rows].max(axis=1)
    low = np.zeros(len(rows), dtype=bool)
    weak = low.copy()
    config = context.config
    if config.pruning.uses_apriori:
        low = support < context.min_count
        with np.errstate(divide="ignore", invalid="ignore"):
            weak = ~low & (support / max_support < config.min_confidence)
    return support, max_support, low, weak


def decompositions(rows: np.ndarray) -> np.ndarray:
    """``(n, k, k - 1)`` parent rows of ``(n, k)`` candidate rows: entry
    ``[i, j]`` is row ``i`` without column ``j``, the parent of the
    decomposition whose new event is column ``j``."""
    k = rows.shape[1]
    return rows[:, np.nonzero(~np.eye(k, dtype=bool))[1].reshape(k, k - 1)]


class _RowIndex:
    """Exact lookup of integer rows among a fixed set of distinct rows.

    A row's columns fold, left to right, into one ``int64`` key of digits
    base ``n_values``.  Where the whole row would not fit, the fold takes
    steps: each step's key is the rank of the row's prefix among the
    indexed prefixes followed by as many further columns as fit below
    ``2**63``, so no key overflows for any value count or width.  One
    ``searchsorted`` per step finds a query's prefix; a query whose prefix
    is no indexed row's is absent.
    """

    def __init__(self, rows: np.ndarray, n_values: int) -> None:
        self.n_values = n_values
        self.steps: list[tuple[int, int, np.ndarray]] = []
        ranks, n_ranks, column = np.zeros(len(rows), np.int64), 1, 0
        while len(rows) and column < rows.shape[1]:
            stop = column + 1
            while (
                stop < rows.shape[1]
                and n_ranks * n_values ** (stop + 1 - column) < 1 << 63
            ):
                stop += 1
            keys = self._keys(ranks, rows[:, column:stop])
            unique, ranks = np.unique(keys, return_inverse=True)
            self.steps.append((column, stop, unique))
            n_ranks, column = len(unique), stop
        # The rows are distinct, so the last step's ranks number them.
        self.positions = np.empty(len(rows), dtype=np.intp)
        self.positions[ranks] = np.arange(len(rows))

    def _keys(self, ranks: np.ndarray, digits: np.ndarray) -> np.ndarray:
        width = digits.shape[1]
        radix = np.array([self.n_values**p for p in range(width - 1, -1, -1)])
        return ranks * self.n_values**width + digits.astype(np.int64) @ radix

    def find(self, queries: np.ndarray) -> np.ndarray:
        """Position of each query row among the indexed rows; -1 if absent."""
        if not len(self.positions):
            return np.full(len(queries), -1, dtype=np.intp)
        found = np.ones(len(queries), dtype=bool)
        ranks = np.zeros(len(queries), dtype=np.int64)
        for column, stop, unique in self.steps:
            keys = self._keys(ranks, queries[:, column:stop])
            ranks = np.minimum(np.searchsorted(unique, keys), len(unique) - 1)
            found &= unique[ranks] == keys
        return np.where(found, self.positions[ranks], -1)


def parent_index(context: LevelContext) -> tuple[list[CombinationNode], _RowIndex]:
    """The level-``k`` parents whose events all have table rows, and an
    index of their event rows (canonical event order, so ascending)."""
    index = context.instances.index
    nodes = [
        node
        for key, node in context.parents.items()
        if all(event in index for event in key)
    ]
    rows = np.array(
        [[index[event] for event in node.events] for node in nodes], dtype=np.intp
    ).reshape(len(nodes), context.level - 1)
    return nodes, _RowIndex(rows, len(index))


# --------------------------------------------------------------------------- cost model
def candidate_costs(
    context: LevelContext, candidates: list[Candidate]
) -> list[float]:
    """Per-candidate evaluation cost estimates of one level (every cost at
    least 1), the weights of :meth:`ProcessPoolBackend.run`'s split."""
    if context.level == 2:
        return _estimate_pair_costs(context, candidates)
    return _estimate_combination_costs(context, candidates)


def _estimate_pair_costs(
    context: LevelContext, candidates: list[Candidate]
) -> list[float]:
    """Per-candidate evaluation cost estimates for level 2.

    The dominant cost of a surviving pair is relation classification over the
    chronologically ordered instance pairs in shared sequences, so the
    estimate is the product of the two instance counts summed over the shared
    sequences from ``delta_start`` on (the self-pair analogue: instances
    choose two).  Every such sum is one entry of the Gram matrix of the
    instance table's ``count`` matrix (an exact integer product), since a
    sequence one event lacks contributes 0.  Pairs the Apriori checks of
    Lemmas 2–3 discard stop after one bitmap intersection, so they are
    estimated at unit cost; the estimator runs the evaluation's own checks
    (:func:`apriori`) over the same packed bitmaps, one admission chunk of
    candidates at a time.
    """
    table = context.instances
    counts = table.count[:, context.delta_start :]
    products = counts @ counts.T
    # A self pair's instances choose two: (sum c^2 - sum c) / 2.
    chosen = (np.diagonal(products) - counts.sum(axis=1)) // 2
    costs: list[float] = []
    for _, rows in candidate_chunks(table, candidates):
        support, _, low, weak = apriori(context, rows)
        first, second = rows.T
        pairs = np.where(first == second, chosen[first], products[first, second])
        doomed = low | weak | (support == 0)
        costs.extend(np.where(doomed, 1, np.maximum(pairs, 1)).astype(float).tolist())
    return costs


def _estimate_combination_costs(
    context: LevelContext, candidates: list[Candidate]
) -> list[float]:
    """Per-candidate evaluation cost estimates for level ``k >= 3``.

    Evaluating a combination extends every stored occurrence of every parent
    ``(k-1)``-node with the instances of the remaining event, so the estimate
    sums, over each (parent, new event) decomposition, the per-sequence
    product of parent occurrence counts and new-event instance counts.  The
    decompositions' parents are found one admission chunk at a time, as the
    evaluation finds them (:func:`parent_index`).  Every parent's
    per-sequence occurrence counts come from one ``np.unique`` over the
    entries' (parent, sequence) row keys; a chunk's decompositions of one
    parent are one product of the new events' rows of the instance table's
    ``count`` matrix with those counts.  Every sum is an exact integer.  A
    delta pass counts only the sequences from ``delta_start`` on.
    """
    table, level = context.instances, context.level
    nodes, index = parent_index(context)
    sequences, counts, bounds = _occurrence_counts(
        nodes, context.delta_start, table.count.shape[1]
    )
    costs = np.zeros(len(candidates), dtype=np.int64)
    for first, rows in candidate_chunks(table, candidates):
        rows = np.sort(rows, axis=1)
        parents = index.find(decompositions(rows).reshape(-1, level - 1))
        order = np.argsort(parents, kind="stable")
        groups = np.flatnonzero(np.r_[True, np.diff(parents[order]) != 0, True])
        for a, b in zip(groups[:-1].tolist(), groups[1:].tolist()):
            parent = parents[order[a]]
            if parent < 0:
                continue
            runs = slice(bounds[parent], bounds[parent + 1])
            decomposed = order[a:b]
            new_rows = rows.ravel()[decomposed, None]
            products = table.count[new_rows, sequences[runs]] @ counts[runs]
            costs[first + decomposed // level] += products
    return np.maximum(costs, 1).astype(float).tolist()


def _occurrence_counts(
    nodes: list[CombinationNode], start: int, n_sequences: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stored occurrences of every node per sequence from ``start`` on:
    sequence ids and row counts, node by node (ascending sequences), and
    each node's bounds in them."""
    entries = [(n, e) for n, node in enumerate(nodes) for e in node.patterns.values()]
    empty = [np.zeros(0, dtype=np.int64)]
    owners = np.repeat(
        np.array([n for n, _ in entries], dtype=np.int64),
        [len(e.sequences) for _, e in entries],
    )
    sequences = np.concatenate(empty + [e.sequences for _, e in entries])
    delta = sequences >= start
    keys, counts = np.unique(
        owners[delta] * n_sequences + sequences[delta], return_counts=True
    )
    bounds = np.searchsorted(keys // n_sequences, np.arange(len(nodes) + 1))
    return keys % n_sequences, counts, bounds


def _first_row(entry: PatternEntry, delta_start: int) -> int:
    """Position of ``entry``'s first row in a sequence from ``delta_start`` on."""
    return int(np.searchsorted(entry.sequences, delta_start)) if delta_start else 0


#: Parent rows (level-2 instances, level-``k`` occurrences) the vectorized
#: evaluation queues, whole candidates at a time, before it evaluates them in
#: one NumPy pass (:class:`_ExtensionBatch`).  A few thousand rows amortize a
#: pass's fixed cost; larger batches only grow its temporary arrays.  Results
#: never depend on it.  Read at call time, so tests monkeypatch it.
_EXTENSION_BATCH_ROWS = 4096

#: Byte budget of one chunk of a pass: the pair masks, pair indices and
#: gathered ``float64`` endpoint blocks that grow with a pass's window pairs,
#: priced by :func:`_bytes_per_pair`.  A pass whose windows hold more pairs is
#: cut into order-preserving chunks, which bounds its working set on dense
#: ``tmax=None`` workloads.  Results never depend on it.  Read at call time,
#: so tests monkeypatch it; memory recovery halves it per level
#: (``LevelContext.chunk_bytes``).
_PASS_CHUNK_BYTES = 64 * 1024 * 1024


def _bytes_per_pair(level: int) -> int:
    """Transient bytes of one level-``level`` pair of the vectorized pass (a
    parent row and a new instance, classified at ``level - 1`` positions),
    fitted to ``tracemalloc`` peaks of whole passes over dense sequences
    (about 175, 200, 245 and 300 bytes at levels 2 to 5).  Sizes both the
    pass's chunks and the governor's bytes per unit of candidate cost."""
    return 104 + 52 * (level - 1)


def _anchor_chunks(lo: np.ndarray, hi: np.ndarray, max_pairs: int):
    """Contiguous anchor ranges whose expanded pair counts fit the mask budget.

    Yields ``(start, stop)`` anchor index ranges covering ``[0, len(lo))`` in
    order; each range expands to at most ``max_pairs`` pairs (a single anchor
    whose window alone exceeds the budget forms its own over-budget range, so
    progress is always made).  Chunking at anchor granularity preserves the
    anchor-major enumeration order, so the per-chunk results concatenate to
    the unchunked ones.
    """
    n_anchors = len(lo)
    if n_anchors == 0:
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


class _Windows:
    """Where a parent row's successors lie among the new event's instances
    in one (event, sequence) group of the instance table.

    ``latest[row, sequence]`` is the start of the group's last instance,
    ``-inf`` for an empty group: a parent row whose last instance starts
    later has an empty window, so the pass drops it before it gathers the
    row's other columns.  ``keys`` holds one ``int64`` per table instance,
    ``group * radix + rank``: ``rank`` is the position of the instance's
    start among the table's ``distinct`` starts and ``radix`` is one more
    than their number.  Groups ascend in table order and starts ascend
    inside a group, so the keys are sorted, and one ``searchsorted`` over
    them finds a start's place inside each query's own group, as a search
    of that group's starts would.
    """

    def __init__(self, table: InstanceTable) -> None:
        count = table.count
        self.distinct, self.ranks = np.unique(table.starts, return_inverse=True)
        self.radix = len(self.distinct) + 1
        if count.size * self.radix > np.iinfo(np.int64).max:
            raise RepresentationOverflowError(
                f"{count.size} (event, sequence) groups of {len(self.distinct)} "
                "distinct starts do not fit the pass's int64 window keys"
            )
        occupied = count > 0
        self.latest = np.full(count.shape, -np.inf)
        self.latest[occupied] = table.starts[(table.offset + count - 1)[occupied]]
        groups = np.repeat(np.arange(count.size), count.ravel())
        self.keys = groups * self.radix + self.ranks

    def extends(self, new_rows, sequences, last_starts) -> np.ndarray:
        """Rows with an instance of their new event in their sequence that
        starts no earlier than their last instance (a tie may succeed)."""
        return self.latest[new_rows, sequences] >= last_starts

    def bounds(self, groups, last, first_starts, tmax, stop):
        """``[lo, hi)`` table positions of each row's window in its group
        ``new row * n_sequences + sequence``: successors start no earlier
        than the row's last instance (table position ``last``) and, under a
        finite ``tmax``, no later than ``bound = first start + tmax +
        4 * (spacing(|first start + tmax|) + spacing(tmax))``; ``stop`` is
        each group's end.

        The exact tmax mask passes an end only if ``end - first start``
        rounds to at most tmax, so the end is below ``first start + tmax +
        spacing(tmax) / 2``; the computed sum is off by at most
        ``spacing(|bound|)``, and the slack covers both errors.
        """
        lo = np.searchsorted(self.keys, groups * self.radix + self.ranks[last])
        if tmax is None or not math.isfinite(tmax):
            return lo, stop
        bound = first_starts + tmax
        bound += 4 * (np.spacing(np.abs(bound)) + np.spacing(tmax))
        # Rank of the first distinct start past the bound: the window ends
        # at the group's first instance of that rank or more.
        past = np.searchsorted(self.distinct, bound, "right")
        return lo, np.searchsorted(self.keys, groups * self.radix + past)


def _pair_groups(jobs: np.ndarray, codes: np.ndarray):
    """Group pairs (in enumeration order) by job and relation codes.

    A pair's key is its job followed by its codes as base-3 digits; before
    a digit that would take the keys past ``2**63``, the key so far becomes
    its rank among the pass's keys (the :class:`_RowIndex` rule), so no key
    overflows.  One stable ``argsort`` brings equal keys together, each run
    of equal keys in enumeration order, so a run's head is its group's
    first hit.  Returns ``(order, first_hit, sizes)``: the pairs of every
    group, groups in first-hit order, and each group's first pair and size.
    """
    base = len(RELATIONS_BY_CODE)
    keys, n_keys = jobs.astype(np.int64), int(jobs.max()) + 1
    for column in codes.T:
        if n_keys * base > 1 << 63:
            unique, keys = np.unique(keys, return_inverse=True)
            n_keys = len(unique)
        keys = keys * base + column
        n_keys *= base
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    heads = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    first_hit = order[heads]
    by_hit = np.argsort(first_hit)
    sizes = np.diff(np.r_[heads, len(keys)])[by_hit]
    shift = np.repeat(heads[by_hit] - (np.cumsum(sizes) - sizes), sizes)
    return order[np.arange(len(keys)) + shift], first_hit[by_hit], sizes


class _ParentRows(NamedTuple):
    """A parent node's stored rows, stacked once per shard.

    ``index_rows`` holds the entries' row blocks, entry by entry, and
    ``owners`` each row's ``(entry position, sequence)``, the sequence read
    off its entry's ``sequences``.  At level 2 the parent is one event: a
    single one-event pattern whose one-column rows are the event's instance
    list positions.
    """

    #: The patterns of the parent's entries with stored rows.
    patterns: list[TemporalPattern]
    #: ``(len(patterns), k - 1)`` table rows of each pattern's events.
    events: np.ndarray
    index_rows: np.ndarray
    owners: np.ndarray


class _Queued(NamedTuple):
    """Queued (node, new event, parent) decompositions, one entry of each
    array per decomposition, in candidate order."""

    #: Position of the decomposition's node in ``_ExtensionBatch.pending``.
    node: np.ndarray
    #: Its parent stack: a level-``k`` parent's position in
    #: ``_ExtensionBatch.parent_nodes``, at level 2 the parent event's row.
    parent: np.ndarray
    #: Table row of the new event.
    new: np.ndarray
    #: The level-2 orientation whose parent is the candidate's second event.
    flipped: np.ndarray
    #: Largest support among the node's events (admission's denominator).
    support: np.ndarray


class _ExtensionBatch:
    """Vectorized growth (Alg. 1 lines 6–20) across candidates of one level.

    :meth:`admit` takes candidates :data:`_ADMISSION_CHUNK` at a time and
    runs, on each chunk's ``(n, k)`` matrix of table rows, the Apriori
    checks (:func:`apriori`), at level ``k`` the parent lookup of every
    (candidate, new event) decomposition (one :class:`_RowIndex` search) and
    Lemma 5 (one gather from ``has_pair``).  It queues each survivor's
    decompositions — at level 2, one per orientation of the pair, whose
    parent is one event's instances — as arrays, and only survivors that
    queue one get a :class:`CombinationNode`: a candidate that queues no
    decomposition can store no pattern, so it is not kept pending.  Once
    :data:`_EXTENSION_BATCH_ROWS` rows are queued — counted between
    candidates, so no candidate spans two passes — :meth:`flush` evaluates
    them in one pass and keeps the queued nodes in candidate order.
    The pass is the scalar reference's per-candidate loops batched: the
    same pairs and gates, Lemmas 4–7 as table lookups (level ``k`` only),
    the scalar loop's early-exit counters rebuilt from each pair's first
    failing position, and one stored row block per pattern, patterns in
    first-hit order and each block's sequences ascending — skipping
    patterns whose (complete) support :func:`admit_patterns` would reject.
    It first gathers only each parent row's last start and drops the rows
    whose successor window is empty (:class:`_Windows`), which classify no
    pair, and groups its hits with one sort (:func:`_pair_groups`).
    A delta pass (``LevelContext.delta_start``) stacks only delta rows,
    stores every pattern it finds and keeps every Apriori survivor.
    """

    def __init__(
        self, context: LevelContext, stats: MiningStatistics, nodes: list
    ) -> None:
        self.context, self.stats, self.nodes = context, stats, nodes
        self.table = table = context.instances
        self.transitivity = (
            context.level >= 3 and context.config.pruning.uses_transitivity
        )
        #: Event key of each table row.
        self.events = list(table.index)
        self.windows = _Windows(table)
        self.watchdog = resources.shard_watchdog(context)
        self.parent_nodes: list[CombinationNode] = []
        if context.level >= 3:
            self.parent_nodes, self.parent_index = parent_index(context)
        n_parents = len(self.events) if context.level == 2 else len(self.parent_nodes)
        #: Parent stacks by parent id, built on first use.
        self.stacks: dict[int, _ParentRows | None] = {}
        #: Patterns and rows of each parent's stack (0 until built, and for
        #: an absent parent: id -1 reads the last row).
        self.sizes = np.zeros((n_parents + 1, 2), dtype=np.int64)
        self.queue: list[_Queued] = []
        self.pending: list[CombinationNode] = []
        self.rows = 0

    def _parent_rows(self, parent: CombinationNode) -> _ParentRows | None:
        """A level-``k`` parent's stack, built from the rows of sequences
        from ``delta_start`` on; ``None`` when no entry has any."""
        index, start = self.table.index, self.context.delta_start
        tails = [(entry, _first_row(entry, start)) for entry in parent.patterns.values()]
        tails = [(entry, first) for entry, first in tails if first < len(entry.rows)]
        if not tails:
            return None
        sequences = [entry.sequences[first:] for entry, first in tails]
        owners = np.column_stack(
            (
                np.repeat(np.arange(len(tails)), list(map(len, sequences))),
                np.concatenate(sequences),
            )
        )
        patterns = [entry.pattern for entry, _ in tails]
        events = [[index[e] for e in pattern.events] for pattern in patterns]
        index_rows = np.concatenate([entry.rows[first:] for entry, first in tails])
        return _ParentRows(patterns, np.array(events), index_rows, owners)

    def _event_rows(self, event: EventKey) -> _ParentRows:
        """A level-2 parent: ``event``'s instances in sequences from
        ``delta_start`` on as one-column rows of list positions, under a
        one-event pattern."""
        table, start = self.table, self.context.delta_start
        row = table.index[event]
        sequences = np.flatnonzero(table.count[row, start:]) + start
        counts = table.count[row, sequences]
        positions = np.arange(counts.sum()) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        pattern = TemporalPattern(events=(event,), relations=())
        owners = np.zeros((len(positions), 2), dtype=np.int64)
        owners[:, 1] = np.repeat(sequences, counts)
        return _ParentRows(
            [pattern], np.array([[row]]), positions.astype(np.int32)[:, None], owners
        )

    def _sizes(self, parents: np.ndarray) -> np.ndarray:
        """``parents.shape + (2,)``: the patterns and rows of each parent's
        stack, building the stacks not built yet (zeros for -1, absent)."""
        for parent in np.unique(parents[parents >= 0]).tolist():
            if parent not in self.stacks:
                if self.context.level == 2:
                    stack = self._event_rows(self.events[parent])
                else:
                    stack = self._parent_rows(self.parent_nodes[parent])
                self.stacks[parent] = stack
                if stack is not None:
                    self.sizes[parent] = len(stack.patterns), len(stack.index_rows)
        return self.sizes[parents]

    def admit(self, candidates: Sequence[Candidate]) -> None:
        """Admit candidates in order, :data:`_ADMISSION_CHUNK` at a time,
        running a pass whenever enough rows are queued."""
        for first, rows in candidate_chunks(self.table, candidates):
            if self.watchdog is not None:
                self.watchdog.check(len(rows))
            self._admit(candidates[first : first + len(rows)], rows)

    def _admit(self, candidates: Sequence[Candidate], rows: np.ndarray) -> None:
        context, stats, level = self.context, self.stats, self.context.level
        support, max_support, low, weak = apriori(context, rows)
        stats.bump(stats.candidates_generated, level, len(rows))
        stats.bump(stats.pruned_support, level, int(low.sum()))
        stats.bump(stats.pruned_confidence, level, int(weak.sum()))
        alive = np.flatnonzero(~(low | weak) & (support > 0))
        if level == 2:
            # Each orientation finds the pairs whose chronologically first
            # instance is its parent event's; a self pair has one.
            pairs = rows[alive]
            parents, new = pairs.ravel(), pairs[:, ::-1].ravel()
            flipped = np.tile([False, True], len(pairs))
            queued = ~flipped | (parents != new)
        else:
            new = np.sort(rows[alive], axis=1)
            parent_rows = decompositions(new)
            parents = self.parent_index.find(parent_rows.reshape(-1, level - 1))
            parents = parents.reshape(new.shape)
            entries = self._sizes(parents)[..., 0]
            queued = entries > 0
            if self.transitivity:
                lemma5 = self.table.has_pair[new[..., None], parent_rows].all(axis=2)
                # Lemma 5 fails for every entry alike; the scalar loop counts
                # each.
                failed = int(entries[queued & ~lemma5].sum())
                stats.bump(stats.pruned_relation_checks, level, failed)
                queued &= lemma5
            parents, new, queued = parents.ravel(), new.ravel(), queued.ravel()
            flipped = np.zeros(len(parents), dtype=bool)
        owner = np.repeat(np.arange(len(alive)), level)[queued]
        parents, new, flipped = parents[queued], new[queued], flipped[queued]
        keep = np.bincount(owner, minlength=len(alive)) > 0
        if context.delta_start:
            keep[:] = True
        pending = alive[keep]
        node_of = (np.cumsum(keep) - 1)[owner]
        bounds = np.searchsorted(node_of, np.arange(len(pending) + 1))
        queue = _Queued(
            node_of, parents, new, flipped, max_support[pending][node_of]
        )
        # Rows the pending nodes before each one queue (all of them, last);
        # a pass runs after the node that brings the queue to the bound.
        queued_rows = np.r_[0, np.cumsum(self._sizes(parents)[:, 1])][bounds]
        start, bound = 0, _EXTENSION_BATCH_ROWS
        while start < len(pending):
            base = queued_rows[start]
            target = base + max(bound - self.rows, 1)
            stop = int(np.searchsorted(queued_rows[1:], target)) + 1
            full = stop <= len(pending)
            stop = min(stop, len(pending))
            if bounds[stop] > bounds[start]:
                part = slice(bounds[start], bounds[stop])
                segment = _Queued(*(array[part] for array in queue))
                offset = len(self.pending) - start
                self.queue.append(segment._replace(node=segment.node + offset))
            self.pending.extend(
                CombinationNode(events=tuple(sorted(candidates[position])))
                for position in pending[start:stop].tolist()
            )
            self.rows += int(queued_rows[stop] - base)
            if full:
                self.flush()
            start = stop

    def flush(self) -> None:
        """Evaluate the queue, then keep the queued nodes in order: every
        node that stored a pattern (:meth:`_store` stores only admitted
        ones), and in a delta pass every node, whose patterns the session
        settles."""
        if self.queue:
            if self.watchdog is not None:
                self.watchdog.check(len(self.pending))
            self._evaluate()
        stats, level = self.stats, self.context.level
        for node in self.pending:
            if self.context.delta_start:
                self.nodes.append(node)
            elif node.patterns:
                stats.bump(stats.patterns_found, level, len(node.patterns))
                self.nodes.append(node)
        self.queue, self.pending, self.rows = [], [], 0

    def _evaluate(self) -> None:
        config, table, stats = self.context.config, self.table, self.stats
        level = self.context.level
        queued = _Queued(*map(np.concatenate, zip(*self.queue)))
        stacks = [self.stacks[parent] for parent in queued.parent.tolist()]
        n_patterns, n_rows = self.sizes[queued.parent].T
        owners = np.concatenate([stack.owners for stack in stacks])
        # A job is one (decomposition, parent pattern) pair, numbered across
        # the queue; jobs never span passes.
        first_jobs = np.cumsum(n_patterns) - n_patterns
        job_owner = np.repeat(np.arange(len(stacks)), n_patterns)
        owners[:, 0] += np.repeat(first_jobs, n_rows)
        jobs, sequences = owners.T
        index_rows = np.concatenate([stack.index_rows for stack in stacks])
        job_events = np.concatenate([stack.events for stack in stacks])
        job_new = queued.new[job_owner]
        # A row whose last instance starts after every instance of the new
        # event in its sequence extends nothing: drop it before gathering
        # its other columns.
        last = table.offset[job_events[jobs, -1], sequences] + index_rows[:, -1]
        kept = np.flatnonzero(
            self.windows.extends(job_new[jobs], sequences, table.starts[last])
        )
        jobs, sequences, index_rows = jobs[kept], sequences[kept], index_rows[kept]
        event_rows, new_rows = job_events[jobs], job_new[jobs]
        # The new event's instances of each row's sequence: flat positions
        # first .. stop, list position = flat position - first.
        first = table.offset[new_rows, sequences]
        stop = first + table.count[new_rows, sequences]
        positions = table.offset[event_rows, sequences[:, None]] + index_rows
        row_starts, row_ends = table.starts[positions], table.ends[positions]
        # Rows are in event-key order, so this is the successor key tie-break.
        after_last = new_rows > event_rows[:, -1]
        # Windows holding every pair the masks below accept.
        tmax = config.tmax
        groups = new_rows * table.count.shape[1] + sequences
        lo, hi = self.windows.bounds(groups, last[kept], row_starts[:, 0], tmax, stop)
        budget = self.context.chunk_bytes or _PASS_CHUNK_BYTES
        max_pairs = max(1, budget // _bytes_per_pair(level))
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
                flipped = queued.flipped[job_owner][jobs[rows]]
                order = np.lexsort(
                    (
                        np.where(flipped, block[:, 0], block[:, 1]),
                        np.where(flipped, block[:, 1], block[:, 0]),
                        sequences[rows],
                    )
                )
                rows, block, codes = rows[order], block[order], codes[order]
            if len(block):

                def owner(job: int) -> tuple:
                    decomposition = job_owner[job]
                    patterns = stacks[decomposition].patterns
                    return (
                        self.pending[queued.node[decomposition]],
                        self.events[queued.new[decomposition]],
                        patterns[job - first_jobs[decomposition]],
                    )

                supports = queued.support[job_owner]
                self._store(
                    jobs[rows], owner, supports, block, sequences[rows], codes
                )

    def _store(self, jobs, owner, supports, block, sequences, codes) -> None:
        """Store surviving pairs (in enumeration order) by extended pattern;
        ``owner(job)`` is a job's (node, new event, parent pattern) and
        ``supports[job]`` the largest support among its node's events."""
        order, first_hit, sizes = _pair_groups(jobs, codes)
        sequences = sequences[order].astype(hpg._INDEX_DTYPE)
        block = hpg._checked_rows(block[order])
        group_jobs = jobs[first_hit]
        if self.context.delta_start:
            # A delta pass keeps every group: the session settles them.
            frequent = np.ones(len(first_hit), dtype=bool)
        else:
            # A group's pairs of one sequence are contiguous (its job's rows
            # are stacked in ascending sequence order), so its support is the
            # number of its pairs that start a group or change the sequence.
            group = np.repeat(np.arange(len(sizes)), sizes)
            heads = np.r_[
                True, (group[1:] != group[:-1]) | (sequences[1:] != sequences[:-1])
            ]
            support = np.bincount(group[heads], minlength=len(first_hit))
            # admit_patterns as one mask: groups it would drop build no entry.
            frequent = (support >= self.context.min_count) & ~(
                support / supports[group_jobs] < self.context.config.min_confidence
            )
        # Groups are numbered in storing order: group g's pairs are
        # bounds[g] .. bounds[g + 1].
        bounds = np.r_[0, np.cumsum(sizes)].tolist()
        for g in np.flatnonzero(frequent).tolist():
            a, b = bounds[g], bounds[g + 1]
            node, new_event, parent = owner(int(group_jobs[g]))
            codes_row = codes[first_hit[g]].tolist()
            relations = tuple(RELATIONS_BY_CODE[code] for code in codes_row)
            pattern = parent.extend(new_event, relations)
            # One copy of each array, so no entry pins the pass's arrays.
            node.patterns[pattern] = PatternEntry(
                pattern, sequences[a:b].copy(), block[a:b].copy()
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

    The one admission rule (:func:`admits`), which
    :class:`~repro.core.session.MiningSession` applies to the stored nodes
    an append re-admits or settles; the pass applies it as one mask before
    it stores a pattern (:meth:`_ExtensionBatch._store`).
    """
    return {
        pattern: entry
        for pattern, entry in patterns.items()
        if admits(
            entry.support,
            max(event_support(event) for event in pattern.events),
            min_count,
            config,
        )
    }


def admits(
    support: int, max_event_support: int, min_count: int, config: MiningConfig
) -> bool:
    """Whether a pattern of this support passes Alg. 1's admission: support
    at least ``min_count`` and confidence, over the largest support among
    its events, at least ``config.min_confidence``."""
    return (
        support >= min_count
        and max_event_support > 0
        and support / max_event_support >= config.min_confidence
    )


# --------------------------------------------------------------------------- backends
@runtime_checkable
class ExecutionBackend(Protocol):
    """Strategy evaluating one level's candidates against a context.

    Implementations must be *semantically transparent*: for the same
    ``(context, candidates)`` input they must produce the same nodes, in any
    order, and the same counter totals as :func:`evaluate_candidates` run
    serially; the session merges the nodes by their event key.
    ``level_seconds`` is the one allowed difference — parallel backends
    report the max over shards, which the miner then combines with its own
    merge overhead.
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
        ``candidates``) that replace the estimates a parallel backend makes
        itself to balance its shards; they must never change the outcome.
        """
        ...

    def close(self) -> None:
        """Release any resources (worker processes); idempotent."""
        ...


class SerialBackend:
    """In-process, in-order evaluation — the original single-threaded miner."""

    name = "serial"

    def run(
        self,
        context: LevelContext,
        candidates: Sequence[Candidate],
        costs: Sequence[float] | None = None,
    ) -> LevelOutcome:
        return evaluate_candidates(context, candidates)

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
#: context — never crosses a pipe.
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


#: Halving a pass's chunk cap below this is pointless: the per-chunk
#: bookkeeping starts to rival the chunk itself, and a working set this
#: small was never the problem.
_CHUNK_SHRINK_FLOOR = 1 << 20


class ProcessPoolBackend:
    """Shards candidate evaluation across ``n_workers`` processes.

    :meth:`run` owns the whole split: it estimates every candidate's cost
    (:func:`candidate_costs`) whenever the CPU split or the memory governor
    will use the estimates, partitions the candidates by greedy LPT into
    near-equal-*cost* shards, and concatenates the shards' nodes (the
    session merges them by key); statistics merge via
    :meth:`MiningStatistics.merge_shard` (counters add, wall-clock maxes).

    Two transports are used for the worker payload (the level context), which
    is by far the largest transfer:

    * On fork-capable platforms a fresh pool is forked per batch and the
      workers inherit the payload through copy-on-write memory — only the
      item shards are pickled in, and only the results are pickled out.
    * Otherwise (Windows, or an explicit non-fork ``start_method``) a
      persistent pool is kept and the payload is pickled once per shard.

    ``start_method`` pins the :mod:`multiprocessing` start method (e.g.
    ``"spawn"`` to exercise the spawn transport on a fork-capable platform);
    ``None`` keeps the historical choice — fork when available, the
    platform default otherwise.

    Without a budget, batches smaller than ``min_candidates_per_worker * 2``
    are evaluated in-process and never estimated: for tiny levels the
    scheduling overhead dwarfs the work being distributed.

    ``memory_budget`` (bytes, or a ``"512M"``-style string) puts the whole
    worker fleet under a :class:`~repro.core.resources.ResourceGovernor`:
    the up-front split is refined, from the estimates, so no shard's
    estimated transient footprint exceeds one worker's share (with any
    worker count, one included), shipped contexts carry the share
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
        #: Degradation warnings recorded by this backend over its life.
        self.warnings: list[str] = []
        #: The warnings, transport retries and memory splits of the batch
        #: being evaluated, which :meth:`_stamp_stats` copies into its
        #: :class:`MiningStatistics`.
        self._batch_warnings: list[str] = []
        self._batch_retries = 0
        self._batch_splits = 0
        #: Captured once so ``times=N`` fault budgets survive across rounds.
        self._fault_plan = (
            fault_plan if fault_plan is not None else faults.active_plan()
        )
        #: The warning of the drop to in-process evaluation, once no pool
        #: could be obtained; every later batch records it again.
        self._degradation: str | None = None
        #: Coordinator side of the memory budget (``None`` = ungoverned);
        #: sizes the up-front split and the per-worker watchdog share.
        self.governor = (
            resources.ResourceGovernor(memory_budget, self.n_workers)
            if memory_budget is not None
            else None
        )
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
        self._batch_warnings = [self._degradation] if self._degradation else []
        self._batch_retries = self._batch_splits = 0
        n_shards = self._shard_count(len(candidates))
        governed = self.governor is not None and bool(candidates)
        if costs is None and (n_shards > 1 or governed):
            costs = candidate_costs(context, candidates)
        if governed:
            # The budget may demand a finer split than the CPU count does:
            # cap every shard's estimated transient footprint at one worker's
            # share of the budget (minus the shared context each worker maps).
            n_shards = self.governor.plan_shards(
                n_shards,
                costs,
                bytes_per_cost=_bytes_per_pair(level),
                max_shards=len(candidates),
                context_bytes=resources.estimate_context_bytes(context),
            )
            if context.memory_share_bytes is None:
                context.memory_share_bytes = self.governor.worker_share
        if n_shards <= 1:
            return self._stamp_stats(evaluate_candidates(context, candidates), level)
        shards = [
            [candidates[i] for i in indices]
            for indices in self._shard_indices(n_shards, costs)
        ]
        outcomes = self._run_shards(
            evaluate_candidates,
            context,
            shards,
            level=level,
            combine=_combine_level_outcomes,
        )
        return self._stamp_stats(_combine_level_outcomes(outcomes), level)

    def _stamp_stats(self, outcome: LevelOutcome, level: int) -> LevelOutcome:
        """Record this batch's retries, splits and degradation warnings."""
        stats = outcome.stats
        stats.bump(stats.shard_retries, level, self._batch_retries)
        stats.bump(stats.shard_splits, level, self._batch_splits)
        for message in self._batch_warnings:
            stats.record_warning(message)
        return outcome

    def _shard_count(self, n_items: int) -> int:
        return min(self.n_workers, max(1, n_items // self.min_candidates_per_worker))

    def _shard_indices(
        self, n_shards: int, costs: Sequence[float]
    ) -> list[list[int]]:
        """Candidate indices of each shard (greedy LPT over ``costs``)."""
        return _split_lpt_indices(costs, n_shards)

    def _run_shards(
        self,
        func: Callable[[Any, list], _R],
        payload: Any,
        shards: list[list],
        level: int,
        combine: Callable[[list], Any],
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
        down to one item, then pushed down a degradation chain.  ``combine``
        reassembles a shard's piece results in offset order (:meth:`run`
        passes the level-outcome combiner).
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
                if isinstance(error, (MemoryError, MemoryBudgetExceeded)):
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
                self._batch_retries += transport_failures
                # Backoff only cushions transport trouble; split pieces carry
                # *less* work than before and should resubmit immediately.
                delay = policy.delay(round_index)
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
        2. **Shrink the pass's chunk cap** (halving, floored at
           :data:`_CHUNK_SHRINK_FLOOR`) — the pass's transient pair buffers
           are proportional to the chunk cap.
        3. **Evaluate in-process** — the coordinator usually has more
           headroom than a budget-watched worker, and the watchdog never
           arms outside worker scope, so this step cannot loop.  If even
           that exceeds memory (or an injected memory fault is still armed,
           proving the plan wanted the floor reached), the run fails with a
           clean :class:`MiningError`.
        """
        self._batch_splits += 1
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

    def _shrink_kernel_chunks(self, payload: LevelContext, level: int) -> bool:
        """Halve the level's chunk cap; False once at/below the floor.

        Chunking is output-preserving by construction (anchor-granular
        chunks concatenate to the unchunked result, see
        :func:`_anchor_chunks`), so writing the cap on the shared context
        (``LevelContext.chunk_bytes``) is safe — every subsequent round,
        forked or pooled, re-ships the payload and picks the new cap up.
        """
        shrunk = (payload.chunk_bytes or _PASS_CHUNK_BYTES) // 2
        if shrunk < _CHUNK_SHRINK_FLOOR:
            return False
        payload.chunk_bytes = shrunk
        self._warn(
            f"level {level} over budget at a single candidate; kernel chunk "
            f"cap shrunk to {shrunk} bytes"
        )
        return True

    # ------------------------------------------------------------- fault handling
    @property
    def _serial_degraded(self) -> bool:
        """Whether the backend has given up on worker processes."""
        return self._degradation is not None

    def _warn(self, message: str) -> None:
        """Record a warning on the current batch and on the backend."""
        for warnings in (self._batch_warnings, self.warnings):
            if message not in warnings:
                warnings.append(message)

    def _worker_fault(self, level: int, shard: int) -> tuple[str, float] | None:
        """Directive for an armed worker fault at this coordinate, if any."""
        if not self._fault_plan:
            return None
        return self._fault_plan.take(faults.WORKER_KINDS, level, shard)

    def _degrade_to_serial(self, error: BaseException) -> None:
        """Give up on worker processes for the rest of this backend's life."""
        self._degradation = (
            f"process pool unavailable ({error}); continuing with "
            "in-process evaluation"
        )
        self._warn(self._degradation)

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
    """Concatenate the outcomes of disjoint candidate sets: a shard's pieces
    (in offset order), or a batch's shards.

    Evaluation counters are strictly per-candidate, so they add, and the
    nodes concatenate: pieces back into shard order, shards into an order
    the session's merge by key makes irrelevant (see
    :class:`ExecutionBackend`).
    """
    nodes: list[CombinationNode] = []
    stats = MiningStatistics()
    for chunk in chunks:
        nodes.extend(chunk.nodes)
        stats.merge_shard(chunk.stats)
    return LevelOutcome(nodes=nodes, stats=stats)


def _split_lpt_indices(costs: Sequence[float], n_shards: int) -> list[list[int]]:
    """Greedy LPT assignment of item indices to near-equal-cost shards.

    Items are placed heaviest-first onto the least-loaded shard; every tie
    (equal costs, equal loads) breaks towards the lower index, so the split is
    fully deterministic.  Each shard's indices are then sorted ascending, so
    every worker evaluates its candidates in generation order.
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
