"""Hierarchical Pattern Graph (paper Section IV-C, Fig. 4).

The HPG is the working data structure of HTPGM.  Level ``L1`` holds one node
per frequent single event (bitmap + instance lists); level ``Lk`` (``k >= 2``)
holds one node per frequent *combination* of ``k`` events, and each node stores
the frequent ``k``-event patterns found for that combination together with the
sequences and instance assignments supporting them.  Mining level ``k+1`` only
reads levels ``k`` and ``1``, which is what makes the level-wise pruning work.

Occurrence evidence is stored *columnar*: a :class:`PatternEntry` keeps, per
supporting sequence, an ``int32`` index matrix of shape
``(n_occurrences, k)`` whose column ``j`` indexes into the instance list of
``pattern.events[j]`` in that sequence.  The index representation is what
makes the level-``k`` extension vectorizable (endpoint blocks are gathered
through the per-level flat :class:`InstanceTable` instead of rebuilt from
instance objects per call), pickles far smaller and faster than
object-tuple lists (the matrices are the entire per-entry worker payload),
and still materialises the historical instance-tuple view lazily through
:attr:`PatternEntry.occurrences`, so downstream consumers are unchanged.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import RepresentationOverflowError
from ..timeseries.sequences import EventInstance
from .bitmap import Bitmap
from .events import EventKey
from .patterns import TemporalPattern
from .relations import RELATIONS_BY_CODE

__all__ = [
    "Occurrence",
    "IndexRow",
    "InstanceSources",
    "PatternEntry",
    "EventNode",
    "InstanceTable",
    "CombinationNode",
    "HierarchicalPatternGraph",
]

#: One supporting assignment: one instance per pattern event, in pattern order.
Occurrence = tuple[EventInstance, ...]

#: One supporting assignment in index form: for pattern event ``j``, the
#: position of its supporting instance inside that event's (chronologically
#: sorted) instance list of the sequence.
IndexRow = tuple[int, ...]

#: Where an entry's index rows point: per pattern event (chronological
#: pattern order), the event node's ``instances_by_sequence`` dict.
InstanceSources = tuple[Mapping[int, list[EventInstance]], ...]


#: Storage dtype of the index matrices and its largest representable list
#: position.  ``_INDEX_MAX`` is a module attribute (not an inlined literal)
#: so the overflow-guard tests can lower the boundary without building a
#: multi-gigabyte instance list.
_INDEX_DTYPE = np.int32
_INDEX_MAX = int(np.iinfo(np.int32).max)


def _checked_rows(pending: list[IndexRow]) -> np.ndarray:
    """Convert pending scalar-path rows to int32, refusing silent wraparound."""
    rows = np.asarray(pending, dtype=np.int64)
    if rows.size and int(rows.max()) > _INDEX_MAX:
        raise RepresentationOverflowError(
            f"instance-list index {int(rows.max())} does not fit the columnar "
            f"store's {np.dtype(_INDEX_DTYPE).name} index dtype (max {_INDEX_MAX})"
        )
    return rows.astype(_INDEX_DTYPE)


def _consolidate_blocks(value: object, width: int) -> np.ndarray:
    """One ``(n, width)`` int32 matrix out of a mixed row/block build list."""
    if isinstance(value, np.ndarray):
        return value
    blocks: list[np.ndarray] = []
    pending: list[IndexRow] = []
    for item in value:
        if isinstance(item, np.ndarray):
            if pending:
                blocks.append(_checked_rows(pending))
                pending = []
            blocks.append(item)
        else:
            pending.append(item)
    if pending:
        blocks.append(_checked_rows(pending))
    if not blocks:
        return np.empty((0, width), dtype=_INDEX_DTYPE)
    if len(blocks) == 1:
        return blocks[0]
    return np.concatenate(blocks, axis=0)


def _block_rows(value: object) -> int:
    """Row count of a (possibly unconsolidated) per-sequence store value."""
    if isinstance(value, np.ndarray):
        return value.shape[0]
    return sum(
        item.shape[0] if isinstance(item, np.ndarray) else 1 for item in value
    )


class PatternEntry:
    """A pattern together with the evidence supporting it.

    The evidence is a *columnar occurrence store*: per supporting sequence, an
    ``int32`` index matrix of shape ``(n_occurrences, k)`` whose column ``j``
    holds, for every supporting assignment, the position of the instance of
    ``pattern.events[j]`` inside that event's chronologically sorted instance
    list of the sequence.  The set of stored sequence ids is the support set
    of the pattern (Def. 3.14); the matrices are retained because level
    ``k+1`` extends every stored assignment with instances of the new event.

    Rows arrive either one at a time (:meth:`add_index_row`, the scalar
    reference path, consolidated by :meth:`index_matrix` on demand) or as
    whole per-sequence matrices (:meth:`from_index_blocks`, the vectorized
    pass); both build the identical matrix.

    The index rows are resolved against *sources* — per pattern event, the
    owning :class:`EventNode`'s ``instances_by_sequence`` dict.  Sources are
    derived, process-local state: they are dropped when the entry is pickled
    (the matrices alone cross process and file boundaries) and re-attached
    via :meth:`bind_sources` by whoever owns the level-1 nodes on the other
    side.  The historical instance-tuple view is materialised lazily through
    :attr:`occurrences` / :meth:`materialise`, so the public surface consumed
    by ``analysis/``, ``io/`` and the examples is unchanged.

    Every backend stores the same matrices: an entry always keeps its full
    evidence, so any entry can be extended by a later level or an append.
    """

    __slots__ = (
        "pattern",
        "_store",
        "_sources",
        "_row_cache",
        "_view_cache",
    )

    def __init__(
        self,
        pattern: TemporalPattern,
        sources: InstanceSources | None = None,
    ) -> None:
        self.pattern = pattern
        # Per-sequence build state: a list of pending rows/blocks while the
        # entry is being grown, consolidated to one int32 matrix on access.
        self._store: dict[int, object] = {}
        self._sources = sources
        # Derived, process-local read caches (row tuples / instance tuples),
        # invalidated per sequence on insert and dropped from pickles: the
        # scalar reference path re-reads each parent entry once per extension
        # candidate, and rebuilding the views every read would pay the old
        # tuple-store construction cost over and over.
        self._row_cache: dict[int, list[IndexRow]] = {}
        self._view_cache: dict[int, list[Occurrence]] = {}

    @classmethod
    def from_index_blocks(
        cls,
        pattern: TemporalPattern,
        sources: InstanceSources,
        sequence_ids: list[int],
        blocks: list[np.ndarray],
    ) -> "PatternEntry":
        """A whole entry at once: ``blocks[i]`` (a contiguous ``(n, k)`` int32
        array owning its memory) is the matrix of ``sequence_ids[i]``."""
        entry = cls(pattern=pattern, sources=sources)
        entry._store = dict(zip(sequence_ids, blocks))
        return entry

    # ------------------------------------------------------------------ measures
    @property
    def support(self) -> int:
        """Number of sequences supporting the pattern."""
        return len(self._store)

    @property
    def n_occurrences(self) -> int:
        """Total number of supporting assignments across all sequences."""
        return sum(_block_rows(value) for value in self._store.values())

    def occurrence_counts_by_sequence(self) -> dict[int, int]:
        """Per-sequence occurrence counts (row counts, no materialising)."""
        return {
            sequence_id: _block_rows(value)
            for sequence_id, value in self._store.items()
        }

    def sequence_ids(self) -> set[int]:
        """Ids of the supporting sequences."""
        return set(self._store)

    # ------------------------------------------------------------------ building
    def add_index_row(self, sequence_id: int, row: IndexRow) -> None:
        """Record one supporting assignment (per-hit scalar path)."""
        if self._row_cache or self._view_cache:
            self._row_cache.pop(sequence_id, None)
            self._view_cache.pop(sequence_id, None)
        value = self._store.get(sequence_id)
        if value is None:
            self._store[sequence_id] = [row]
        elif isinstance(value, list):
            value.append(row)
        else:  # appending after consolidation: reopen as a build list
            self._store[sequence_id] = [value, row]

    def index_matrix(self, sequence_id: int) -> np.ndarray:
        """The consolidated ``(n_occurrences, k)`` int32 matrix of one sequence."""
        value = self._store[sequence_id]
        if not isinstance(value, np.ndarray):
            value = _consolidate_blocks(value, len(self.pattern.events))
            self._store[sequence_id] = value
        return value

    def iter_index_matrices(self):
        """Yield ``(sequence_id, index_matrix)`` in insertion order."""
        for sequence_id in self._store:
            yield sequence_id, self.index_matrix(sequence_id)

    def index_rows(self, sequence_id: int) -> list[IndexRow]:
        """One sequence's index rows as int tuples (cached derived view)."""
        rows = self._row_cache.get(sequence_id)
        if rows is None:
            rows = [tuple(row) for row in self.index_matrix(sequence_id).tolist()]
            self._row_cache[sequence_id] = rows
        return rows

    # ------------------------------------------------------------------ sources
    @property
    def sources(self) -> InstanceSources:
        """The bound instance sources (raises until :meth:`bind_sources` ran)."""
        sources = self._sources
        if sources is None:
            raise ValueError(
                f"PatternEntry for {self.pattern!r} has no bound instance "
                "sources; call bind_sources(level1) first"
            )
        return sources

    @property
    def is_bound(self) -> bool:
        """True when index rows can be resolved to instance objects."""
        return self._sources is not None

    def bind_sources(self, level1: Mapping[EventKey, "EventNode"]) -> None:
        """Attach the level-1 instance lists the index rows point into.

        No-op when already bound.  Called at entry creation (in-process), by
        the coordinator when worker-returned nodes join the graph, and by
        :mod:`repro.io.session_io` after loading a session file — the three
        places where an entry (re-)enters a process.
        """
        if self._sources is None:
            self._sources = tuple(
                level1[event].instances_by_sequence for event in self.pattern.events
            )

    # ------------------------------------------------------------------ materialisation
    def materialise(self, sequence_id: int) -> list[Occurrence]:
        """The instance-tuple view of one sequence's supporting assignments
        (cached derived view, like :meth:`index_rows`)."""
        view = self._view_cache.get(sequence_id)
        if view is None:
            lists = [source[sequence_id] for source in self.sources]
            view = [
                tuple(lists[position][index] for position, index in enumerate(row))
                for row in self.index_matrix(sequence_id).tolist()
            ]
            self._view_cache[sequence_id] = view
        return view

    @property
    def occurrences(self) -> dict[int, list[Occurrence]]:
        """Lazy instance-tuple view of the store.

        Materialised fresh on access from the index matrices and the bound
        sources; mutating the returned structure does not affect the entry.
        """
        if not self._store:
            return {}
        return {
            sequence_id: list(self.materialise(sequence_id))
            for sequence_id in self._store
        }

    # ------------------------------------------------------------------ validation
    def validate_indices(self) -> None:
        """Check every index row resolves inside its bound instance list.

        Untrusted stores (session files) can carry negative or out-of-range
        indices that would otherwise materialise the *wrong* instance (Python
        negative indexing) or blow up far from the load site; one vectorized
        range check per (entry, sequence) turns that into a clean error.
        Raises :class:`ValueError`; requires bound sources.
        """
        if not self._store:
            return
        sources = self.sources
        for sequence_id, matrix in self.iter_index_matrices():
            lengths = np.fromiter(
                (len(source[sequence_id]) for source in sources),
                dtype=np.intp,
                count=len(sources),
            )
            if matrix.size and ((matrix < 0).any() or (matrix >= lengths).any()):
                raise ValueError(
                    f"index matrix of {self.pattern!r} in sequence "
                    f"{sequence_id} points outside the instance lists"
                )

    # ------------------------------------------------------------------ pickling
    def __getstate__(self) -> dict:
        """Pickle the consolidated matrices only — sources are process-local."""
        return {
            "pattern": self.pattern,
            "index": {
                sequence_id: self.index_matrix(sequence_id)
                for sequence_id in self._store
            },
        }

    def __setstate__(self, state: dict) -> None:
        self.pattern = state["pattern"]
        # ``get``: an older session file's entries (another wire shape) must
        # still unpickle far enough for session_io to report its version.
        # Entries pickled while the store had a per-sequence count form also
        # carry a ``"counts"`` key (``None`` in every session file); it is
        # ignored.
        self._store = dict(state.get("index", {}))
        self._sources = None
        self._row_cache = {}
        self._view_cache = {}

    # ------------------------------------------------------------------ dunder
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternEntry):
            return NotImplemented
        if self.pattern != other.pattern or self._store.keys() != other._store.keys():
            return False
        return all(
            np.array_equal(self.index_matrix(sid), other.index_matrix(sid))
            for sid in self._store
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PatternEntry(pattern={self.pattern!r}, support={self.support}, "
            f"n_occurrences={self.n_occurrences})"
        )


@dataclass
class EventNode:
    """Level-1 node: one frequent single event and its instance lists."""

    event: EventKey
    bitmap: Bitmap
    instances_by_sequence: dict[int, list[EventInstance]]

    @property
    def support(self) -> int:
        """Sequence-level support of the event."""
        return self.bitmap.count()


class InstanceTable:
    """Flat columnar copy of the level-1 instances one level evaluates against.

    ``index`` maps each event to its row (rows in event-key order);
    ``starts``/``ends`` hold the ``float64`` endpoints of every instance,
    grouped by (row, sequence) and in list (chronological) order inside a
    group, which ``offset[row, sequence]`` and ``count[row, sequence]``
    locate — list position ``i`` of an event is ``offset[row, s] + i``.
    ``allowed[a, b, c]`` (Lemmas 4, 6, 7) is True when the 2-event pattern
    with events ``(a, b)``, in that order, and relation code ``c`` is a
    frequent, confident level-2 pattern; ``has_pair[a, b]`` (Lemma 5) when
    ``a`` and ``b`` share a frequent pair node.  Both come from
    ``pair_patterns`` and are all False without it.
    """

    __slots__ = ("index", "starts", "ends", "offset", "count", "allowed", "has_pair")

    def __init__(
        self,
        level1: Mapping[EventKey, EventNode],
        n_sequences: int,
        pair_patterns: Mapping[
            tuple[EventKey, EventKey], frozenset[TemporalPattern]
        ] | None = None,
    ) -> None:
        nodes = [level1[event] for event in sorted(level1)]
        index = self.index = {node.event: row for row, node in enumerate(nodes)}
        count = self.count = np.zeros((len(nodes), n_sequences), dtype=np.int64)
        for row, node in enumerate(nodes):
            for sequence_id, instances in node.instances_by_sequence.items():
                count[row, sequence_id] = len(instances)
        self.offset = (np.cumsum(count) - count.ravel()).reshape(count.shape)
        ordered = [
            instance
            for node in nodes
            for sequence_id in sorted(node.instances_by_sequence)
            for instance in node.instances_by_sequence[sequence_id]
        ]
        self.starts = np.array([instance.start for instance in ordered], float)
        self.ends = np.array([instance.end for instance in ordered], float)
        self.allowed = np.zeros((len(nodes), len(nodes), len(RELATIONS_BY_CODE)), bool)
        self.has_pair = np.zeros((len(nodes), len(nodes)), dtype=bool)
        for (event_a, event_b), patterns in (pair_patterns or {}).items():
            if patterns and event_a in index and event_b in index:
                self.has_pair[index[event_a], index[event_b]] = True
                self.has_pair[index[event_b], index[event_a]] = True
                for pattern in patterns:
                    first, second = pattern.events
                    code = pattern.relations[0].code
                    self.allowed[index[first], index[second], code] = True


@dataclass
class CombinationNode:
    """Level-k node (k >= 2): a frequent combination of k events.

    ``events`` is the canonical (sorted) tuple identifying the node; the
    patterns stored inside keep their own chronological event order, which may
    differ from the canonical order.
    """

    events: tuple[EventKey, ...]
    bitmap: Bitmap
    patterns: dict[TemporalPattern, PatternEntry] = field(default_factory=dict)

    @property
    def level(self) -> int:
        """Number of events in the combination."""
        return len(self.events)

    @property
    def support(self) -> int:
        """Sequence-level support of the event combination."""
        return self.bitmap.count()

    def add_pattern_occurrence(
        self,
        pattern: TemporalPattern,
        sequence_id: int,
        row: IndexRow,
        sources: InstanceSources,
    ) -> None:
        """Record one supporting assignment for ``pattern`` (index form).

        ``row[j]`` is the position of the supporting instance of
        ``pattern.events[j]`` inside ``sources[j][sequence_id]``; ``sources``
        seeds the entry's instance binding when the pattern is first seen.
        """
        entry = self.patterns.get(pattern)
        if entry is None:
            entry = PatternEntry(pattern=pattern, sources=sources)
            self.patterns[pattern] = entry
        entry.add_index_row(sequence_id, row)

    def prune_patterns(self, keep: set[TemporalPattern]) -> None:
        """Drop every stored pattern not in ``keep`` (infrequent / low confidence)."""
        self.patterns = {p: e for p, e in self.patterns.items() if p in keep}

    def has_patterns(self) -> bool:
        """True when at least one frequent pattern is stored."""
        return bool(self.patterns)


@dataclass
class HierarchicalPatternGraph:
    """The full graph: level 1 event nodes plus combination nodes per level."""

    n_sequences: int
    level1: dict[EventKey, EventNode] = field(default_factory=dict)
    levels: dict[int, dict[tuple[EventKey, ...], CombinationNode]] = field(default_factory=dict)

    # ------------------------------------------------------------------ construction
    def add_event_node(self, node: EventNode) -> None:
        """Insert a frequent single event into level 1."""
        self.level1[node.event] = node

    def add_combination_node(self, node: CombinationNode) -> None:
        """Insert a combination node into its level."""
        self.levels.setdefault(node.level, {})[node.events] = node

    # ------------------------------------------------------------------ queries
    def frequent_events(self) -> list[EventKey]:
        """The ``1Freq`` set, in insertion order."""
        return list(self.level1.keys())

    def event_support(self, event: EventKey) -> int:
        """Support of a frequent event (0 when the event is not in level 1)."""
        node = self.level1.get(event)
        return node.support if node is not None else 0

    def nodes_at(self, level: int) -> list[CombinationNode]:
        """All combination nodes of one level."""
        return list(self.levels.get(level, {}).values())

    def node_for(self, events: tuple[EventKey, ...]) -> CombinationNode | None:
        """Node identified by a canonical (sorted) event tuple, if present."""
        return self.levels.get(len(events), {}).get(events)

    def pair_node(self, event_a: EventKey, event_b: EventKey) -> CombinationNode | None:
        """Level-2 node for an (unordered) event pair, if present."""
        key = tuple(sorted((event_a, event_b)))
        return self.levels.get(2, {}).get(key)

    def max_level(self) -> int:
        """Deepest populated level (1 when only single events were mined)."""
        populated = [level for level, nodes in self.levels.items() if nodes]
        return max(populated, default=1)

    def iter_pattern_entries(self):
        """Yield ``(level, node, entry)`` for every stored pattern."""
        for level in sorted(self.levels):
            for node in self.levels[level].values():
                for entry in node.patterns.values():
                    yield level, node, entry

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        per_level = {level: len(nodes) for level, nodes in sorted(self.levels.items())}
        return (
            f"HierarchicalPatternGraph(n_sequences={self.n_sequences}, "
            f"level1={len(self.level1)}, levels={per_level})"
        )
