"""Hierarchical Pattern Graph (paper Section IV-C, Fig. 4).

The HPG is the working data structure of HTPGM.  Level ``L1`` holds one node
per frequent single event (bitmap + instance lists); level ``Lk`` (``k >= 2``)
holds one node per frequent *combination* of ``k`` events, and each node stores
the frequent ``k``-event patterns found for that combination together with the
sequences and instance assignments supporting them.  Mining level ``k+1`` only
reads levels ``k`` and ``1``, which is what makes the level-wise pruning work.

Occurrence evidence is stored *columnar*, in CSR layout: a
:class:`PatternEntry` keeps its supporting sequence ids (strictly ascending),
row offsets, and one ``int32`` block of shape ``(n_occurrences, k)`` whose
column ``j`` indexes into the instance list of ``pattern.events[j]`` in the
row's sequence; a sequence's index matrix is a view of that block.  The index
representation is what makes the level-``k`` extension vectorizable
(endpoint blocks are gathered through the per-level flat
:class:`InstanceTable` instead of rebuilt from instance objects per call),
pickles as three array copies per entry (the entire per-entry payload of a
worker result or a session file), and still materialises the historical
instance-tuple view lazily through :attr:`PatternEntry.occurrences`, so
downstream consumers are unchanged.
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


#: Storage dtype of the index rows (and of the sequence ids, which index
#: bitmaps and the instance table's dense columns) and the largest
#: representable list position.  ``_INDEX_MAX`` is a module attribute (not
#: an inlined literal) so the overflow-guard tests can lower the boundary
#: without building a multi-gigabyte instance list.
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


class PatternEntry:
    """A pattern together with the evidence supporting it.

    The evidence is a *columnar occurrence store* in CSR layout: three
    arrays hold every supporting assignment of the pattern.

    * ``sequences`` — the supporting sequence ids, strictly ascending
      (``int32``; their count is the support of the pattern, Def. 3.14);
    * ``offsets`` — ``len(sequences) + 1`` strictly increasing row bounds
      from 0 to the row count (``int64``): sequence ``sequences[i]`` owns
      rows ``offsets[i]:offsets[i + 1]``;
    * ``rows`` — one ``(n_occurrences, k)`` ``int32`` block whose column
      ``j`` holds the position of the instance of ``pattern.events[j]``
      inside that event's chronologically sorted instance list of the row's
      sequence.

    The rows are retained because level ``k+1`` extends every stored
    assignment with instances of the new event.  A sequence's index matrix
    (:meth:`index_matrix`, :meth:`iter_index_matrices`) is a view of the one
    block, so a whole entry crosses a pipe or a file as three array copies.

    Rows arrive either as a whole entry (:meth:`from_arrays`, the vectorized
    pass) or one at a time (:meth:`add_index_row`, the scalar reference
    path), buffered and folded into the block on the first read; both build
    the identical arrays.

    The index rows are resolved against *sources* — per pattern event, the
    owning :class:`EventNode`'s ``instances_by_sequence`` dict.  Sources are
    derived, process-local state: they are dropped when the entry is pickled
    (the three arrays alone cross process and file boundaries) and
    re-attached via :meth:`bind_sources` by whoever owns the level-1 nodes
    on the other side.  The historical instance-tuple view is materialised
    lazily through :attr:`occurrences` / :meth:`materialise`, so the public
    surface consumed by ``analysis/``, ``io/`` and the examples is unchanged.

    Every backend stores the same arrays: an entry always keeps its full
    evidence, so any entry can be extended by a later level or an append.
    """

    __slots__ = (
        "pattern",
        "_sequences",
        "_offsets",
        "_rows",
        "_pending",
        "_sources",
        "_row_cache",
        "_view_cache",
    )

    def __init__(
        self,
        pattern: TemporalPattern,
        sources: InstanceSources | None = None,
    ) -> None:
        self._adopt(
            pattern,
            sources,
            np.empty(0, dtype=_INDEX_DTYPE),
            np.zeros(1, dtype=np.int64),
            np.empty((0, len(pattern.events)), dtype=_INDEX_DTYPE),
        )

    @classmethod
    def from_arrays(
        cls,
        pattern: TemporalPattern,
        sources: InstanceSources | None,
        sequences: np.ndarray,
        offsets: np.ndarray,
        rows: np.ndarray,
    ) -> "PatternEntry":
        """A whole entry at once, from its three CSR arrays (adopted, not
        copied: the caller hands over arrays owning their memory)."""
        entry = cls.__new__(cls)
        entry._adopt(pattern, sources, sequences, offsets, rows)
        return entry

    def followed_by(self, later: "PatternEntry") -> "PatternEntry":
        """A new, unbound entry of this pattern holding this entry's runs
        and then ``later``'s, whose sequence ids all follow this entry's (an
        append's delta rows)."""
        offsets = self.offsets
        return PatternEntry.from_arrays(
            self.pattern,
            None,
            np.concatenate((self.sequences, later.sequences)),
            np.concatenate((offsets, later.offsets[1:] + offsets[-1])),
            np.concatenate((self.rows, later.rows)),
        )

    def _adopt(self, pattern, sources, sequences, offsets, rows) -> None:
        """Set every slot: the pattern, the sources and the three arrays."""
        self.pattern = pattern
        self._sequences, self._offsets, self._rows = sequences, offsets, rows
        # Scalar-path rows not yet folded into the block: (sequence, row).
        self._pending: list[tuple[int, IndexRow]] = []
        self._sources = sources
        # Derived, process-local read caches (row tuples / instance tuples),
        # invalidated per sequence on insert and dropped from pickles: the
        # scalar reference path re-reads each parent entry once per extension
        # candidate, and rebuilding the views every read would pay the old
        # tuple-store construction cost over and over.
        self._row_cache: dict[int, list[IndexRow]] = {}
        self._view_cache: dict[int, list[Occurrence]] = {}

    # ------------------------------------------------------------------ arrays
    @property
    def sequences(self) -> np.ndarray:
        """Supporting sequence ids, strictly ascending (``int32``)."""
        if self._pending:
            self._consolidate()
        return self._sequences

    @property
    def offsets(self) -> np.ndarray:
        """Row bounds of each supporting sequence's run (``int64``)."""
        if self._pending:
            self._consolidate()
        return self._offsets

    @property
    def rows(self) -> np.ndarray:
        """The ``(n_occurrences, k)`` ``int32`` row block."""
        if self._pending:
            self._consolidate()
        return self._rows

    def _consolidate(self) -> None:
        """Fold the pending scalar-path rows into the block.

        A stable sort by sequence keeps each sequence's rows in arrival
        order, whatever order the sequences arrived in (the scalar loops
        deliver them sequence-major and ascending, so the sort moves
        nothing)."""
        pending, self._pending = self._pending, []
        ids = np.concatenate(
            (
                np.repeat(self._sequences, np.diff(self._offsets)),
                np.fromiter((sid for sid, _ in pending), np.int64, len(pending)),
            )
        )
        rows = np.concatenate((self._rows, _checked_rows([row for _, row in pending])))
        order = np.argsort(ids, kind="stable")
        sequences, counts = np.unique(ids, return_counts=True)
        self._sequences = sequences.astype(_INDEX_DTYPE)
        self._offsets = np.concatenate(([0], np.cumsum(counts)))
        self._rows = rows[order]

    # ------------------------------------------------------------------ measures
    @property
    def support(self) -> int:
        """Number of sequences supporting the pattern."""
        return len(self.sequences)

    @property
    def n_occurrences(self) -> int:
        """Total number of supporting assignments across all sequences."""
        return len(self.rows)

    def sequence_ids(self) -> set[int]:
        """Ids of the supporting sequences."""
        return set(self.sequences.tolist())

    # ------------------------------------------------------------------ building
    def add_index_row(self, sequence_id: int, row: IndexRow) -> None:
        """Record one supporting assignment (per-hit scalar path)."""
        if self._row_cache or self._view_cache:
            self._row_cache.pop(sequence_id, None)
            self._view_cache.pop(sequence_id, None)
        self._pending.append((sequence_id, row))

    def index_matrix(self, sequence_id: int) -> np.ndarray:
        """One sequence's ``(n_occurrences, k)`` rows, a view of the block;
        ``KeyError`` when the sequence does not support the pattern."""
        sequences = self.sequences
        position = int(np.searchsorted(sequences, sequence_id))
        if position == len(sequences) or sequences[position] != sequence_id:
            raise KeyError(sequence_id)
        offsets = self._offsets
        return self._rows[offsets[position] : offsets[position + 1]]

    def iter_index_matrices(self):
        """Yield ``(sequence_id, index_matrix)`` in ascending sequence order,
        each matrix a view of the block."""
        sequences, rows = self.sequences.tolist(), self._rows
        bounds = self._offsets.tolist()
        for position, sequence_id in enumerate(sequences):
            yield sequence_id, rows[bounds[position] : bounds[position + 1]]

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
        return {
            sequence_id: list(self.materialise(sequence_id))
            for sequence_id in self.sequences.tolist()
        }

    # ------------------------------------------------------------------ validation
    def validate_indices(self, table: "InstanceTable") -> None:
        """Check the entry is well-formed evidence over ``table``'s instances.

        Untrusted stores (session files) can carry malformed arrays, a
        sequence listed with no rows (which would inflate the support), or
        negative or out-of-range indices that would otherwise materialise the
        *wrong* instance (Python negative indexing) or blow up far from the
        load site.  The whole entry is checked with a few array operations;
        the index ranges with one gather from ``table.count``.  Raises
        :class:`ValueError`.
        """
        sequences, offsets, rows = self.sequences, self.offsets, self.rows
        layout = (
            ("sequences", sequences, 1, _INDEX_DTYPE),
            ("offsets", offsets, 1, np.int64),
            ("rows", rows, 2, _INDEX_DTYPE),
        )
        for name, array, ndim, dtype in layout:
            shaped = isinstance(array, np.ndarray) and array.ndim == ndim
            if not shaped or array.dtype != dtype:
                raise ValueError(
                    f"{name} of {self.pattern!r} is not a {ndim}-D "
                    f"{np.dtype(dtype).name} array"
                )
        if rows.shape[1] != len(self.pattern.events):
            raise ValueError(
                f"rows of {self.pattern!r} have {rows.shape[1]} columns, "
                f"not {len(self.pattern.events)}"
            )
        runs = np.diff(offsets)
        if (
            len(offsets) != len(sequences) + 1
            or offsets[0] != 0
            or offsets[-1] != len(rows)
            or (runs <= 0).any()
        ):
            raise ValueError(
                f"offsets of {self.pattern!r} do not split its {len(rows)} "
                "rows into one non-empty run per sequence"
            )
        n_sequences = table.count.shape[1]
        if len(sequences) and (
            sequences[0] < 0
            or sequences[-1] >= n_sequences
            or (np.diff(sequences) <= 0).any()
        ):
            raise ValueError(
                f"sequence ids of {self.pattern!r} are not strictly ascending "
                f"inside [0, {n_sequences})"
            )
        events = [table.index[event] for event in self.pattern.events]
        lengths = table.count[events, np.repeat(sequences, runs)[:, None]]
        if ((rows < 0) | (rows >= lengths)).any():
            raise ValueError(
                f"index rows of {self.pattern!r} point outside the instance lists"
            )

    # ------------------------------------------------------------------ pickling
    def __getstate__(self) -> dict:
        """Pickle the pattern and the three arrays — sources are process-local."""
        return {
            "pattern": self.pattern,
            "sequences": self.sequences,
            "offsets": self._offsets,
            "rows": self._rows,
        }

    def __setstate__(self, state: dict) -> None:
        # ``get``: an older session file's entries (another wire shape, such
        # as version 4's per-sequence ``index`` dict) must still unpickle far
        # enough for session_io to report its version.  A missing array fails
        # validate_indices.
        self._adopt(
            state["pattern"],
            None,
            state.get("sequences"),
            state.get("offsets"),
            state.get("rows"),
        )

    # ------------------------------------------------------------------ dunder
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternEntry):
            return NotImplemented
        return self.pattern == other.pattern and all(
            np.array_equal(mine, theirs)
            for mine, theirs in (
                (self.sequences, other.sequences),
                (self.offsets, other.offsets),
                (self.rows, other.rows),
            )
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
