"""Hierarchical Pattern Graph (paper Section IV-C, Fig. 4).

The HPG is the working data structure of HTPGM.  Level ``L1`` holds one node
per frequent single event (its instance lists); level ``Lk`` (``k >= 2``)
holds one node per frequent *combination* of ``k`` events, and each node stores
the frequent ``k``-event patterns found for that combination together with the
sequences and instance assignments supporting them.  Mining level ``k+1`` only
reads levels ``k`` and ``1``, which is what makes the level-wise pruning work.

Occurrence evidence is stored *columnar*, in CSR layout: a
:class:`PatternEntry` is a value — its pattern, its supporting sequence ids
(strictly ascending), row offsets, and one ``int32`` block of shape
``(n_occurrences, k)`` whose column ``j`` indexes into the instance list of
``pattern.events[j]`` in the row's sequence; a sequence's index matrix is a
view of that block.  The index representation is what makes the level-``k``
extension vectorizable (endpoint blocks are gathered through the per-level
flat :class:`InstanceTable` instead of rebuilt from instance objects per
call) and pickles as three array copies per entry (the entire per-entry
payload of a worker result or a session file).  The historical
instance-tuple view is resolved on request against the level-1 nodes the
caller passes: ``entry.occurrences(graph.level1)``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import RepresentationOverflowError
from ..timeseries.sequences import EventInstance
from .events import EventKey
from .patterns import TemporalPattern
from .relations import RELATIONS_BY_CODE

__all__ = [
    "Occurrence",
    "IndexRow",
    "PatternEntry",
    "EventNode",
    "InstanceTable",
    "instance_counts",
    "CombinationNode",
    "HierarchicalPatternGraph",
]

#: One supporting assignment: one instance per pattern event, in pattern order.
Occurrence = tuple[EventInstance, ...]

#: One supporting assignment in index form: for pattern event ``j``, the
#: position of its supporting instance inside that event's (chronologically
#: sorted) instance list of the sequence.
IndexRow = tuple[int, ...]


#: Storage dtype of the index rows (and of the sequence ids, which index the
#: instance table's dense columns) and the largest representable list
#: position.  ``_INDEX_MAX`` is a module attribute (not an inlined literal)
#: so the overflow-guard tests can lower the boundary without building a
#: multi-gigabyte instance list.
_INDEX_DTYPE = np.int32
_INDEX_MAX = int(np.iinfo(np.int32).max)


def _checked_rows(rows: list[IndexRow] | np.ndarray) -> np.ndarray:
    """Convert index rows to int32, refusing silent wraparound."""
    rows = np.asarray(rows, dtype=np.int64)
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

    An entry is a value: its pattern and its three arrays, built whole by
    the vectorized pass from one checked block, and referring to nothing
    else.  The historical instance-tuple view resolves the rows against the
    level-1 nodes the caller passes (``graph.level1``, ``session.events`` or
    ``LevelContext.level1``): :meth:`occurrences` and :meth:`materialise`.

    Every backend stores the same arrays: an entry always keeps its full
    evidence, so any entry can be extended by a later level or an append.
    """

    __slots__ = ("pattern", "sequences", "offsets", "rows")

    def __init__(
        self,
        pattern: TemporalPattern,
        sequences: np.ndarray,
        offsets: np.ndarray,
        rows: np.ndarray,
    ) -> None:
        """Adopt (not copy) the three CSR arrays: the caller hands over
        arrays owning their memory."""
        self.pattern = pattern
        self.sequences, self.offsets, self.rows = sequences, offsets, rows

    def followed_by(self, later: "PatternEntry") -> "PatternEntry":
        """A new entry of this pattern holding this entry's runs and then
        ``later``'s, whose sequence ids all follow this entry's (an append's
        delta rows)."""
        return PatternEntry(
            self.pattern,
            np.concatenate((self.sequences, later.sequences)),
            np.concatenate((self.offsets, later.offsets[1:] + self.offsets[-1])),
            np.concatenate((self.rows, later.rows)),
        )

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

    # ------------------------------------------------------------------ index matrices
    def index_matrix(self, sequence_id: int) -> np.ndarray:
        """One sequence's ``(n_occurrences, k)`` rows, a view of the block;
        ``KeyError`` when the sequence does not support the pattern."""
        sequences = self.sequences
        position = int(np.searchsorted(sequences, sequence_id))
        if position == len(sequences) or sequences[position] != sequence_id:
            raise KeyError(sequence_id)
        offsets = self.offsets
        return self.rows[offsets[position] : offsets[position + 1]]

    def iter_index_matrices(self):
        """Yield ``(sequence_id, index_matrix)`` in ascending sequence order,
        each matrix a view of the block."""
        sequences, rows = self.sequences.tolist(), self.rows
        bounds = self.offsets.tolist()
        for position, sequence_id in enumerate(sequences):
            yield sequence_id, rows[bounds[position] : bounds[position + 1]]

    # ------------------------------------------------------------------ materialisation
    def materialise(
        self, sequence_id: int, level1: Mapping[EventKey, "EventNode"]
    ) -> list[Occurrence]:
        """The instance-tuple view of one sequence's supporting assignments,
        resolved against ``level1``'s instance lists."""
        lists = [
            level1[event].instances_by_sequence[sequence_id]
            for event in self.pattern.events
        ]
        return [
            tuple(lists[position][index] for position, index in enumerate(row))
            for row in self.index_matrix(sequence_id).tolist()
        ]

    def occurrences(
        self, level1: Mapping[EventKey, "EventNode"]
    ) -> dict[int, list[Occurrence]]:
        """The instance-tuple view of the whole store, per supporting
        sequence, resolved against ``level1`` and built fresh on each call."""
        return {
            sequence_id: self.materialise(sequence_id, level1)
            for sequence_id in self.sequences.tolist()
        }

    # ------------------------------------------------------------------ validation
    def validate_indices(
        self, index: Mapping[EventKey, int], count: np.ndarray
    ) -> None:
        """Check the entry is well-formed evidence over the level-1 instances.

        ``index`` and ``count`` are :func:`instance_counts` of the level-1
        nodes.  Untrusted stores (session files) can carry malformed arrays,
        a sequence listed with no rows (which would inflate the support), or
        negative or out-of-range indices that would otherwise materialise the
        *wrong* instance (Python negative indexing) or blow up far from the
        load site.  The whole entry is checked with a few array operations;
        the index ranges with one gather from ``count``.  Raises
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
        n_sequences = count.shape[1]
        if len(sequences) and (
            sequences[0] < 0
            or sequences[-1] >= n_sequences
            or (np.diff(sequences) <= 0).any()
        ):
            raise ValueError(
                f"sequence ids of {self.pattern!r} are not strictly ascending "
                f"inside [0, {n_sequences})"
            )
        events = [index[event] for event in self.pattern.events]
        lengths = count[events, np.repeat(sequences, runs)[:, None]]
        if ((rows < 0) | (rows >= lengths)).any():
            raise ValueError(
                f"index rows of {self.pattern!r} point outside the instance lists"
            )

    # ------------------------------------------------------------------ pickling
    def __getstate__(self) -> dict:
        """Pickle the pattern and the three arrays."""
        return {
            "pattern": self.pattern,
            "sequences": self.sequences,
            "offsets": self.offsets,
            "rows": self.rows,
        }

    def __setstate__(self, state: dict) -> None:
        # ``get``: an older session file's entries (another wire shape, such
        # as version 4's per-sequence ``index`` dict) must still unpickle far
        # enough for session_io to report its version.  A missing array fails
        # validate_indices.
        self.__init__(
            state["pattern"],
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
    """Level-1 node: one frequent single event and its instance lists, whose
    keys (each list non-empty) are the event's sequence set."""

    event: EventKey
    instances_by_sequence: dict[int, list[EventInstance]]

    @property
    def support(self) -> int:
        """Sequence-level support of the event (Def. 3.13)."""
        return len(self.instances_by_sequence)


def instance_counts(
    level1: Mapping[EventKey, EventNode], n_sequences: int
) -> tuple[dict[EventKey, int], np.ndarray]:
    """Each event's row, in event-key order, and its instance counts.

    ``count[row, s]`` is the length of the event's instance list in
    sequence ``s``.  These are :class:`InstanceTable`'s ``index`` and
    ``count``, and all that :meth:`PatternEntry.validate_indices` reads.
    """
    nodes = [level1[event] for event in sorted(level1)]
    index = {node.event: row for row, node in enumerate(nodes)}
    count = np.zeros((len(nodes), n_sequences), dtype=np.int64)
    for row, node in enumerate(nodes):
        for sequence_id, instances in node.instances_by_sequence.items():
            count[row, sequence_id] = len(instances)
    return index, count


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
    ``pair_patterns`` and are all False without it.  ``bitmaps`` is the
    bitmap index (Sec. IV-C) the Apriori checks of Lemmas 2–3 read:
    ``⌈n_sequences / 64⌉`` little-endian ``uint64`` words per row, bit ``s``
    set when ``count[row, s] > 0``, i.e. the event occurs in sequence ``s``.
    """

    __slots__ = (
        "index", "starts", "ends", "offset", "count", "allowed", "has_pair", "bitmaps"
    )

    def __init__(
        self,
        level1: Mapping[EventKey, EventNode],
        n_sequences: int,
        pair_patterns: Mapping[
            tuple[EventKey, EventKey], frozenset[TemporalPattern]
        ] | None = None,
    ) -> None:
        nodes = [level1[event] for event in sorted(level1)]
        index, count = self.index, self.count = instance_counts(level1, n_sequences)
        self.offset = (np.cumsum(count) - count.ravel()).reshape(count.shape)
        occurs = np.pad(count > 0, ((0, 0), (0, -n_sequences % 64)))
        self.bitmaps = np.packbits(occurs, axis=1, bitorder="little").view("<u8")
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
    patterns: dict[TemporalPattern, PatternEntry] = field(default_factory=dict)

    @property
    def level(self) -> int:
        """Number of events in the combination."""
        return len(self.events)

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
