"""Persistence of incremental mining sessions.

A :class:`~repro.core.session.MiningSession` holds everything an append needs:
the level-1 instance lists of every event (frequent or not), the node trees
with their occurrence evidence, the configuration and the statistics.
:func:`write_session` snapshots that state to a file and :func:`read_session`
restores it, so the typical production loop becomes::

    repro mine  --input day1.csv ... --session state.bin --output p1.json
    repro mine  --append day2.csv ... --session state.bin --output p2.json

The payload is a versioned pickle envelope over exactly the object shapes
that already cross process boundaries inside
:class:`~repro.core.engine.LevelContext` (``EventNode``, ``CombinationNode``,
``PatternEntry``, ``MiningConfig``, ``MiningStatistics``) — anything a worker
can evaluate, a session file can persist.  Each ``PatternEntry`` pickles as
its pattern plus the two arrays of its occurrence store (format version 6),
and :func:`read_session` checks the level-1 state and every entry whole on
load: each event's node and its sequence ids (inside ``[0, n_sequences)``,
each with a non-empty instance list), then each entry's array layout, its
sorted sequence ids, one per row, and every index against a per-(event,
sequence) instance-count matrix built once per load.  A version-5 file's
entries are converted on load (:func:`_from_version_5`).
Like any pickle, a session file is a trusted artefact: only load files you
wrote.

Sessions carrying A-HTPGM's event/pair filters cannot be serialised
(arbitrary callables do not round-trip through a file).  Every other mined
session can be: every backend keeps the full occurrence store, so any saved
graph can honour a later append.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path

import numpy as np

from ..core.config import MiningConfig
from ..core.hpg import EventNode, HierarchicalPatternGraph, PatternEntry, instance_counts
from ..core.session import MiningSession
from ..core.stats import MiningStatistics
from ..exceptions import MiningError, SessionFormatError

__all__ = ["read_session", "write_session"]

#: Envelope identity and schema version of the session file format.
#: Version history:
#:
#: 1. Initial format (dict-based ``EventInstance`` pickles).
#: 2. ``EventInstance`` became a ``slots=True`` dataclass, which changes the
#:    pickled per-instance state from a ``__dict__`` payload to the
#:    field-value sequence consumed by the dataclass-generated
#:    ``__setstate__``.  A version-1 payload would *not* fail to unpickle —
#:    ``__setstate__`` zips the fields with the state, and iterating the old
#:    dict state yields its **keys**, silently assigning ``start="start"``
#:    etc. — so the version gate below is what turns that silent corruption
#:    into a clean :class:`DataError`.
#: 3. ``PatternEntry`` stores occurrences as columnar per-sequence int32
#:    index matrices instead of instance-tuple lists (smaller files, and the
#:    wire shape changed from an ``occurrences`` dict to an ``index`` dict).
#:    Later version-3 files also carry a ``mining_state`` key.
#: 4. The pickled ``MiningConfig`` lost two fields (the shared-memory
#:    transport flag and the kernel-crossover override), and every file
#:    carries ``mining_state`` — the progress marker of an interrupted
#:    checkpointed run (see ``MiningConfig.checkpoint_path``), ``None`` for
#:    a complete session.
#: 5. ``PatternEntry`` stores its evidence in CSR layout: the pickled state
#:    is the pattern plus three arrays — ``sequences`` (strictly ascending
#:    ``int32`` ids), ``offsets`` (``int64`` row bounds, one non-empty run
#:    per sequence) and ``rows`` (one ``(n, k)`` ``int32`` block) — instead
#:    of an ``index`` dict of per-sequence matrices.  A file written while
#:    ``MiningConfig`` still had its scalar-path switch and pass chunk budget
#:    loads too: its config keeps the two old keys in its ``__dict__``, which
#:    no comparison, hash or ``replace()`` of the dataclass reads.  A file
#:    whose nodes still carry a ``bitmap`` (the retired
#:    ``repro.core.bitmap.Bitmap``) loads too: :class:`_SessionUnpickler`
#:    reads each as a :class:`_RetiredBitmap`, and :func:`read_session`
#:    drops it (an event's sequence set is its instance dict's keys).
#: 6. ``PatternEntry`` stores one ``int32`` sequence id per row instead of
#:    one per run: the pickled state is the pattern plus ``sequences``
#:    (non-decreasing, one per row) and ``rows``.  Version-5 entries are
#:    converted on load (:func:`_from_version_5`).
#:
#: Versions 5 and 6 are read; files of any older version raise
#: :class:`~repro.exceptions.SessionFormatError` and must be re-mined.
FORMAT_NAME = "repro-mining-session"
FORMAT_VERSION = 6
#: Versions :func:`read_session` accepts.
READABLE_VERSIONS = (5, FORMAT_VERSION)


def _is_count(value: object) -> bool:
    """A non-negative ``int`` (a ``bool`` is not a count)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_progress(value: object) -> bool:
    """A progress marker: ``None`` for a complete run, else the next level."""
    return value is None or (
        isinstance(value, dict) and _is_count(value.get("next_level"))
    )


class _RetiredBitmap:
    """Stand-in for the retired ``repro.core.bitmap.Bitmap`` (same slots)."""

    __slots__ = ("_bits", "_length")


class _PickledEntry:
    """A ``PatternEntry`` as unpickled from a file, before its version is
    known: its pickled state is its ``__dict__``."""


class _SessionUnpickler(pickle.Unpickler):
    """The session reader's unpickler: reads the retired ``Bitmap`` of an
    older format-5 file as a :class:`_RetiredBitmap`, and every entry as a
    :class:`_PickledEntry`, so entries of any version unpickle and
    :func:`read_session` builds them once it knows the version."""

    stand_ins = {
        ("repro.core.bitmap", "Bitmap"): _RetiredBitmap,
        ("repro.core.hpg", "PatternEntry"): _PickledEntry,
    }

    def find_class(self, module: str, name: str):
        return self.stand_ins.get((module, name)) or super().find_class(module, name)


def _from_version_5(pattern, sequences, offsets, rows) -> PatternEntry:
    """A version-5 entry's pickled state — ``sequences`` one ``int32`` id
    per sequence run, strictly ascending, and ``offsets`` the ``int64`` run
    bounds from 0 to the row count, strictly increasing — as a
    ``PatternEntry`` with one id per row.  Raises :class:`ValueError` for
    state that breaks those rules."""
    runs = np.diff(offsets)
    if (
        offsets.ndim != 1
        or offsets.dtype != np.int64
        or len(offsets) != len(sequences) + 1
        or offsets[0] != 0
        or offsets[-1] != len(rows)
        or (runs <= 0).any()
    ):
        raise ValueError(
            f"offsets of {pattern!r} do not split its {len(rows)} rows into "
            "one non-empty run per sequence"
        )
    if (np.diff(sequences) <= 0).any():
        raise ValueError(f"sequence ids of {pattern!r} are not strictly ascending")
    return PatternEntry(pattern, np.repeat(sequences, runs), rows)


def _check_event_node(key: object, node: object, n_sequences: int) -> None:
    """Raise :class:`ValueError`, naming the event, unless ``node`` is
    ``key``'s EventNode with non-empty lists under ids in ``[0, n_sequences)``:
    a negative id would count its list in the last sequence's column of every
    instance table, and an empty list would inflate the support."""
    if not isinstance(node, EventNode) or node.event != key:
        raise ValueError(f"events[{key!r}] is not the EventNode of {key!r}")
    for sequence_id, instances in node.instances_by_sequence.items():
        if not _is_count(sequence_id) or sequence_id >= n_sequences:
            raise ValueError(
                f"event {key!r} lists sequence id {sequence_id!r} outside "
                f"[0, {n_sequences})"
            )
        if not instances:
            raise ValueError(
                f"event {key!r} holds an empty instance list for sequence "
                f"{sequence_id}"
            )


#: The envelope's session fields and the check each must pass on load.
_FIELD_CHECKS = {
    "config": lambda value: isinstance(value, MiningConfig),
    "n_sequences": _is_count,
    "events": lambda value: isinstance(value, dict),
    "level1_keys": lambda value: isinstance(value, list),
    "levels": lambda value: isinstance(value, dict),
    "statistics": lambda value: isinstance(value, MiningStatistics),
    "appends": _is_count,
    "mining_state": _is_progress,
}


def write_session(session: MiningSession, path: str | Path) -> Path:
    """Snapshot a mined, appendable session to ``path``.

    The write is atomic: the payload goes to a temporary file in the same
    directory, is flushed and fsynced, and only then renamed over ``path``
    via :func:`os.replace`.  A crash (or a pickling failure) mid-write
    therefore never truncates or corrupts an existing session file — the
    production loop's previous snapshot survives intact.
    """
    if session.graph is None:
        raise MiningError("cannot save a session before mine() has populated it")
    if session.event_filter is not None or session.pair_filter is not None:
        raise MiningError(
            "sessions carrying event/pair filters cannot be serialised; "
            "filters are arbitrary callables"
        )
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "config": session.config,
        "n_sequences": session.n_sequences,
        "events": session.events,
        "level1_keys": list(session.graph.level1.keys()),
        "levels": session.graph.levels,
        "statistics": session.statistics,
        "appends": session.appends,
        "mining_state": session._mining_state,
    }
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except FileNotFoundError:
            pass
        raise
    return path


def read_session(path: str | Path) -> MiningSession:
    """Restore a session written by :func:`write_session`.

    Any malformed file — truncated, corrupted, a foreign pickle, an
    unsupported format version, malformed level-1 state, internally
    inconsistent evidence — raises
    :class:`~repro.exceptions.SessionFormatError` carrying the path and the
    detected format version.  A missing or unreadable file raises the plain
    ``OSError`` from ``open`` (a usage problem, not a corrupt artefact).
    """
    path = Path(path)
    with path.open("rb") as handle:
        try:
            payload = _SessionUnpickler(handle).load()
        except Exception as error:
            # Corrupt or truncated pickles fail in wildly different ways
            # (UnpicklingError, EOFError, AttributeError, ImportError, ...);
            # every one of them means the same thing here.
            raise SessionFormatError(
                f"{path} is not a readable mining-session file: {error}",
                path=path,
            ) from error
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
        raise SessionFormatError(
            f"{path} is not a mining-session file", path=path
        )
    version = payload.get("version")
    if version not in READABLE_VERSIONS:
        older = isinstance(version, int) and version < READABLE_VERSIONS[0]
        raise SessionFormatError(
            f"{path} uses session format version {version!r}; this build "
            f"reads versions {' and '.join(map(str, READABLE_VERSIONS))}"
            + ("; re-mine to upgrade" if older else ""),
            path=path,
            version=version if isinstance(version, int) else None,
        )

    for name, valid in _FIELD_CHECKS.items():
        if name not in payload:
            raise SessionFormatError(
                f"{path} is missing session payload entry {name!r}",
                path=path,
                version=version,
            )
        if not valid(payload[name]):
            raise SessionFormatError(
                f"{path} holds a malformed session payload entry {name!r} "
                f"(a {type(payload[name]).__name__})",
                path=path,
                version=version,
            )
    session = MiningSession(config=payload["config"])
    session.n_sequences = payload["n_sequences"]
    session.events = payload["events"]
    session.statistics = payload["statistics"]
    session.appends = payload["appends"]
    session._mining_state = payload["mining_state"]
    build = _from_version_5 if version == 5 else PatternEntry
    try:
        for key, node in session.events.items():
            _check_event_node(key, node, session.n_sequences)
            # An older format-5 file's node bitmaps (see FORMAT_VERSION).
            vars(node).pop("bitmap", None)
        for nodes in payload["levels"].values():
            for node in nodes.values():
                vars(node).pop("bitmap", None)
                node.patterns = {
                    pattern: build(**vars(stored))
                    for pattern, stored in node.patterns.items()
                }
        # Level-1 nodes are the same objects as their ``events`` entries
        # (pickle preserves identity within one payload), so the graph is
        # rebuilt by key.
        session.graph = HierarchicalPatternGraph(
            n_sequences=payload["n_sequences"],
            level1={key: payload["events"][key] for key in payload["level1_keys"]},
            levels=payload["levels"],
        )
        # One per-(event, sequence) instance-count matrix for the whole load.
        index, count = instance_counts(session.graph.level1, session.n_sequences)
        for _level, _node, entry in session.graph.iter_pattern_entries():
            # Check the whole entry against the loaded instance lists its
            # rows point into — corrupted evidence would otherwise inflate a
            # support or materialise the wrong instance silently (negative
            # indexing).
            entry.validate_indices(index, count)
    except (KeyError, IndexError, TypeError, AttributeError, ValueError) as error:
        raise SessionFormatError(
            f"{path} holds malformed level-1 instance lists or occurrence "
            f"evidence inconsistent with them: {error!r}",
            path=path,
            version=version,
        ) from error
    return session
