"""Persistence of incremental mining sessions.

A :class:`~repro.core.session.MiningSession` holds everything an append needs:
level-1 bitmaps and instance lists of every event (frequent or not), the node
trees with their occurrence evidence, the configuration and the statistics.
:func:`write_session` snapshots that state to a file and :func:`read_session`
restores it, so the typical production loop becomes::

    repro mine  --input day1.csv ... --session state.bin --output p1.json
    repro mine  --append day2.csv ... --session state.bin --output p2.json

The payload is a versioned pickle envelope over exactly the object shapes
that already cross process boundaries inside
:class:`~repro.core.engine.LevelContext` (``EventNode``, ``CombinationNode``,
``PatternEntry``, ``MiningConfig``, ``MiningStatistics``) — anything a worker
can evaluate, a session file can persist.  Like any pickle, a session file is
a trusted artefact: only load files you wrote.

Sessions carrying A-HTPGM's event/pair filters cannot be serialised
(arbitrary callables do not round-trip through a file), and only sessions
mined with ``retain_occurrences=True`` are accepted — a summarised graph
could not honour a later append.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path

from ..core.hpg import HierarchicalPatternGraph
from ..core.session import MiningSession
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
#:
#: Only the current version is read; files of any older version raise
#: :class:`~repro.exceptions.SessionFormatError` and must be re-mined.
FORMAT_NAME = "repro-mining-session"
FORMAT_VERSION = 4
#: Versions :func:`read_session` accepts.
READABLE_VERSIONS = (FORMAT_VERSION,)


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
    if not session.retain_occurrences:
        raise MiningError(
            "cannot save a session mined without retained occurrences; "
            "appends against it would be impossible"
        )
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
    unsupported format version, internally inconsistent evidence — raises
    :class:`~repro.exceptions.SessionFormatError` carrying the path and the
    detected format version.  A missing or unreadable file raises the plain
    ``OSError`` from ``open`` (a usage problem, not a corrupt artefact).
    """
    path = Path(path)
    with path.open("rb") as handle:
        try:
            payload = pickle.load(handle)
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
        older = isinstance(version, int) and version < FORMAT_VERSION
        raise SessionFormatError(
            f"{path} uses session format version {version!r}; this build "
            f"reads version {FORMAT_VERSION} only"
            + ("; re-mine to upgrade" if older else ""),
            path=path,
            version=version if isinstance(version, int) else None,
        )

    try:
        session = MiningSession(config=payload["config"], retain_occurrences=True)
        session.n_sequences = payload["n_sequences"]
        session.events = payload["events"]
        # Level-1 nodes are the same objects as their ``events`` entries
        # (pickle preserves identity within one payload), so the graph is
        # rebuilt by key.
        session.graph = HierarchicalPatternGraph(
            n_sequences=payload["n_sequences"],
            level1={key: payload["events"][key] for key in payload["level1_keys"]},
            levels=payload["levels"],
        )
        session.statistics = payload["statistics"]
        session.appends = payload["appends"]
        session._mining_state = payload["mining_state"]
    except KeyError as error:
        raise SessionFormatError(
            f"{path} is missing session payload entry {error}",
            path=path,
            version=version,
        ) from error
    try:
        for _level, _node, entry in session.graph.iter_pattern_entries():
            # Index matrices travel bare; re-attach the loaded instance lists
            # so the lazy tuple views (and future appends) resolve, and range-
            # check every index — a corrupted matrix would otherwise
            # materialise the wrong instance silently (negative indexing).
            entry.bind_sources(session.graph.level1)
            entry.validate_indices()
    except (KeyError, IndexError, TypeError, AttributeError, ValueError) as error:
        raise SessionFormatError(
            f"{path} holds occurrence evidence inconsistent with its "
            f"level-1 instance lists: {error!r}",
            path=path,
            version=version,
        ) from error
    return session
