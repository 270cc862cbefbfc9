"""Temporal sequences and the temporal sequence database ``DSEQ`` (Defs. 3.9–3.10).

An :class:`EventInstance` is a single occurrence of a temporal event: a
``(series, symbol)`` pair holding during a time interval.  A
:class:`TemporalSequence` is a chronologically ordered list of event instances,
and :class:`SequenceDatabase` collects the sequences obtained by splitting the
symbolic database (see :mod:`repro.timeseries.segmentation`).

The mining algorithms only ever consume :class:`SequenceDatabase`, so this is
the boundary between the data-transformation phase and the pattern-mining phase
of the FTPMfTS process (Fig. 2 of the paper).
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from operator import attrgetter

from ..exceptions import DataError

__all__ = ["EventInstance", "TemporalSequence", "SequenceDatabase"]


@dataclass(frozen=True, order=True, slots=True)
class EventInstance:
    """One occurrence of a temporal event (Def. 3.5).

    Ordering is by ``(start, end, series, symbol)`` so sorting a list of
    instances yields the chronological order required by Def. 3.9.

    The dataclass uses ``slots=True``: mining a dense database materialises
    millions of instances, and slots cut both the per-instance memory (no
    ``__dict__``) and the attribute-load cost on the scalar code paths that
    still touch instance objects.  Slots change the pickle wire shape, which
    is why the session-file envelope version was bumped when they were
    introduced (see :mod:`repro.io.session_io`).
    """

    start: float
    end: float
    series: str
    symbol: str

    def __post_init__(self) -> None:
        # Checked explicitly because NaN would slip past the `<` below
        # (every comparison with NaN is False) and corrupt the relation
        # kernel's endpoint arithmetic far from the bad input.
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise DataError(
                f"EventInstance for {self.series}:{self.symbol} has "
                f"non-finite interval [{self.start}, {self.end}]"
            )
        if self.end < self.start:
            raise DataError(
                f"EventInstance for {self.series}:{self.symbol} has end "
                f"({self.end}) before start ({self.start})"
            )

    @property
    def event_key(self) -> tuple[str, str]:
        """Identity of the temporal event this instance belongs to."""
        return (self.series, self.symbol)

    @property
    def duration(self) -> float:
        """Length of the occurrence interval."""
        return self.end - self.start

    def shift(self, offset: float) -> "EventInstance":
        """Return a copy translated in time by ``offset``."""
        return EventInstance(self.start + offset, self.end + offset, self.series, self.symbol)

    def __str__(self) -> str:
        return f"({self.series}:{self.symbol}, [{self.start:g}, {self.end:g}])"


#: Sort key giving :class:`EventInstance`'s dataclass order as a plain tuple,
#: so sorting compares tuples in C instead of calling the generated ``__lt__``.
_CHRONOLOGICAL = attrgetter("start", "end", "series", "symbol")


@dataclass
class TemporalSequence:
    """A chronologically ordered list of event instances (Def. 3.9).

    Exact duplicates (same event, same interval) are collapsed into one
    instance: a second identical occurrence carries no additional temporal
    information and would make self-relations ambiguous.
    """

    sequence_id: int
    instances: list[EventInstance] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.instances = sorted(set(self.instances), key=_CHRONOLOGICAL)

    # ------------------------------------------------------------------ basics
    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self) -> Iterator[EventInstance]:
        return iter(self.instances)

    def __getitem__(self, index: int) -> EventInstance:
        return self.instances[index]

    @property
    def span(self) -> tuple[float, float]:
        """(earliest start, latest end) over the contained instances."""
        if not self.instances:
            raise DataError(f"sequence {self.sequence_id} is empty")
        return (
            min(i.start for i in self.instances),
            max(i.end for i in self.instances),
        )

    # ------------------------------------------------------------------ queries
    def event_keys(self) -> set[tuple[str, str]]:
        """Distinct temporal events occurring in this sequence."""
        return {i.event_key for i in self.instances}

    def instances_of(self, event_key: tuple[str, str]) -> list[EventInstance]:
        """All instances of one temporal event, chronologically ordered."""
        return [i for i in self.instances if i.event_key == event_key]

    def contains_event(self, event_key: tuple[str, str]) -> bool:
        """True when at least one instance of the event occurs (Def. 3.13)."""
        return any(i.event_key == event_key for i in self.instances)

    def add(self, instance: EventInstance) -> None:
        """Insert an instance, keeping chronological order (duplicates ignored)."""
        if instance in self.instances:
            return
        self.instances.append(instance)
        self.instances.sort(key=_CHRONOLOGICAL)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"TemporalSequence(id={self.sequence_id}, n_instances={len(self.instances)})"


@dataclass
class SequenceDatabase:
    """The temporal sequence database ``DSEQ`` (Def. 3.10)."""

    sequences: list[TemporalSequence] = field(default_factory=list)

    def __post_init__(self) -> None:
        ids = [s.sequence_id for s in self.sequences]
        if len(ids) != len(set(ids)):
            raise DataError("duplicate sequence ids in SequenceDatabase")

    # ------------------------------------------------------------------ basics
    def __len__(self) -> int:
        return len(self.sequences)

    def __iter__(self) -> Iterator[TemporalSequence]:
        return iter(self.sequences)

    def __getitem__(self, index: int) -> TemporalSequence:
        return self.sequences[index]

    @property
    def size(self) -> int:
        """Number of sequences, ``|DSEQ|``."""
        return len(self.sequences)

    # ------------------------------------------------------------------ statistics
    def event_keys(self) -> list[tuple[str, str]]:
        """All distinct temporal events, in first-appearance order."""
        seen: dict[tuple[str, str], None] = {}
        for sequence in self.sequences:
            for instance in sequence:
                seen.setdefault(instance.event_key, None)
        return list(seen.keys())

    def series_names(self) -> list[str]:
        """All distinct series names appearing in the database."""
        seen: dict[str, None] = {}
        for sequence in self.sequences:
            for instance in sequence:
                seen.setdefault(instance.series, None)
        return list(seen.keys())

    def event_support_counts(self) -> dict[tuple[str, str], int]:
        """Sequence-level support of every event (Def. 3.13), in one pass."""
        counts: dict[tuple[str, str], int] = defaultdict(int)
        for sequence in self.sequences:
            for event_key in sequence.event_keys():
                counts[event_key] += 1
        return dict(counts)

    def average_instances_per_sequence(self) -> float:
        """Average number of event instances per sequence (dataset statistic)."""
        if not self.sequences:
            return 0.0
        return sum(len(s) for s in self.sequences) / len(self.sequences)

    # ------------------------------------------------------------------ filtering
    def restrict_to_series(self, names: Iterable[str]) -> "SequenceDatabase":
        """Keep only instances whose series is in ``names``.

        Used by A-HTPGM to drop uncorrelated time series before mining.  Empty
        sequences are retained (with no instances) so sequence ids and
        ``|DSEQ|`` — and therefore relative supports — are unchanged.
        """
        keep = set(names)
        restricted = []
        for sequence in self.sequences:
            instances = [i for i in sequence if i.series in keep]
            restricted.append(TemporalSequence(sequence.sequence_id, instances))
        return SequenceDatabase(restricted)

    def subset(self, fraction: float) -> "SequenceDatabase":
        """Return the first ``fraction`` (0–1] of sequences (scalability sweeps)."""
        if not 0 < fraction <= 1:
            raise DataError(f"fraction must be in (0, 1], got {fraction}")
        count = max(1, int(round(fraction * len(self.sequences))))
        return SequenceDatabase(self.sequences[:count])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SequenceDatabase(n_sequences={len(self.sequences)}, "
            f"n_events={len(self.event_keys())})"
        )
