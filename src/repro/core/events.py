"""Temporal events (paper Defs. 3.4–3.5).

A *temporal event* is a ``(series, symbol)`` pair together with the set of time
intervals during which the series holds that symbol.  Throughout the library an
event is identified by its :data:`EventKey` — the plain ``(series, symbol)``
tuple — and the :class:`TemporalEvent` class groups the instances observed in a
sequence database for inspection and reporting.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from ..timeseries.sequences import EventInstance, SequenceDatabase

__all__ = ["EventKey", "format_event", "parse_event", "TemporalEvent", "collect_events"]

#: Identity of a temporal event: ``(series name, symbol)``.
EventKey = tuple[str, str]


def format_event(key: EventKey) -> str:
    """Human-readable rendering of an event key, e.g. ``"Kitchen:On"``."""
    series, symbol = key
    return f"{series}:{symbol}"


def parse_event(text: str) -> EventKey:
    """Inverse of :func:`format_event`.

    The series name may itself contain ``":"``; the split happens at the last
    colon so ``"sensor:1:On"`` parses as ``("sensor:1", "On")``.
    """
    series, _, symbol = text.rpartition(":")
    if not series or not symbol:
        raise ValueError(f"cannot parse event from {text!r}; expected 'series:symbol'")
    return (series, symbol)


@dataclass
class TemporalEvent:
    """A temporal event and the instances supporting it (Def. 3.4).

    ``instances_by_sequence`` maps a sequence id to the chronologically ordered
    instances of the event observed in that sequence.
    """

    key: EventKey
    instances_by_sequence: dict[int, list[EventInstance]] = field(default_factory=dict)

    @property
    def series(self) -> str:
        """Name of the originating time series."""
        return self.key[0]

    @property
    def symbol(self) -> str:
        """Symbol the series holds during the event."""
        return self.key[1]

    @property
    def support(self) -> int:
        """Number of sequences containing at least one instance (Def. 3.13)."""
        return len(self.instances_by_sequence)

    @property
    def instance_count(self) -> int:
        """Total number of instances across all sequences."""
        return sum(len(v) for v in self.instances_by_sequence.values())

    def instances_in(self, sequence_id: int) -> list[EventInstance]:
        """Instances observed in one sequence (empty list when absent)."""
        return self.instances_by_sequence.get(sequence_id, [])

    def __str__(self) -> str:
        return format_event(self.key)


def collect_events(database: SequenceDatabase) -> dict[EventKey, TemporalEvent]:
    """Scan a sequence database once and group instances per temporal event.

    This is the single database scan performed by the first HTPGM step; the
    result feeds the per-node instance lists kept in level ``L1`` of the
    Hierarchical Pattern Graph, whose keys are each event's sequence set.
    """
    grouped: dict[EventKey, dict[int, list[EventInstance]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for sequence in database:
        for instance in sequence:
            grouped[instance.event_key][sequence.sequence_id].append(instance)
    events = {}
    for key, by_sequence in grouped.items():
        ordered = {
            seq_id: sorted(instances) for seq_id, instances in by_sequence.items()
        }
        events[key] = TemporalEvent(key=key, instances_by_sequence=ordered)
    return events
