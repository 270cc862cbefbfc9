"""Conversion of the symbolic database into a sequence database (Section IV-B-2).

The paper splits every symbolic series into equal-length windows; each window
becomes one temporal sequence (one row of ``DSEQ``).  Because a hard split can
cut a pattern in half and lose it, consecutive windows may overlap by a duration
``tov`` with ``0 <= tov <= tmax`` (Fig. 3): ``tov = 0`` gives disjoint windows
(no redundancy, possible pattern loss), ``tov = tmax`` guarantees that every
pattern with duration at most ``tmax`` survives in at least one window.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from ..exceptions import ConfigurationError, DataError
from .sequences import EventInstance, SequenceDatabase, TemporalSequence
from .symbolic import SymbolicDatabase, closing_steps

__all__ = ["SplitConfig", "split_into_sequences"]


@dataclass(frozen=True)
class SplitConfig:
    """Parameters of the splitting strategy.

    Parameters
    ----------
    window_length:
        Duration of each temporal sequence (same time unit as the series).
    overlap:
        Overlap ``tov`` between consecutive windows; must satisfy
        ``0 <= overlap < window_length``.
    drop_symbols:
        Symbols whose intervals are *not* turned into event instances.  The
        paper mines both On and Off events for the energy data, but callers may
        drop uninformative states (e.g. ``{"Off"}``) to focus the search space.
    """

    window_length: float
    overlap: float = 0.0
    drop_symbols: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.window_length <= 0:
            raise ConfigurationError("window_length must be positive")
        if self.overlap < 0:
            raise ConfigurationError("overlap must be non-negative")
        if self.overlap >= self.window_length:
            raise ConfigurationError(
                "overlap must be smaller than window_length "
                f"(got overlap={self.overlap}, window_length={self.window_length})"
            )

    @property
    def stride(self) -> float:
        """Distance between the starts of consecutive windows."""
        return self.window_length - self.overlap


def split_into_sequences(
    symbolic_db: SymbolicDatabase, config: SplitConfig
) -> SequenceDatabase:
    """Split a symbolic database into a temporal sequence database.

    Every symbolic series is first converted into symbol intervals
    (:meth:`SymbolicSeries.to_intervals`); each window then receives the portion
    of every interval that intersects it, clipped to the window boundaries.  An
    event instance is added to a window only when its clipped duration is
    positive, so zero-length slivers at window boundaries are not created.

    A series' intervals are consecutive runs, so their starts and their ends
    are both sorted, and each window binary-searches the slice of intervals
    that can meet it instead of scanning them all.
    """
    if len(symbolic_db) == 0:
        raise DataError("cannot split an empty SymbolicDatabase")

    start, end = symbolic_db.time_span
    if end - start < config.window_length:
        # Single window covering everything.
        window_starts = [start]
    else:
        window_starts = []
        cursor = start
        while cursor < end:
            window_starts.append(cursor)
            following = cursor + config.stride
            if following <= cursor:
                raise ConfigurationError(
                    f"window_length={config.window_length} with overlap={config.overlap} "
                    f"gives a stride of {config.stride}, which no longer advances the "
                    f"window start at timestamp {cursor}: it is below the floating-point "
                    "spacing there; use a smaller overlap"
                )
            cursor = following

    # Intervals once per series, without the dropped symbols (reused by every window).
    kept_intervals = []
    for series, step in zip(symbolic_db, closing_steps(symbolic_db.series)):
        intervals = [
            interval
            for interval in series._intervals(step)
            if interval.symbol not in config.drop_symbols
        ]
        kept_intervals.append(
            (
                series.name,
                intervals,
                [interval.start for interval in intervals],
                [interval.end for interval in intervals],
            )
        )

    sequences = []
    for seq_id, window_start in enumerate(window_starts):
        window_end = window_start + config.window_length
        instances = []
        for name, intervals, starts, ends in kept_intervals:
            # Only intervals ending after the window start and starting before
            # the window end can have a positive clipped duration.
            first = bisect_right(ends, window_start)
            stop = bisect_left(starts, window_end, first)
            for interval in intervals[first:stop]:
                clipped_start = max(interval.start, window_start)
                clipped_end = min(interval.end, window_end)
                if clipped_end > clipped_start:
                    instances.append(
                        EventInstance(
                            start=clipped_start,
                            end=clipped_end,
                            series=name,
                            symbol=interval.symbol,
                        )
                    )
        if instances:
            sequences.append(TemporalSequence(seq_id, instances))

    if not sequences:
        raise DataError("splitting produced no non-empty sequences")
    return SequenceDatabase(sequences)
