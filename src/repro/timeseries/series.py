"""Raw time-series containers.

The paper (Def. 3.1) models a time series as a chronologically ordered sequence
of numeric values measuring one phenomenon.  :class:`TimeSeries` stores the
values together with their timestamps (floats, by convention minutes since the
start of the observation period) and offers the small amount of functionality
the FTPMfTS pipeline needs: validation, slicing by time, resampling onto a
regular grid and basic statistics used by the symbolisers.

:class:`TimeSeriesSet` is the collection type corresponding to the paper's
``X = {X1, ..., Xn}``: an ordered, name-addressable set of aligned series.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import DataError

__all__ = ["TimeSeries", "TimeSeriesSet"]


@dataclass
class TimeSeries:
    """A single univariate time series.

    Parameters
    ----------
    name:
        Identifier of the measured phenomenon (e.g. ``"Microwave"``).
    timestamps:
        Strictly increasing observation times (minutes).
    values:
        Measured values, one per timestamp.
    """

    name: str
    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.timestamps.ndim != 1 or self.values.ndim != 1:
            raise DataError(f"series {self.name!r}: timestamps and values must be 1-D")
        if len(self.timestamps) != len(self.values):
            raise DataError(
                f"series {self.name!r}: {len(self.timestamps)} timestamps but "
                f"{len(self.values)} values"
            )
        if len(self.timestamps) == 0:
            raise DataError(f"series {self.name!r}: empty series")
        # Non-finite check first: NaN passes every ordering comparison below
        # (all comparisons with NaN are False), so without it a NaN-laced
        # grid would sail through as "strictly increasing".
        if not np.all(np.isfinite(self.timestamps)):
            raise DataError(f"series {self.name!r}: timestamps must be finite")
        diffs = np.diff(self.timestamps)
        if np.any(diffs <= 0):
            raise DataError(f"series {self.name!r}: timestamps must be strictly increasing")

    # ------------------------------------------------------------------ basics
    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self.timestamps.tolist(), self.values.tolist()))

    @property
    def start_time(self) -> float:
        """First observation timestamp."""
        return float(self.timestamps[0])

    @property
    def end_time(self) -> float:
        """Last observation timestamp."""
        return float(self.timestamps[-1])

    @property
    def duration(self) -> float:
        """Observation span ``end_time - start_time``."""
        return self.end_time - self.start_time

    @property
    def sampling_interval(self) -> float:
        """Median gap between consecutive observations."""
        if len(self) < 2:
            return 0.0
        return float(np.median(np.diff(self.timestamps)))

    # ------------------------------------------------------------------ constructors
    @classmethod
    def from_values(
        cls, name: str, values: Sequence[float], start: float = 0.0, step: float = 1.0
    ) -> "TimeSeries":
        """Build a regularly sampled series from raw values.

        ``step`` is the sampling interval and ``start`` the timestamp of the
        first value.
        """
        values = np.asarray(list(values), dtype=float)
        timestamps = start + step * np.arange(len(values), dtype=float)
        return cls(name=name, timestamps=timestamps, values=values)

    # ------------------------------------------------------------------ operations
    def slice_time(self, start: float, end: float) -> "TimeSeries":
        """Return the sub-series with timestamps in ``[start, end)``.

        Raises :class:`DataError` if the window contains no observations.
        """
        mask = (self.timestamps >= start) & (self.timestamps < end)
        if not np.any(mask):
            raise DataError(
                f"series {self.name!r}: no observations in window [{start}, {end})"
            )
        return TimeSeries(self.name, self.timestamps[mask], self.values[mask])

    def resample(self, step: float) -> "TimeSeries":
        """Resample onto a regular grid of interval ``step`` (previous-value hold).

        The FTPMfTS transformation assumes regularly sampled input; simulated and
        real datasets with jitter are regularised with this method first.
        """
        if step <= 0:
            raise DataError("resample step must be positive")
        grid = np.arange(self.start_time, self.end_time + step / 2, step)
        idx = np.searchsorted(self.timestamps, grid, side="right") - 1
        idx = np.clip(idx, 0, len(self) - 1)
        return TimeSeries(self.name, grid, self.values[idx])

    def statistics(self) -> dict[str, float]:
        """Summary statistics used by quantile-based symbolisers."""
        return {
            "min": float(np.min(self.values)),
            "max": float(np.max(self.values)),
            "mean": float(np.mean(self.values)),
            "std": float(np.std(self.values)),
            "median": float(np.median(self.values)),
        }

    def percentile(self, q: float) -> float:
        """Return the ``q``-th percentile (0–100) of the values."""
        if not 0 <= q <= 100:
            raise DataError(f"percentile must be in [0, 100], got {q}")
        return float(np.percentile(self.values, q))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TimeSeries(name={self.name!r}, n={len(self)}, "
            f"span=[{self.start_time:g}, {self.end_time:g}])"
        )


@dataclass
class TimeSeriesSet:
    """An ordered collection of named time series (the paper's ``X``).

    Series are addressable by name and iteration preserves insertion order so
    experiments are reproducible.
    """

    series: list[TimeSeries] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [s.name for s in self.series]
        if len(names) != len(set(names)):
            raise DataError("duplicate series names in TimeSeriesSet")
        self._by_name = {s.name: s for s in self.series}

    # ------------------------------------------------------------------ mapping API
    def __len__(self) -> int:
        return len(self.series)

    def __iter__(self) -> Iterator[TimeSeries]:
        return iter(self.series)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> TimeSeries:
        try:
            return self._by_name[name]
        except KeyError:
            raise DataError(f"unknown series {name!r}") from None

    @property
    def names(self) -> list[str]:
        """Series names, in insertion order."""
        return [s.name for s in self.series]

    # ------------------------------------------------------------------ mutation
    def add(self, series: TimeSeries) -> None:
        """Append a series; names must stay unique."""
        if series.name in self._by_name:
            raise DataError(f"series {series.name!r} already present")
        self.series.append(series)
        self._by_name[series.name] = series

    def select(self, names: Iterable[str]) -> "TimeSeriesSet":
        """Return a new set restricted to ``names`` (order follows ``names``)."""
        return TimeSeriesSet([self[name] for name in names])

    # ------------------------------------------------------------------ alignment
    @property
    def time_span(self) -> tuple[float, float]:
        """(earliest start, latest end) across all series."""
        if not self.series:
            raise DataError("empty TimeSeriesSet has no time span")
        start = min(s.start_time for s in self.series)
        end = max(s.end_time for s in self.series)
        return start, end

    def is_aligned(self) -> bool:
        """True when all series share identical timestamps."""
        if len(self.series) <= 1:
            return True
        first = self.series[0].timestamps
        return all(
            s.timestamps is first
            or (len(s.timestamps) == len(first) and np.allclose(s.timestamps, first))
            for s in self.series[1:]
        )

    def align(self, step: float | None = None) -> "TimeSeriesSet":
        """Resample every series onto a common regular grid.

        When ``step`` is omitted the smallest median sampling interval across the
        series is used.  Returns a new, aligned :class:`TimeSeriesSet`.
        """
        if not self.series:
            raise DataError("cannot align an empty TimeSeriesSet")
        if step is None:
            candidates = [s.sampling_interval for s in self.series if s.sampling_interval > 0]
            if not candidates:
                raise DataError("cannot infer sampling interval for alignment")
            step = min(candidates)
        start, end = self.time_span
        grid = np.arange(start, end + step / 2, step)
        aligned = []
        for s in self.series:
            idx = np.searchsorted(s.timestamps, grid, side="right") - 1
            idx = np.clip(idx, 0, len(s) - 1)
            aligned.append(TimeSeries(s.name, grid.copy(), s.values[idx]))
        return TimeSeriesSet(aligned)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"TimeSeriesSet(n_series={len(self.series)})"
