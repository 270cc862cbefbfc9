"""Symbolic series and symbolic database (paper Defs. 3.2–3.4).

A :class:`SymbolicSeries` is the symbol-encoded form of one time series; the
collection of all symbolic series forms the symbolic database ``DSYB``
(:class:`SymbolicDatabase`).  Besides holding symbols, this module implements

* the conversion of a symbolic series into **temporal event instances** by
  merging runs of identical consecutive symbols into time intervals
  (Def. 3.4), and
* marginal and joint symbol distributions over the aligned time steps, which
  the mutual-information machinery of A-HTPGM consumes.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import DataError

__all__ = ["SymbolInterval", "SymbolicSeries", "SymbolicDatabase"]


@dataclass(frozen=True)
class SymbolInterval:
    """A maximal run of one symbol: the series holds ``symbol`` during [start, end].

    ``end`` is the timestamp at which the run stops being observed (the start of
    the next run, or the last timestamp plus one sampling step for the final
    run), so intervals of consecutive runs share their boundary.
    """

    symbol: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Length of the interval."""
        return self.end - self.start

    def __post_init__(self) -> None:
        # math.isfinite also rejects NaN, which the `<` check alone would
        # accept (NaN comparisons are always False) and which would then
        # poison every duration/overlap computation downstream.
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise DataError(
                f"SymbolInterval bounds must be finite, got "
                f"[{self.start}, {self.end}]"
            )
        if self.end < self.start:
            raise DataError(
                f"SymbolInterval end ({self.end}) precedes start ({self.start})"
            )


@dataclass
class SymbolicSeries:
    """Symbol-encoded time series ``XS`` (Def. 3.2)."""

    name: str
    timestamps: np.ndarray
    symbols: list[str]
    alphabet: tuple[str, ...]

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        if not np.all(np.isfinite(self.timestamps)):
            raise DataError(
                f"symbolic series {self.name!r}: timestamps must be finite"
            )
        if len(self.timestamps) != len(self.symbols):
            raise DataError(
                f"symbolic series {self.name!r}: {len(self.timestamps)} timestamps "
                f"but {len(self.symbols)} symbols"
            )
        if len(self.symbols) == 0:
            raise DataError(f"symbolic series {self.name!r}: empty series")
        unknown = set(self.symbols) - set(self.alphabet)
        if unknown:
            raise DataError(
                f"symbolic series {self.name!r}: symbols {sorted(unknown)} "
                f"not in alphabet {self.alphabet}"
            )

    # ------------------------------------------------------------------ basics
    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[tuple[float, str]]:
        return iter(zip(self.timestamps.tolist(), self.symbols))

    @property
    def sampling_interval(self) -> float:
        """Median gap between consecutive timestamps (0 for singleton series)."""
        if len(self) < 2:
            return 0.0
        return float(np.median(np.diff(self.timestamps)))

    # ------------------------------------------------------------------ distributions
    def symbol_counts(self) -> Counter[str]:
        """Occurrence counts per symbol (over time steps)."""
        return Counter(self.symbols)

    def codes(self) -> np.ndarray:
        """Symbols encoded as integer indices into the alphabet (cached).

        The joint-distribution and mutual-information computations of A-HTPGM
        are quadratic in the number of series, so per-series encoding work is
        done once and reused.
        """
        cached = getattr(self, "_codes", None)
        if cached is None or len(cached) != len(self.symbols):
            index = {symbol: position for position, symbol in enumerate(self.alphabet)}
            cached = np.fromiter(
                map(index.__getitem__, self.symbols), dtype=np.int64, count=len(self.symbols)
            )
            self._codes = cached
        return cached

    def distribution(self) -> dict[str, float]:
        """Empirical marginal probability of each alphabet symbol.

        Symbols that never occur get probability 0 so the alphabet is always
        fully represented (needed by the entropy computations).
        """
        counts = np.bincount(self.codes(), minlength=len(self.alphabet))
        n = len(self)
        return {
            symbol: counts[position] / n
            for position, symbol in enumerate(self.alphabet)
        }

    # ------------------------------------------------------------------ events
    def to_intervals(self) -> list[SymbolInterval]:
        """Merge runs of identical consecutive symbols into intervals (Def. 3.4).

        The closing timestamp of a run is the starting timestamp of the next run;
        the final run closes one sampling interval after its last observation so
        it has a non-zero duration even when it covers a single time step.
        """
        step = self.sampling_interval or 1.0
        codes = self.codes()
        # Index of the first sample of every run after the first one.
        boundaries = np.flatnonzero(codes[1:] != codes[:-1]) + 1
        starts = [0, *boundaries.tolist()]
        start_times = self.timestamps[starts].tolist()
        end_times = self.timestamps[boundaries].tolist()
        end_times.append(float(self.timestamps[-1]) + step)
        return [
            SymbolInterval(self.symbols[first], start, end)
            for first, start, end in zip(starts, start_times, end_times)
        ]

    def slice_time(self, start: float, end: float) -> "SymbolicSeries":
        """Sub-series with timestamps in ``[start, end)``."""
        mask = (self.timestamps >= start) & (self.timestamps < end)
        if not np.any(mask):
            raise DataError(
                f"symbolic series {self.name!r}: no samples in window [{start}, {end})"
            )
        symbols = [s for s, keep in zip(self.symbols, mask.tolist()) if keep]
        return SymbolicSeries(self.name, self.timestamps[mask], symbols, self.alphabet)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SymbolicSeries(name={self.name!r}, n={len(self)}, alphabet={self.alphabet})"


@dataclass
class SymbolicDatabase:
    """The symbolic database ``DSYB`` (Def. 3.3): all symbolic series of a dataset."""

    series: list[SymbolicSeries] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [s.name for s in self.series]
        if len(names) != len(set(names)):
            raise DataError("duplicate series names in SymbolicDatabase")
        self._by_name = {s.name: s for s in self.series}

    # ------------------------------------------------------------------ mapping API
    def __len__(self) -> int:
        return len(self.series)

    def __iter__(self) -> Iterator[SymbolicSeries]:
        return iter(self.series)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> SymbolicSeries:
        try:
            return self._by_name[name]
        except KeyError:
            raise DataError(f"unknown symbolic series {name!r}") from None

    @property
    def names(self) -> list[str]:
        """Series names, in insertion order."""
        return [s.name for s in self.series]

    def select(self, names: Sequence[str]) -> "SymbolicDatabase":
        """Restrict the database to ``names`` (used by A-HTPGM after MI pruning)."""
        return SymbolicDatabase([self[name] for name in names])

    # ------------------------------------------------------------------ alignment
    def is_aligned(self) -> bool:
        """True when every series shares identical timestamps (cached).

        The alignment check is O(series × samples); mutual-information code
        calls it for every series pair, so the result is computed once.
        """
        cached = getattr(self, "_aligned", None)
        if cached is None:
            if len(self.series) <= 1:
                cached = True
            else:
                first = self.series[0].timestamps
                cached = all(
                    len(s.timestamps) == len(first) and np.allclose(s.timestamps, first)
                    for s in self.series[1:]
                )
            self._aligned = cached
        return cached

    def require_aligned(self) -> None:
        """Raise :class:`DataError` unless the database is aligned.

        Joint distributions (and therefore mutual information) are only defined
        over series observed at the same time steps.
        """
        if not self.is_aligned():
            raise DataError(
                "SymbolicDatabase series are not aligned on a common time grid; "
                "align the raw series (TimeSeriesSet.align) before symbolising"
            )

    @property
    def time_span(self) -> tuple[float, float]:
        """(earliest timestamp, latest timestamp + one step) across all series."""
        if not self.series:
            raise DataError("empty SymbolicDatabase has no time span")
        start = min(float(s.timestamps[0]) for s in self.series)
        end = max(
            float(s.timestamps[-1]) + (s.sampling_interval or 1.0) for s in self.series
        )
        return start, end

    # ------------------------------------------------------------------ distributions
    def joint_distribution(self, name_x: str, name_y: str) -> dict[tuple[str, str], float]:
        """Empirical joint probability p(x, y) of two series over aligned steps."""
        self.require_aligned()
        xs = self[name_x]
        ys = self[name_y]
        n = len(xs)
        ny = len(ys.alphabet)
        pair_codes = xs.codes() * ny + ys.codes()
        counts = np.bincount(pair_codes, minlength=len(xs.alphabet) * ny)
        joint = {}
        for ix, sx in enumerate(xs.alphabet):
            for iy, sy in enumerate(ys.alphabet):
                joint[(sx, sy)] = counts[ix * ny + iy] / n
        return joint

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SymbolicDatabase(n_series={len(self.series)})"
