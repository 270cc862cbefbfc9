"""Symbolic series and symbolic database (paper Defs. 3.2–3.4).

A :class:`SymbolicSeries` is the symbol-encoded form of one time series; the
collection of all symbolic series forms the symbolic database ``DSYB``
(:class:`SymbolicDatabase`).  A series holds integer codes into its alphabet,
in the narrowest unsigned dtype, beside its timestamps; series symbolised
from one CSV read share that read's timestamp array, and the symbol strings
are derived from the codes when asked for.  Besides holding the codes,
this module implements

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

from ..exceptions import DataError, SymbolizationError

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
    """Symbol-encoded time series ``XS`` (Def. 3.2).

    ``codes[i]`` is the position in ``alphabet`` of the symbol observed at
    ``timestamps[i]`` (the last position, for a symbol the alphabet lists
    twice), stored in the narrowest unsigned dtype that holds
    ``len(alphabet) - 1``; the symbol strings are derived from the codes.
    :meth:`from_symbols` builds a series from symbol strings.
    """

    name: str
    timestamps: np.ndarray
    codes: np.ndarray
    alphabet: tuple[str, ...]

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        if not np.all(np.isfinite(self.timestamps)):
            raise DataError(
                f"symbolic series {self.name!r}: timestamps must be finite"
            )
        codes = np.asarray(self.codes)
        if codes.ndim != 1 or codes.dtype.kind not in "biu":
            raise DataError(
                f"symbolic series {self.name!r}: codes must be a 1-D integer "
                f"array, got a {codes.ndim}-D {codes.dtype} array"
            )
        if len(self.timestamps) != len(codes):
            raise DataError(
                f"symbolic series {self.name!r}: {len(self.timestamps)} timestamps "
                f"but {len(codes)} symbols"
            )
        if len(codes) == 0:
            raise DataError(f"symbolic series {self.name!r}: empty series")
        outside = (codes < 0) | (codes >= len(self.alphabet))
        if outside.any():
            code = codes[outside.argmax()]
            raise SymbolizationError(
                f"symbolic series {self.name!r}: code {code} is outside "
                f"[0, {len(self.alphabet)}) of alphabet {self.alphabet}"
            )
        last = {symbol: code for code, symbol in enumerate(self.alphabet)}
        if len(last) < len(self.alphabet):
            # A symbol listed twice is one symbol: its codes become its last
            # position, as encoding the strings gives (from_symbols).
            codes = np.array([last[symbol] for symbol in self.alphabet])[codes]
        self.codes = codes.astype(np.min_scalar_type(len(self.alphabet) - 1), copy=False)

    @classmethod
    def from_symbols(
        cls,
        name: str,
        timestamps: np.ndarray,
        symbols: Sequence[str],
        alphabet: tuple[str, ...],
    ) -> "SymbolicSeries":
        """Encode ``symbols``, each one of ``alphabet``, as codes."""
        position = {symbol: code for code, symbol in enumerate(alphabet)}
        try:
            codes = np.fromiter(
                map(position.__getitem__, symbols), dtype=np.intp, count=len(symbols)
            )
        except KeyError:
            unknown = set(symbols) - set(alphabet)
            raise DataError(
                f"symbolic series {name!r}: symbols {sorted(unknown)} "
                f"not in alphabet {alphabet}"
            ) from None
        return cls(name, timestamps, codes, alphabet)

    # ------------------------------------------------------------------ basics
    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[tuple[float, str]]:
        return iter(zip(self.timestamps.tolist(), self.symbols))

    @property
    def symbols(self) -> list[str]:
        """The symbol at every timestamp, derived from the codes."""
        return np.asarray(self.alphabet, dtype=object)[self.codes].tolist()

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

    def distribution(self) -> dict[str, float]:
        """Empirical marginal probability of each alphabet symbol.

        Symbols that never occur get probability 0 so the alphabet is always
        fully represented (needed by the entropy computations).
        """
        counts = np.bincount(self.codes, minlength=len(self.alphabet))
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
        codes = self.codes
        # Index of the first sample of every run after the first one.
        boundaries = np.flatnonzero(codes[1:] != codes[:-1]) + 1
        starts = [0, *boundaries.tolist()]
        start_times = self.timestamps[starts].tolist()
        end_times = self.timestamps[boundaries].tolist()
        end_times.append(float(self.timestamps[-1]) + step)
        alphabet = self.alphabet
        return [
            SymbolInterval(alphabet[code], start, end)
            for code, start, end in zip(codes[starts].tolist(), start_times, end_times)
        ]

    def slice_time(self, start: float, end: float) -> "SymbolicSeries":
        """Sub-series with timestamps in ``[start, end)``."""
        mask = (self.timestamps >= start) & (self.timestamps < end)
        if not np.any(mask):
            raise DataError(
                f"symbolic series {self.name!r}: no samples in window [{start}, {end})"
            )
        return SymbolicSeries(
            self.name, self.timestamps[mask], self.codes[mask], self.alphabet
        )

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
                    s.timestamps is first
                    or (len(s.timestamps) == len(first) and np.allclose(s.timestamps, first))
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
        # Widened first: narrow codes would wrap in the product.
        pair_codes = xs.codes.astype(np.intp) * ny + ys.codes
        counts = np.bincount(pair_codes, minlength=len(xs.alphabet) * ny)
        joint = {}
        for ix, sx in enumerate(xs.alphabet):
            for iy, sy in enumerate(ys.alphabet):
                joint[(sx, sy)] = counts[ix * ny + iy] / n
        return joint

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SymbolicDatabase(n_series={len(self.series)})"
