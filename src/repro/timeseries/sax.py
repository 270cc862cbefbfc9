"""SAX-style symbolisation (Piecewise Aggregate Approximation + Gaussian breakpoints).

The paper's evaluation uses threshold and percentile mappings, but its
symbolic-representation definition (Def. 3.2) admits any mapping function.  SAX
(Lin et al.) is the de-facto standard symbolic representation for time series,
so the library ships it as an additional :class:`Symbolizer`: the series is
z-normalised, averaged over fixed-duration frames (PAA), and each frame mean is
mapped to one of ``alphabet_size`` symbols using the equiprobable breakpoints
of the standard normal distribution.

Unlike the per-sample symbolisers, SAX changes the time resolution: the
resulting :class:`~repro.timeseries.symbolic.SymbolicSeries` has one symbol per
PAA frame, timestamped at the frame start.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ConfigurationError, SymbolizationError
from .series import TimeSeries
from .symbolic import SymbolicSeries
from .symbolization import Symbolizer

__all__ = ["SAXSymbolizer", "gaussian_breakpoints"]

#: Default symbols used for small alphabets (a, b, c, ...).
_DEFAULT_SYMBOLS = "abcdefghijklmnopqrstuvwxyz"


def gaussian_breakpoints(alphabet_size: int) -> list[float]:
    """Equiprobable breakpoints of the standard normal distribution.

    Returns ``alphabet_size - 1`` increasing cut points such that a standard
    normal variable falls into each of the ``alphabet_size`` buckets with equal
    probability: breakpoint ``i`` is the normal quantile of ``i /
    alphabet_size``, from the standard library's
    :meth:`statistics.NormalDist.inv_cdf`, so every environment cuts a series
    at the same values.
    """
    if alphabet_size < 2:
        raise ConfigurationError(f"alphabet_size must be at least 2, got {alphabet_size}")
    # Imported here: ``statistics`` loads ``decimal`` and ``fractions``
    # (about 0.4 MiB of resident memory), which only SAX needs.
    from statistics import NormalDist

    normal = NormalDist()
    return [normal.inv_cdf(i / alphabet_size) for i in range(1, alphabet_size)]


@dataclass
class SAXSymbolizer(Symbolizer):
    """Symbolic Aggregate approXimation of a time series.

    Parameters
    ----------
    frame_duration:
        Length (in the series' time unit) of each PAA frame.
    alphabet_size:
        Number of symbols (2–26 with the default symbol names).
    symbols:
        Optional explicit symbol names (must match ``alphabet_size``).
    """

    frame_duration: float = 60.0
    alphabet_size: int = 4
    symbols: tuple[str, ...] | None = None
    _mean: float = field(default=0.0, repr=False)
    _std: float = field(default=1.0, repr=False)
    _breakpoints: list[float] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.frame_duration <= 0:
            raise ConfigurationError("frame_duration must be positive")
        if self.alphabet_size < 2:
            raise ConfigurationError("alphabet_size must be at least 2")
        if self.symbols is None:
            if self.alphabet_size > len(_DEFAULT_SYMBOLS):
                raise ConfigurationError(
                    "provide explicit symbols for alphabets larger than 26"
                )
            self.symbols = tuple(_DEFAULT_SYMBOLS[: self.alphabet_size])
        if len(self.symbols) != self.alphabet_size:
            raise ConfigurationError(
                f"{len(self.symbols)} symbols provided for alphabet_size={self.alphabet_size}"
            )

    # ------------------------------------------------------------------ Symbolizer API
    @property
    def alphabet(self) -> tuple[str, ...]:
        return tuple(self.symbols)

    def fit(self, series: TimeSeries) -> "SAXSymbolizer":
        stats = series.statistics()
        self._mean = stats["mean"]
        self._std = stats["std"] if stats["std"] > 0 else 1.0
        self._breakpoints = gaussian_breakpoints(self.alphabet_size)
        return self

    def codes_for(self, values: np.ndarray) -> np.ndarray:
        """Map (already aggregated) values to symbol indices."""
        if not self._breakpoints:
            raise SymbolizationError(
                "SAXSymbolizer used before fit(); call fit() or fit_transform() first"
            )
        z = (np.asarray(values, dtype=float) - self._mean) / self._std
        return np.searchsorted(self._breakpoints, z, side="right")

    def transform(self, series: TimeSeries) -> SymbolicSeries:
        """PAA-aggregate the series and symbolise each frame.

        Timestamps are strictly increasing, so every frame ``[start, start +
        frame_duration)`` is one contiguous slice found by binary search; empty
        frames are skipped.
        """
        timestamps = series.timestamps
        frame_starts = np.arange(series.start_time, series.end_time + 1e-9, self.frame_duration)
        lo = np.searchsorted(timestamps, frame_starts, side="left")
        hi = np.searchsorted(timestamps, frame_starts + self.frame_duration, side="left")
        kept = np.flatnonzero(hi > lo)
        if len(kept) == 0:
            raise SymbolizationError(
                f"series {series.name!r} produced no PAA frames; "
                "frame_duration is probably larger than the series span"
            )
        means = np.array(
            [np.mean(series.values[lo[k]:hi[k]]) for k in kept.tolist()], dtype=float
        )
        return SymbolicSeries(
            name=series.name,
            timestamps=frame_starts[kept],
            codes=self.codes_for(means),
            alphabet=self.alphabet,
        )
