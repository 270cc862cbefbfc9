"""Symbolic time-series representation (paper Def. 3.2).

A symboliser is a mapping function ``f: X -> Sigma_X`` that encodes each raw
value of a time series into a symbol from a finite alphabet.  It maps a whole
array of values to integer codes into that alphabet at once
(:meth:`Symbolizer.codes_for`); the resulting
:class:`~repro.timeseries.symbolic.SymbolicSeries` keeps those codes and the
series' own timestamp array, uncopied.  The paper uses two
concrete mappings in its evaluation:

* an **On/Off threshold** for the energy datasets (``value >= 0.05`` is On), and
* a **percentile (quantile) mapping** for the multi-state smart-city variables
  (e.g. temperature into Very Cold / Cold / Mild / Hot / Very Hot).

This module provides both, plus an explicit interval mapping and a uniform-width
binning symboliser, behind a common :class:`Symbolizer` interface so user code
and the dataset simulators can mix them per variable.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ConfigurationError, SymbolizationError
from .series import TimeSeries
from .symbolic import SymbolicSeries

__all__ = [
    "Symbolizer",
    "ThresholdSymbolizer",
    "QuantileSymbolizer",
    "MappingSymbolizer",
    "UniformBinSymbolizer",
    "symbolize_set",
]


class Symbolizer(ABC):
    """Mapping function from raw values to a finite symbol alphabet.

    A symboliser is defined by two members: :attr:`alphabet` and
    :meth:`codes_for`, which maps a whole array of raw values to indices into
    that alphabet.  A custom symboliser implements exactly these two (plus
    :meth:`fit` when it has data-dependent parameters); :meth:`symbol_for` and
    :meth:`transform` are derived from :meth:`codes_for`, so the scalar and the
    whole-series mapping cannot drift apart.
    """

    @property
    @abstractmethod
    def alphabet(self) -> tuple[str, ...]:
        """The permitted symbols, in a stable order."""

    @abstractmethod
    def codes_for(self, values: np.ndarray) -> np.ndarray:
        """Map an array of raw values to integer indices into :attr:`alphabet`."""

    def symbol_for(self, value: float) -> str:
        """Map one raw value to a symbol."""
        alphabet = self.alphabet
        code = int(self.codes_for(np.array([value], dtype=float))[0])
        if not 0 <= code < len(alphabet):
            raise SymbolizationError(
                f"value {value} maps to code {code}, outside [0, {len(alphabet)}) "
                f"of alphabet {alphabet}"
            )
        return alphabet[code]

    def fit(self, series: TimeSeries) -> "Symbolizer":
        """Adapt data-dependent parameters to ``series``.

        Stateless symbolisers simply return ``self``; quantile-based ones compute
        their cut points here.
        """
        return self

    def transform(self, series: TimeSeries) -> SymbolicSeries:
        """Symbolise a whole series; the result shares its timestamp array.

        :class:`SymbolicSeries` rejects a code outside the alphabet with a
        :class:`SymbolizationError` naming the series and the code.
        """
        return SymbolicSeries(
            name=series.name,
            timestamps=series.timestamps,
            codes=self.codes_for(series.values),
            alphabet=self.alphabet,
        )

    def fit_transform(self, series: TimeSeries) -> SymbolicSeries:
        """Convenience: :meth:`fit` then :meth:`transform`."""
        return self.fit(series).transform(series)


@dataclass
class ThresholdSymbolizer(Symbolizer):
    """Two-symbol On/Off mapping used for the energy datasets.

    A value ``v`` maps to ``on_symbol`` when ``v >= threshold`` and to
    ``off_symbol`` otherwise.  The paper uses ``threshold = 0.05`` (kW) for all
    appliance series.
    """

    threshold: float = 0.05
    on_symbol: str = "On"
    off_symbol: str = "Off"

    def __post_init__(self) -> None:
        if self.on_symbol == self.off_symbol:
            raise ConfigurationError("on_symbol and off_symbol must differ")

    @property
    def alphabet(self) -> tuple[str, ...]:
        return (self.off_symbol, self.on_symbol)

    def codes_for(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=float) >= self.threshold).astype(np.intp)


@dataclass
class QuantileSymbolizer(Symbolizer):
    """Percentile-based multi-state mapping used for the smart-city variables.

    ``labels`` gives the symbols ordered from lowest to highest value range and
    ``percentiles`` the cut points between consecutive labels (one fewer than
    the number of labels).  When ``percentiles`` is omitted, evenly spaced
    percentiles are used.  Cut points are computed from the series passed to
    :meth:`fit`.
    """

    labels: Sequence[str] = ("Low", "Medium", "High")
    percentiles: Sequence[float] | None = None
    _cuts: list[float] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if len(self.labels) < 2:
            raise ConfigurationError("QuantileSymbolizer needs at least two labels")
        if len(set(self.labels)) != len(self.labels):
            raise ConfigurationError("QuantileSymbolizer labels must be unique")
        if self.percentiles is not None:
            if len(self.percentiles) != len(self.labels) - 1:
                raise ConfigurationError(
                    "need exactly len(labels) - 1 percentiles, got "
                    f"{len(self.percentiles)} for {len(self.labels)} labels"
                )
            if any(not 0 < p < 100 for p in self.percentiles):
                raise ConfigurationError("percentiles must lie strictly between 0 and 100")
            if list(self.percentiles) != sorted(self.percentiles):
                raise ConfigurationError("percentiles must be non-decreasing")

    @property
    def alphabet(self) -> tuple[str, ...]:
        return tuple(self.labels)

    def fit(self, series: TimeSeries) -> "QuantileSymbolizer":
        percentiles = self.percentiles
        if percentiles is None:
            n = len(self.labels)
            percentiles = [100.0 * i / n for i in range(1, n)]
        self._cuts = [series.percentile(p) for p in percentiles]
        return self

    def codes_for(self, values: np.ndarray) -> np.ndarray:
        if not self._cuts:
            raise SymbolizationError(
                "QuantileSymbolizer used before fit(); "
                "call fit() or fit_transform() first"
            )
        return np.searchsorted(self._cuts, np.asarray(values, dtype=float), side="right")


@dataclass
class MappingSymbolizer(Symbolizer):
    """Explicit interval-to-symbol mapping.

    ``intervals`` maps a symbol to a half-open value range ``[low, high)``.
    Ranges must not overlap; a value falling outside every range raises
    :class:`SymbolizationError`.
    """

    intervals: Mapping[str, tuple[float, float]]

    def __post_init__(self) -> None:
        if not self.intervals:
            raise ConfigurationError("MappingSymbolizer needs at least one interval")
        spans = sorted(self.intervals.values())
        for (lo1, hi1), (lo2, _hi2) in zip(spans, spans[1:]):
            if hi1 > lo2:
                raise ConfigurationError("MappingSymbolizer intervals must not overlap")
        for symbol, (lo, hi) in self.intervals.items():
            if lo >= hi:
                raise ConfigurationError(
                    f"interval for symbol {symbol!r} must satisfy low < high"
                )

    @property
    def alphabet(self) -> tuple[str, ...]:
        return tuple(self.intervals.keys())

    def codes_for(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        codes = np.full(len(values), -1, dtype=np.intp)
        for position, (lo, hi) in enumerate(self.intervals.values()):
            codes[(codes < 0) & (lo <= values) & (values < hi)] = position
        unmapped = np.flatnonzero(codes < 0)
        if len(unmapped):
            value = float(values[unmapped[0]])
            raise SymbolizationError(f"value {value} falls outside every mapped interval")
        return codes


@dataclass
class UniformBinSymbolizer(Symbolizer):
    """Equal-width binning over the observed value range.

    A light-weight alternative to :class:`QuantileSymbolizer` for data without a
    meaningful percentile structure.  Bin edges come from :meth:`fit`.
    """

    labels: Sequence[str] = ("Low", "Medium", "High")
    _edges: list[float] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if len(self.labels) < 2:
            raise ConfigurationError("UniformBinSymbolizer needs at least two labels")

    @property
    def alphabet(self) -> tuple[str, ...]:
        return tuple(self.labels)

    def fit(self, series: TimeSeries) -> "UniformBinSymbolizer":
        stats = series.statistics()
        lo, hi = stats["min"], stats["max"]
        if hi <= lo:
            # Constant series: every value maps to the first label.
            self._edges = []
            return self
        n = len(self.labels)
        self._edges = [lo + (hi - lo) * i / n for i in range(1, n)]
        return self

    def codes_for(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if not self._edges:
            return np.zeros(len(values), dtype=np.intp)
        return np.searchsorted(self._edges, values, side="right")


def symbolize_set(
    series_set,
    symbolizers: Mapping[str, Symbolizer] | Symbolizer,
):
    """Symbolise every series in a :class:`~repro.timeseries.series.TimeSeriesSet`.

    ``symbolizers`` is either one symboliser applied to every series or a mapping
    from series name to its symboliser.  Returns a
    :class:`~repro.timeseries.symbolic.SymbolicDatabase`.
    """
    from .symbolic import SymbolicDatabase

    symbolic = []
    for series in series_set:
        if isinstance(symbolizers, Symbolizer):
            symbolizer = symbolizers
        else:
            try:
                symbolizer = symbolizers[series.name]
            except KeyError:
                raise ConfigurationError(
                    f"no symbolizer provided for series {series.name!r}"
                ) from None
        symbolic.append(symbolizer.fit_transform(series))
    return SymbolicDatabase(symbolic)
