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
    probability.  Values are computed with the inverse error function so no
    SciPy dependency is needed.
    """
    if alphabet_size < 2:
        raise ConfigurationError(f"alphabet_size must be at least 2, got {alphabet_size}")
    from math import sqrt

    try:
        from numpy import vectorize  # noqa: F401  (numpy always present)
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        raise
    # Inverse normal CDF via the erfinv expansion available in numpy >= 1.17
    # through scipy-free approximation: use np.sqrt(2) * erfinv(2p - 1).
    probabilities = np.arange(1, alphabet_size) / alphabet_size
    try:
        from scipy.special import erfinv  # type: ignore

        return [float(sqrt(2) * erfinv(2 * p - 1)) for p in probabilities]
    except Exception:
        # Acklam's rational approximation of the inverse normal CDF: accurate to
        # ~1e-9, more than enough for breakpoint placement.
        return [float(_inverse_normal_cdf(p)) for p in probabilities]


def _inverse_normal_cdf(p: float) -> float:
    """Acklam's approximation of the standard normal quantile function."""
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"probability must be in (0, 1), got {p}")
    a = [-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00]
    b = [-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00]
    plow, phigh = 0.02425, 1 - 0.02425
    if p < plow:
        q = np.sqrt(-2 * np.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    if p > phigh:
        q = np.sqrt(-2 * np.log(1 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
    )


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
        alphabet = self.alphabet
        return SymbolicSeries(
            name=series.name,
            timestamps=frame_starts[kept],
            symbols=[alphabet[code] for code in self.codes_for(means).tolist()],
            alphabet=alphabet,
        )
