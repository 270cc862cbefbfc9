"""Entropy, mutual information and the confidence lower bound (paper Section V).

A-HTPGM decides which time series are worth mining from the *normalised mutual
information* (NMI) between their symbolic representations:

* entropy ``H(X)`` — Eq. 7,
* conditional entropy ``H(X|Y)`` — Eq. 8,
* mutual information ``I(X;Y)`` — Eq. 9,
* normalised mutual information ``Ĩ(X;Y) = I(X;Y)/H(X)`` — Eq. 10, and
* the confidence lower bound ``LB`` of Theorem 1 (Eq. 11), which connects the
  NMI threshold ``µ`` to a guaranteed minimum confidence for frequent event
  pairs of correlated series.

All logarithms use base 2; NMI is a ratio of entropies so the base cancels.
Probabilities of zero contribute zero to every sum (the usual
``0 · log 0 = 0`` convention).

A-HTPGM needs Eq. 10 for every ordered pair of series: :func:`nmi_matrix`
computes them in the calling process, one joint symbol count per unordered
pair, each value equal to :func:`normalized_mutual_information`'s.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from itertools import combinations, product

import numpy as np

from ..exceptions import ConfigurationError, DataError
from ..timeseries.symbolic import SymbolicDatabase

__all__ = [
    "entropy",
    "conditional_entropy",
    "mutual_information",
    "normalized_mutual_information",
    "nmi_matrix",
    "confidence_lower_bound",
]


def _plogp(p: float) -> float:
    """``p * log2(p)`` with the ``0 log 0 = 0`` convention."""
    return p * math.log2(p) if p > 0 else 0.0


def entropy(distribution: Mapping[str, float]) -> float:
    """Shannon entropy of a symbol distribution (Eq. 7), in bits."""
    total = sum(distribution.values())
    if total <= 0:
        raise DataError("entropy needs a distribution with positive total mass")
    if abs(total - 1.0) > 1e-6:
        raise DataError(f"distribution must sum to 1 (got {total:.6f})")
    return -sum(_plogp(p) for p in distribution.values())


def conditional_entropy(
    joint: Mapping[tuple[str, str], float], marginal_y: Mapping[str, float]
) -> float:
    """Conditional entropy ``H(X|Y)`` from the joint p(x, y) and marginal p(y) (Eq. 8)."""
    result = 0.0
    for (_, y), pxy in joint.items():
        if pxy <= 0:
            continue
        py = marginal_y.get(y, 0.0)
        if py <= 0:
            raise DataError(
                f"joint probability {pxy} observed for y={y!r} with zero marginal"
            )
        result -= pxy * math.log2(pxy / py)
    return result


def mutual_information(
    joint: Mapping[tuple[str, str], float],
    marginal_x: Mapping[str, float],
    marginal_y: Mapping[str, float],
) -> float:
    """Mutual information ``I(X;Y)`` (Eq. 9), in bits.

    The result is clamped at zero to absorb tiny negative values caused by
    floating-point rounding of empirical distributions.
    """
    result = 0.0
    for (x, y), pxy in joint.items():
        if pxy <= 0:
            continue
        px = marginal_x.get(x, 0.0)
        py = marginal_y.get(y, 0.0)
        if px <= 0 or py <= 0:
            raise DataError(
                f"joint probability {pxy} observed for ({x!r}, {y!r}) "
                "with a zero marginal"
            )
        result += pxy * math.log2(pxy / (px * py))
    return max(result, 0.0)


def normalized_mutual_information(
    symbolic_db: SymbolicDatabase, name_x: str, name_y: str
) -> float:
    """Normalised mutual information ``Ĩ(X;Y) = I(X;Y)/H(X)`` (Eq. 10).

    Note the asymmetry: the normalisation uses the entropy of the *first*
    argument, so ``Ĩ(X;Y)`` and ``Ĩ(Y;X)`` generally differ.  A constant series
    has zero entropy, in which case the NMI is defined as 0 (knowing ``Y``
    cannot reduce uncertainty that does not exist).
    """
    series_x = symbolic_db[name_x]
    series_y = symbolic_db[name_y]
    hx = entropy(series_x.distribution())
    if hx == 0:
        return 0.0
    joint = symbolic_db.joint_distribution(name_x, name_y)
    mi = mutual_information(joint, series_x.distribution(), series_y.distribution())
    return min(mi / hx, 1.0)


def nmi_matrix(symbolic_db: SymbolicDatabase) -> dict[tuple[str, str], float]:
    """NMI for every ordered pair of distinct series in the database.

    Every series' marginal distribution and entropy are computed once, and
    each unordered pair's joint symbol counts come from one ``np.bincount``
    that serves both directions (the second reads the count block
    transposed).  Each direction then takes the arithmetic of
    :func:`normalized_mutual_information` — :func:`mutual_information` over
    a joint dict in that direction's alphabet order, ``min(I / H(X), 1)`` —
    so every value equals the per-pair function's bit for bit.
    """
    symbolic_db.require_aligned()
    series = symbolic_db.series
    marginals = [item.distribution() for item in series]
    entropies = [entropy(marginal) for marginal in marginals]

    def directed(joint: np.ndarray, x: int, y: int) -> float:
        """``Ĩ(X;Y)`` from the ``(|alphabet_x|, |alphabet_y|)`` joint block."""
        if entropies[x] == 0:
            return 0.0
        cells = product(series[x].alphabet, series[y].alphabet)
        probabilities = dict(zip(cells, joint.ravel().tolist()))
        mi = mutual_information(probabilities, marginals[x], marginals[y])
        return min(mi / entropies[x], 1.0)

    matrix: dict[tuple[str, str], float] = {}
    for x, y in combinations(range(len(series)), 2):
        n_x, n_y = len(series[x].alphabet), len(series[y].alphabet)
        counts = np.bincount(
            series[x].codes() * n_y + series[y].codes(), minlength=n_x * n_y
        )
        joint = counts.reshape(n_x, n_y) / len(series[x])
        matrix[(series[x].name, series[y].name)] = directed(joint, x, y)
        matrix[(series[y].name, series[x].name)] = directed(joint.T, y, x)
    return matrix


def confidence_lower_bound(
    min_support: float, max_support: float, n_symbols: int, mi_threshold: float
) -> float:
    """Confidence lower bound of Theorem 1 (Eq. 11).

    Parameters
    ----------
    min_support:
        Support threshold ``σ`` in ``(0, 1)``.
    max_support:
        Maximum support ``σ_m`` of the event pair in ``DSYB``; must satisfy
        ``σ <= σ_m <= 1``.
    n_symbols:
        Alphabet size ``n_x`` of the first series (must be >= 2).
    mi_threshold:
        NMI threshold ``µ`` in ``(0, 1]``.

    Returns the guaranteed minimum confidence of a frequent event pair from
    correlated series, clamped to ``[0, 1]``.
    """
    if not 0 < min_support < 1:
        raise ConfigurationError(f"min_support must be in (0, 1), got {min_support}")
    if not min_support <= max_support <= 1:
        raise ConfigurationError(
            f"max_support must be in [min_support, 1], got {max_support}"
        )
    if n_symbols < 2:
        raise ConfigurationError(f"n_symbols must be at least 2, got {n_symbols}")
    if not 0 < mi_threshold <= 1:
        raise ConfigurationError(
            f"mi_threshold must be in (0, 1], got {mi_threshold}"
        )

    sigma, sigma_m, mu = min_support, max_support, mi_threshold
    remainder = 1.0 - sigma_m / (n_symbols - 1)
    if remainder <= 0:
        # sigma_m saturates the non-target symbols: the inner term collapses and
        # the bound degenerates to 0 (no useful guarantee).
        return 0.0
    inner = (sigma**sigma_m) * (remainder ** (1.0 - sigma))
    bound = (inner ** ((1.0 - mu) / sigma)) * sigma / (2.0 * sigma_m - sigma)
    return float(min(max(bound, 0.0), 1.0))
