"""Correlation graph over symbolic time series (paper Defs. 5.4–5.6).

The correlation graph ``GC`` has one vertex per symbolic series and an
undirected edge between two series when their NMI meets the threshold ``µ`` in
*both* directions (NMI is asymmetric).  A-HTPGM mines only series that have at
least one incident edge and only event pairs whose series are connected.

The threshold ``µ`` can be given directly or derived from a desired *graph
density* (Def. 5.6), the paper's "µ corresponding to X% of the edges"
experimental setup: :func:`mi_threshold_for_density` sets ``µ`` to the NMI
of the ``max(1, round(density × pairs))``-th strongest pair, so the graph
keeps those pairs plus any tied with them at ``µ``.  ``round`` rounds halves
to even, so the kept fraction can fall below the requested one.

The pairwise NMI — quadratic in the number of series and A-HTPGM's one
pre-mining cost — is computed in the calling process by
:func:`~repro.core.mutual_information.nmi_matrix`, one joint symbol count
per series pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import ConfigurationError, DataError
from ..timeseries.symbolic import SymbolicDatabase
from .mutual_information import nmi_matrix

__all__ = [
    "CorrelationGraph",
    "pairwise_nmi",
    "build_correlation_graph",
    "mi_threshold_for_density",
]


def pairwise_nmi(symbolic_db: SymbolicDatabase) -> dict[frozenset[str], float]:
    """Bidirectional NMI per unordered series pair.

    The value stored for a pair is ``min(Ĩ(X;Y), Ĩ(Y;X))`` because an edge
    requires the threshold to hold in both directions (Def. 5.5); both
    directions come from one :func:`~repro.core.mutual_information.nmi_matrix`.
    """
    names = symbolic_db.names
    if len(names) < 2:
        raise DataError("pairwise NMI needs at least two series")
    matrix = nmi_matrix(symbolic_db)
    return {
        frozenset((name_x, name_y)): min(
            matrix[(name_x, name_y)], matrix[(name_y, name_x)]
        )
        for i, name_x in enumerate(names)
        for name_y in names[i + 1 :]
    }


@dataclass
class CorrelationGraph:
    """Undirected correlation graph ``GC`` (Def. 5.5).

    An adjacency index is built from the edge set so the neighbourhood
    queries cost O(degree) after an O(1) staleness check, instead of
    rebuilding neighbour lists from every edge — ``neighbors``/``degree``
    used to be O(E) and ``correlated_series`` O(V·E), which dominated
    A-HTPGM's setup on dense graphs.  ``edges`` stays a public dict: any
    mutation that changes the edge *count* is picked up automatically (the
    staleness check compares lengths); the one blind spot is a balanced
    add+remove performed with no query in between, after which callers must
    invoke :meth:`refresh_adjacency` explicitly.  The library itself never
    mutates a graph after :func:`build_correlation_graph`.
    """

    mi_threshold: float
    vertices: list[str]
    edges: dict[frozenset[str], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.refresh_adjacency()

    def refresh_adjacency(self) -> None:
        """Rebuild the adjacency index from ``edges``.

        Called automatically at construction and whenever a query notices the
        edge count changed; call it manually after replacing edges through a
        balanced add+remove (same count, different pairs).
        """
        self._adjacency: dict[str, set[str]] = {}
        for pair in self.edges:
            series_a, series_b = sorted(pair)
            self._adjacency.setdefault(series_a, set()).add(series_b)
            self._adjacency.setdefault(series_b, set()).add(series_a)
        self._indexed_n_edges = len(self.edges)

    def _adjacency_index(self) -> dict[str, set[str]]:
        if self._indexed_n_edges != len(self.edges):
            self.refresh_adjacency()
        return self._adjacency

    # ------------------------------------------------------------------ queries
    def has_edge(self, series_a: str, series_b: str) -> bool:
        """True when the two series are correlated (or identical)."""
        if series_a == series_b:
            return True
        return frozenset((series_a, series_b)) in self.edges

    def neighbors(self, series: str) -> list[str]:
        """Series connected to ``series``."""
        return sorted(self._adjacency_index().get(series, ()))

    def degree(self, series: str) -> int:
        """Number of incident edges."""
        return len(self._adjacency_index().get(series, ()))

    def correlated_series(self) -> list[str]:
        """Vertices with at least one incident edge — the set ``XC`` of Alg. 2."""
        adjacency = self._adjacency_index()
        return [name for name in self.vertices if adjacency.get(name)]

    @property
    def n_edges(self) -> int:
        """Number of edges in the graph."""
        return len(self.edges)

    @property
    def max_edges(self) -> int:
        """Number of edges of the complete graph over the same vertices."""
        n = len(self.vertices)
        return n * (n - 1) // 2

    @property
    def density(self) -> float:
        """Fraction of complete-graph edges present (Def. 5.6)."""
        return self.n_edges / self.max_edges if self.max_edges else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"CorrelationGraph(mu={self.mi_threshold:.3f}, vertices={len(self.vertices)}, "
            f"edges={self.n_edges}, density={self.density:.2f})"
        )


def build_correlation_graph(
    symbolic_db: SymbolicDatabase,
    mi_threshold: float,
    nmi_values: dict[frozenset[str], float] | None = None,
) -> CorrelationGraph:
    """Build the correlation graph for a given NMI threshold ``µ``.

    ``nmi_values`` may be supplied to avoid recomputing the pairwise NMI when
    several thresholds are evaluated over the same database (the Fig. 9 sweep).
    """
    if not 0 < mi_threshold <= 1:
        raise ConfigurationError(
            f"mi_threshold must be in (0, 1], got {mi_threshold}"
        )
    if nmi_values is None:
        nmi_values = pairwise_nmi(symbolic_db)
    edges = {
        pair: value for pair, value in nmi_values.items() if value >= mi_threshold
    }
    return CorrelationGraph(
        mi_threshold=mi_threshold, vertices=list(symbolic_db.names), edges=edges
    )


def mi_threshold_for_density(
    symbolic_db: SymbolicDatabase,
    density: float,
    nmi_values: dict[frozenset[str], float] | None = None,
) -> float:
    """Choose ``µ`` so the correlation graph keeps about ``density`` of all edges.

    ``µ`` is the NMI of the ``max(1, round(density × pairs))``-th strongest
    pair, so the graph keeps that many strongest pairs plus any tied with
    them at ``µ``.  ``round`` rounds halves to even: of 10 pairs, density
    0.25 keeps 2 (20%) and density 0.45 keeps 4 (40%).  The returned value
    always lies in ``(0, 1]``.
    """
    if not 0 < density <= 1:
        raise ConfigurationError(f"density must be in (0, 1], got {density}")
    if nmi_values is None:
        nmi_values = pairwise_nmi(symbolic_db)
    values = sorted(nmi_values.values(), reverse=True)
    if not values:
        raise DataError("cannot derive an MI threshold without series pairs")
    keep = max(1, round(density * len(values)))
    keep = min(keep, len(values))
    threshold = values[keep - 1]
    # An NMI of exactly zero would make every pair "correlated"; keep the
    # threshold strictly positive so uncorrelated series are still pruned.
    return max(threshold, 1e-12)
