"""Unit tests for the correlation graph and density-based mu selection."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ConfigurationError, SymbolicDatabase, SymbolicSeries, build_correlation_graph, mi_threshold_for_density
from repro.core.correlation import CorrelationGraph, pairwise_nmi
from repro.exceptions import DataError


def make_series(name, symbols, alphabet=("Off", "On")):
    return SymbolicSeries.from_symbols(
        name=name,
        timestamps=np.arange(len(symbols), dtype=float),
        symbols=symbols,
        alphabet=alphabet,
    )


@pytest.fixture()
def correlated_db() -> SymbolicDatabase:
    """Three mutually informative series plus one independent noise series."""
    base = ["On", "On", "Off", "Off", "On", "Off", "On", "Off"]
    inverse = ["Off" if s == "On" else "On" for s in base]
    noise = ["On", "Off", "On", "On", "Off", "On", "Off", "Off"]
    return SymbolicDatabase(
        [
            make_series("a", base),
            make_series("b", base),
            make_series("c", inverse),
            make_series("noise", noise),
        ]
    )


class TestPairwiseNMI:
    def test_symmetric_pair_key_and_min_direction(self, correlated_db):
        values = pairwise_nmi(correlated_db)
        assert len(values) == 6
        assert values[frozenset({"a", "b"})] == pytest.approx(1.0)
        assert values[frozenset({"a", "c"})] == pytest.approx(1.0)
        assert values[frozenset({"a", "noise"})] < 0.5

    def test_needs_two_series(self):
        with pytest.raises(DataError):
            pairwise_nmi(SymbolicDatabase([make_series("only", ["On", "Off"])]))


class TestCorrelationGraph:
    def test_edges_require_threshold_in_both_directions(self, correlated_db):
        graph = build_correlation_graph(correlated_db, mi_threshold=0.9)
        assert graph.has_edge("a", "b")
        assert graph.has_edge("a", "c")
        assert graph.has_edge("b", "c")
        assert not graph.has_edge("a", "noise")
        assert graph.has_edge("a", "a")  # same series is trivially correlated

    def test_correlated_series_excludes_isolated_vertices(self, correlated_db):
        graph = build_correlation_graph(correlated_db, mi_threshold=0.9)
        assert set(graph.correlated_series()) == {"a", "b", "c"}
        assert graph.degree("noise") == 0
        assert graph.neighbors("a") == ["b", "c"]

    def test_density(self, correlated_db):
        graph = build_correlation_graph(correlated_db, mi_threshold=0.9)
        assert graph.max_edges == 6
        assert graph.n_edges == 3
        assert graph.density == pytest.approx(0.5)

    def test_threshold_validation(self, correlated_db):
        with pytest.raises(ConfigurationError):
            build_correlation_graph(correlated_db, mi_threshold=0.0)
        with pytest.raises(ConfigurationError):
            build_correlation_graph(correlated_db, mi_threshold=1.5)

    def test_empty_graph_density_is_zero(self):
        graph = CorrelationGraph(mi_threshold=0.5, vertices=[], edges={})
        assert graph.density == 0.0

    def test_precomputed_nmi_values_reused(self, correlated_db):
        values = pairwise_nmi(correlated_db)
        graph = build_correlation_graph(correlated_db, 0.9, nmi_values=values)
        assert graph.n_edges == 3


class TestAdjacencyIndex:
    """The O(degree) adjacency index must behave exactly like edge scans."""

    @pytest.fixture()
    def dense_graph(self) -> CorrelationGraph:
        """A dense graph: 20 vertices, every pair except those touching the
        last two vertices (which stay isolated), plus one missing edge."""
        vertices = [f"v{index:02d}" for index in range(20)]
        connected = vertices[:-2]
        edges = {
            frozenset((a, b)): 0.9
            for i, a in enumerate(connected)
            for b in connected[i + 1 :]
        }
        del edges[frozenset(("v03", "v07"))]
        return CorrelationGraph(mi_threshold=0.5, vertices=vertices, edges=edges)

    def test_neighbors_and_degree_match_naive_edge_scan(self, dense_graph):
        for vertex in dense_graph.vertices:
            naive_neighbors = sorted(
                next(iter(pair - {vertex}))
                for pair in dense_graph.edges
                if vertex in pair
            )
            assert dense_graph.neighbors(vertex) == naive_neighbors
            assert dense_graph.degree(vertex) == len(naive_neighbors)

    def test_correlated_series_match_naive_scan_and_vertex_order(self, dense_graph):
        naive = [
            vertex
            for vertex in dense_graph.vertices
            if any(vertex in pair for pair in dense_graph.edges)
        ]
        assert dense_graph.correlated_series() == naive
        assert dense_graph.correlated_series() == dense_graph.vertices[:-2]

    def test_missing_edge_reflected_everywhere(self, dense_graph):
        assert not dense_graph.has_edge("v03", "v07")
        assert "v07" not in dense_graph.neighbors("v03")
        assert dense_graph.degree("v03") == len(dense_graph.vertices) - 4

    def test_isolated_vertex_queries(self, dense_graph):
        assert dense_graph.neighbors("v19") == []
        assert dense_graph.degree("v19") == 0

    def test_unknown_vertex_queries_are_empty(self, dense_graph):
        assert dense_graph.neighbors("unknown") == []
        assert dense_graph.degree("unknown") == 0

    def test_index_follows_post_construction_edge_mutation(self, dense_graph):
        """edges is a public dict; adding/removing edges must be reflected."""
        assert dense_graph.degree("v19") == 0
        dense_graph.edges[frozenset(("v18", "v19"))] = 0.95
        assert dense_graph.neighbors("v19") == ["v18"]
        assert "v19" in dense_graph.correlated_series()
        del dense_graph.edges[frozenset(("v18", "v19"))]
        assert dense_graph.degree("v19") == 0
        assert "v19" not in dense_graph.correlated_series()

    def test_balanced_add_and_remove_with_refresh(self):
        """A balanced add+remove (same edge count, no query in between) is the
        documented blind spot of the O(1) staleness check; refresh_adjacency
        restores consistency."""
        graph = CorrelationGraph(
            mi_threshold=0.5,
            vertices=["a", "b", "c", "d"],
            edges={frozenset(("a", "b")): 0.9},
        )
        assert graph.neighbors("a") == ["b"]
        graph.edges[frozenset(("c", "d"))] = 0.8
        del graph.edges[frozenset(("a", "b"))]
        graph.refresh_adjacency()
        assert graph.neighbors("a") == []
        assert graph.neighbors("c") == ["d"]
        assert graph.correlated_series() == ["c", "d"]


class TestDensityBasedThreshold:
    def test_density_keeps_requested_fraction_of_edges(self, correlated_db):
        mu = mi_threshold_for_density(correlated_db, density=0.5)
        graph = build_correlation_graph(correlated_db, mu)
        assert graph.n_edges == 3
        assert graph.density == pytest.approx(0.5)

    def test_full_density_keeps_every_edge(self, correlated_db):
        mu = mi_threshold_for_density(correlated_db, density=1.0)
        graph = build_correlation_graph(correlated_db, mu)
        assert graph.n_edges == graph.max_edges

    def test_small_density_keeps_at_least_one_edge(self, correlated_db):
        mu = mi_threshold_for_density(correlated_db, density=0.01)
        graph = build_correlation_graph(correlated_db, mu)
        assert graph.n_edges >= 1

    def test_kept_pairs_round_half_to_even(self):
        """µ is the ``max(1, round(density × pairs))``-th strongest NMI, and
        ``round`` rounds halves to even: of 10 distinct pair values, density
        0.25 keeps 2 edges (20%) and 0.45 keeps 4 (40%)."""
        rng = np.random.default_rng(5)
        db = SymbolicDatabase(
            [
                make_series(f"s{i}", ["On" if v else "Off" for v in rng.integers(0, 2, 40)])
                for i in range(5)
            ]
        )
        values = pairwise_nmi(db)
        assert len(set(values.values())) == 10  # no ties at µ
        for density, kept in ((0.25, 2), (0.45, 4)):
            mu = mi_threshold_for_density(db, density, nmi_values=values)
            assert build_correlation_graph(db, mu, nmi_values=values).n_edges == kept

    def test_threshold_monotone_in_density(self, correlated_db):
        mus = [
            mi_threshold_for_density(correlated_db, density=d) for d in (0.2, 0.5, 0.8, 1.0)
        ]
        assert mus == sorted(mus, reverse=True)

    def test_density_validation(self, correlated_db):
        with pytest.raises(ConfigurationError):
            mi_threshold_for_density(correlated_db, density=0.0)
        with pytest.raises(ConfigurationError):
            mi_threshold_for_density(correlated_db, density=1.2)
