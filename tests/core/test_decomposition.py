"""Unit tests for the NetworkDecomposition result type and validation."""

from __future__ import annotations

import math

import pytest

from repro.core import Cluster, NetworkDecomposition
from repro.errors import DecompositionError
from repro.graphs import Graph, cycle_graph, path_graph


def make_path_decomposition() -> tuple[Graph, NetworkDecomposition]:
    g = path_graph(6)
    clusters = [
        Cluster(index=0, color=0, vertices=frozenset({0, 1}), center=0),
        Cluster(index=1, color=1, vertices=frozenset({2, 3}), center=2),
        Cluster(index=2, color=0, vertices=frozenset({4, 5}), center=4),
    ]
    return g, NetworkDecomposition(g, clusters)


class TestAccessors:
    def test_counts(self):
        _, d = make_path_decomposition()
        assert d.num_clusters == 3
        assert d.num_colors == 2
        assert d.colors == [0, 1]

    def test_cluster_of(self):
        _, d = make_path_decomposition()
        assert d.cluster_of(3).index == 1
        assert d.color_of(5) == 0

    def test_cluster_of_missing_vertex(self):
        g = path_graph(3)
        d = NetworkDecomposition(
            g, [Cluster(index=0, color=0, vertices=frozenset({0, 1}))]
        )
        with pytest.raises(DecompositionError, match="no cluster"):
            d.cluster_of(2)

    def test_sizes_and_map(self):
        _, d = make_path_decomposition()
        assert d.cluster_sizes() == [2, 2, 2]
        assert d.cluster_index_map()[4] == 2

    def test_cluster_dunder(self):
        c = Cluster(index=0, color=0, vertices=frozenset({1, 2}))
        assert len(c) == 2
        assert 1 in c and 3 not in c

    def test_repr(self):
        _, d = make_path_decomposition()
        assert "clusters=3" in repr(d)


class TestSupergraph:
    def test_path_supergraph_is_path(self):
        _, d = make_path_decomposition()
        sg = d.supergraph()
        assert sg.num_vertices == 3
        assert list(sg.edges()) == [(0, 1), (1, 2)]

    def test_colors_proper_on_supergraph(self):
        _, d = make_path_decomposition()
        assert d.is_proper_coloring()


class TestDiameters:
    def test_strong_weak_connected(self):
        _, d = make_path_decomposition()
        assert d.max_strong_diameter() == 1
        assert d.max_weak_diameter() == 1
        assert d.disconnected_clusters() == []

    def test_disconnected_cluster_detected(self):
        g = path_graph(4)
        clusters = [
            Cluster(index=0, color=0, vertices=frozenset({0, 3})),
            Cluster(index=1, color=1, vertices=frozenset({1, 2})),
        ]
        d = NetworkDecomposition(g, clusters)
        assert math.isinf(d.max_strong_diameter())
        assert d.max_weak_diameter() == 3
        assert len(d.disconnected_clusters()) == 1


class TestValidation:
    def test_valid_passes(self):
        _, d = make_path_decomposition()
        d.validate(max_diameter=1, max_colors=2, strong=True)

    def test_overlap_fails(self):
        g = path_graph(3)
        clusters = [
            Cluster(index=0, color=0, vertices=frozenset({0, 1})),
            Cluster(index=1, color=1, vertices=frozenset({1, 2})),
        ]
        with pytest.raises(DecompositionError, match="partition"):
            NetworkDecomposition(g, clusters).validate()

    def test_missing_vertex_fails(self):
        g = path_graph(3)
        clusters = [Cluster(index=0, color=0, vertices=frozenset({0, 1}))]
        with pytest.raises(DecompositionError, match="partition"):
            NetworkDecomposition(g, clusters).validate()

    def test_adjacent_same_color_fails(self):
        g = path_graph(4)
        clusters = [
            Cluster(index=0, color=0, vertices=frozenset({0, 1})),
            Cluster(index=1, color=0, vertices=frozenset({2, 3})),
        ]
        with pytest.raises(DecompositionError, match="colour"):
            NetworkDecomposition(g, clusters).validate()

    def test_diameter_bound_fails(self):
        g = path_graph(4)
        clusters = [Cluster(index=0, color=0, vertices=frozenset({0, 1, 2, 3}))]
        d = NetworkDecomposition(g, clusters)
        d.validate(max_diameter=3)
        with pytest.raises(DecompositionError, match="diameter"):
            d.validate(max_diameter=2)

    def test_color_bound_fails(self):
        _, d = make_path_decomposition()
        with pytest.raises(DecompositionError, match="colours"):
            d.validate(max_colors=1)

    def test_bad_index_fails(self):
        g = path_graph(2)
        clusters = [Cluster(index=5, color=0, vertices=frozenset({0, 1}))]
        with pytest.raises(DecompositionError, match="index"):
            NetworkDecomposition(g, clusters).validate()

    def test_empty_cluster_fails(self):
        g = Graph(1)
        clusters = [
            Cluster(index=0, color=0, vertices=frozenset({0})),
            Cluster(index=1, color=0, vertices=frozenset()),
        ]
        with pytest.raises(DecompositionError, match="empty"):
            NetworkDecomposition(g, clusters).validate()

    def test_weak_validation_mode(self):
        g = path_graph(4)
        clusters = [
            Cluster(index=0, color=0, vertices=frozenset({0, 3})),
            Cluster(index=1, color=1, vertices=frozenset({1, 2})),
        ]
        d = NetworkDecomposition(g, clusters)
        d.validate(max_diameter=3, strong=False)
        with pytest.raises(DecompositionError):
            d.validate(max_diameter=3, strong=True)


class TestFromBlocks:
    def test_blocks_split_into_components(self):
        g = path_graph(5)
        d = NetworkDecomposition.from_blocks(g, [[0, 1, 3, 4], [2]])
        assert d.num_clusters == 3
        assert d.num_colors == 2
        assert d.cluster_of(0).vertices == frozenset({0, 1})
        assert d.cluster_of(3).vertices == frozenset({3, 4})
        assert d.cluster_of(2).color == 1

    def test_centers_attached_when_unanimous(self):
        g = path_graph(4)
        d = NetworkDecomposition.from_blocks(
            g, [[0, 1], [2, 3]], centers={0: 0, 1: 0, 2: 3, 3: 3}
        )
        assert d.cluster_of(0).center == 0
        assert d.cluster_of(2).center == 3

    def test_empty_blocks_skipped(self):
        g = path_graph(2)
        d = NetworkDecomposition.from_blocks(g, [[], [0, 1]])
        assert d.num_clusters == 1
        assert d.clusters[0].color == 1

    def test_empty_graph(self):
        d = NetworkDecomposition.from_blocks(Graph(0), [])
        assert d.num_clusters == 0
        d.validate()
        assert d.max_strong_diameter() == 0.0


class TestFromCenters:
    def test_ls_shaped_labels(self):
        """Colour = phase - 1; a center may label two phases' classes, and
        may itself be no member of its class."""
        g = path_graph(6)
        center_of = {0: 1, 2: 1, 1: 3, 3: 3, 4: 5, 5: 1}
        color_of = {0: 0, 2: 0, 1: 1, 3: 1, 4: 0, 5: 1}
        d = NetworkDecomposition.from_centers(g, center_of, color_of)
        assert [(c.index, c.color, c.center, sorted(c.vertices)) for c in d.clusters] == [
            (0, 0, 1, [0, 2]),
            (1, 0, 5, [4]),
            (2, 1, 1, [5]),
            (3, 1, 3, [1, 3]),
        ]
        assert d.is_partition()

    def test_mpx_shaped_labels(self):
        """Colour = the center's rank: clusters in center order, each its
        own colour."""
        g = cycle_graph(6)
        center_of = {0: 4, 1: 4, 2: 2, 3: 2, 4: 4, 5: 0}
        rank = {0: 0, 2: 1, 4: 2}
        d = NetworkDecomposition.from_centers(
            g, center_of, {v: rank[c] for v, c in center_of.items()}
        )
        assert [(c.index, c.color, c.center, sorted(c.vertices)) for c in d.clusters] == [
            (0, 0, 0, [5]),
            (1, 1, 2, [2, 3]),
            (2, 2, 4, [0, 1, 4]),
        ]
        assert d.num_colors == 3

    def test_empty(self):
        d = NetworkDecomposition.from_centers(Graph(0), {}, {})
        assert d.num_clusters == 0
        d.validate()


class TestCutEdges:
    def test_matches_brute_force(self):
        from repro.baselines import linial_saks, mpx
        from repro.graphs import erdos_renyi, grid_graph

        for g in (erdos_renyi(80, 0.06, seed=3), grid_graph(7, 9)):
            for d in (
                linial_saks.decompose(g, k=3, seed=4)[0],
                mpx.partition(g, beta=0.6, seed=4).decomposition,
            ):
                brute = sum(
                    1
                    for u in g.vertices()
                    for v in g.neighbors(u)
                    if u < v and d.cluster_of(u) is not d.cluster_of(v)
                )
                assert d.cut_edges() == brute

    def test_path_decomposition(self):
        _, d = make_path_decomposition()
        assert d.cut_edges() == 2

    def test_no_edges(self):
        d = NetworkDecomposition.from_centers(Graph(3), {0: 0, 1: 1, 2: 1}, {0: 0, 1: 0, 2: 0})
        assert d.cut_edges() == 0


class TestLeader:
    def test_member_center_leads(self):
        assert Cluster(index=0, color=0, vertices=frozenset({3, 5}), center=5).leader == 5

    def test_no_center_falls_back_to_smallest_member(self):
        assert Cluster(index=0, color=0, vertices=frozenset({7, 4})).leader == 4

    def test_ls_center_outside_its_class(self):
        """A Linial–Saks center need not join its own class; the smallest
        member then leads."""
        from repro.baselines import linial_saks
        from repro.graphs import erdos_renyi

        g = erdos_renyi(120, 0.05, seed=7)
        d, _ = linial_saks.decompose(g, k=3, seed=7)
        outside = [c for c in d.clusters if c.center not in c.vertices]
        assert outside
        for cluster in outside:
            assert cluster.leader == min(cluster.vertices)
