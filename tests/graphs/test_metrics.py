"""Unit tests for exact metric computations (diameter, strong/weak)."""

from __future__ import annotations

import math

import pytest

from repro.errors import GraphError
from repro.graphs import (
    ActiveSet,
    Graph,
    all_pairs_distances,
    average_distance,
    complete_graph,
    cycle_graph,
    diameter,
    eccentricity,
    grid_graph,
    path_graph,
    radius,
    star_graph,
    strong_diameter,
    weak_diameter,
)


class TestEccentricity:
    def test_path_center_vs_end(self):
        g = path_graph(7)
        assert eccentricity(g, 0) == 6
        assert eccentricity(g, 3) == 3

    def test_disconnected_is_inf(self):
        g = Graph(3, [(0, 1)])
        assert math.isinf(eccentricity(g, 0))

    def test_active_subset(self):
        g = path_graph(5)
        assert eccentricity(g, 1, active={0, 1, 2}) == 1


class TestDiameterRadius:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (path_graph(9), 8),
            (cycle_graph(10), 5),
            (complete_graph(7), 1),
            (star_graph(6), 2),
            (grid_graph(3, 7), 8),
        ],
    )
    def test_diameter_known(self, graph, expected):
        assert diameter(graph) == expected

    def test_diameter_trivial(self):
        assert diameter(Graph(0)) == 0
        assert diameter(Graph(1)) == 0

    def test_diameter_disconnected(self):
        assert math.isinf(diameter(Graph(3, [(0, 1)])))

    def test_diameter_active(self):
        g = cycle_graph(8)
        assert diameter(g, active={0, 1, 2, 3}) == 3

    def test_radius_path(self):
        assert radius(path_graph(9)) == 4

    def test_radius_star(self):
        assert radius(star_graph(8)) == 1

    def test_radius_le_diameter_le_twice_radius(self, zoo_graph):
        d = diameter(zoo_graph)
        r = radius(zoo_graph)
        if math.isinf(d):
            assert math.isinf(r) or True
        else:
            assert r <= d <= 2 * r


class TestStrongWeakDiameter:
    def test_connected_cluster_equal(self):
        g = path_graph(6)
        cluster = [1, 2, 3]
        assert strong_diameter(g, cluster) == 2
        assert weak_diameter(g, cluster) == 2

    def test_disconnected_cluster(self):
        g = path_graph(5)
        cluster = [0, 4]  # connected in G through 1,2,3 but not induced
        assert math.isinf(strong_diameter(g, cluster))
        assert weak_diameter(g, cluster) == 4

    def test_weak_le_strong(self, zoo_graph):
        # On any vertex subset, weak diameter <= strong diameter.
        cluster = [v for v in zoo_graph.vertices() if v % 2 == 0]
        if cluster:
            assert weak_diameter(zoo_graph, cluster) <= strong_diameter(
                zoo_graph, cluster
            )

    def test_singleton(self):
        g = path_graph(4)
        assert strong_diameter(g, [2]) == 0
        assert weak_diameter(g, [2]) == 0

    def test_empty(self):
        g = path_graph(4)
        assert strong_diameter(g, []) == 0
        assert weak_diameter(g, []) == 0

    def test_weak_inf_across_components(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert math.isinf(weak_diameter(g, [0, 2]))

    def test_strong_equals_masked_host_diameter(self, zoo_graph):
        """The induced-subgraph diameter equals the diameter of the host
        graph restricted to a member mask, on connected, disconnected,
        singleton and empty clusters."""
        n = zoo_graph.num_vertices
        clusters = [[], [0] if n else [], [v for v in range(n) if v % 3 != 1]]
        clusters += [list(range(0, n, 2)), list(range(n // 2)), [0, n - 1] if n else []]
        for cluster in clusters:
            masked = diameter(zoo_graph, active=ActiveSet.from_iterable(n, cluster))
            assert strong_diameter(zoo_graph, cluster) == masked

    def test_strong_rejects_out_of_range_members(self):
        g = path_graph(4)
        for cluster in ([7], [-1], [0, 9]):
            with pytest.raises(GraphError):
                strong_diameter(g, cluster)


class TestAverageDistance:
    def test_path(self):
        g = path_graph(3)
        # pairs: (0,1)=1 (0,2)=2 (1,2)=1 -> mean over ordered pairs = 8/6
        assert average_distance(g) == pytest.approx(8 / 6)

    def test_complete(self):
        assert average_distance(complete_graph(5)) == 1.0

    def test_no_pairs(self):
        assert average_distance(Graph(1)) == 0.0


class TestAllPairs:
    def test_symmetry(self, zoo_graph):
        apd = all_pairs_distances(zoo_graph)
        for u in zoo_graph.vertices():
            for v, d in apd[u].items():
                assert apd[v][u] == d

    def test_triangle_inequality(self):
        g = grid_graph(4, 4)
        apd = all_pairs_distances(g)
        verts = list(g.vertices())
        for u in verts[:6]:
            for v in verts[:6]:
                for w in verts[:6]:
                    assert apd[u][v] <= apd[u][w] + apd[w][v]
