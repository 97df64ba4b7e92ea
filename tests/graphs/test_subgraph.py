"""Unit tests for induced subgraphs, quotient graphs and transforms."""

from __future__ import annotations

import pytest

from repro.errors import GraphError, ParameterError
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    diameter,
    grid_graph,
    induced_subgraph,
    line_graph,
    path_graph,
    power_graph,
    quotient_graph,
    relabel,
    star_graph,
)


class TestInducedSubgraph:
    def test_path_middle(self):
        g = path_graph(5)
        sub, mapping = induced_subgraph(g, [1, 2, 3])
        assert sub.num_vertices == 3
        assert sub.num_edges == 2
        assert mapping == {1: 0, 2: 1, 3: 2}

    def test_drops_external_edges(self):
        g = complete_graph(4)
        sub, _ = induced_subgraph(g, [0, 2])
        assert sub.num_edges == 1

    def test_empty_selection(self):
        sub, mapping = induced_subgraph(path_graph(3), [])
        assert sub.num_vertices == 0
        assert mapping == {}

    def test_duplicates_collapsed(self):
        sub, _ = induced_subgraph(path_graph(3), [1, 1, 2])
        assert sub.num_vertices == 2


class TestQuotientGraph:
    def test_contract_path_pairs(self):
        g = path_graph(4)
        q = quotient_graph(g, {0: 0, 1: 0, 2: 1, 3: 1}, 2)
        assert q.num_vertices == 2
        assert q.num_edges == 1

    def test_no_self_loops(self):
        g = complete_graph(3)
        q = quotient_graph(g, {0: 0, 1: 0, 2: 0}, 1)
        assert q.num_edges == 0

    def test_parallel_edges_collapse(self):
        g = cycle_graph(4)
        q = quotient_graph(g, {0: 0, 1: 1, 2: 0, 3: 1}, 2)
        assert q.num_edges == 1

    def test_partial_mapping_rejected(self):
        with pytest.raises(GraphError):
            quotient_graph(path_graph(3), {0: 0, 1: 0}, 1)

    def test_out_of_range_cluster_rejected(self):
        with pytest.raises(GraphError):
            quotient_graph(path_graph(2), {0: 0, 1: 5}, 2)

    def test_mapping_with_non_vertex_key_rejected(self):
        # The right length, but vertex 3 (isolated) is keyed as 7.
        with pytest.raises(GraphError, match="3 is missing"):
            quotient_graph(Graph(4, [(0, 1), (1, 2)]), {0: 0, 1: 0, 2: 1, 7: 1}, 2)

    def test_per_vertex_sequence_accepted(self):
        q = quotient_graph(cycle_graph(4), [0, 1, 0, 1], 2)
        assert q.num_edges == 1


class TestRelabel:
    def test_reverse_path(self):
        g = path_graph(4)
        h = relabel(g, [3, 2, 1, 0])
        assert h == g  # a path reversed is the same labelled path here

    def test_star_recentre(self):
        g = star_graph(4)
        h = relabel(g, [1, 0, 2, 3])
        assert h.degree(1) == 3
        assert h.degree(0) == 1

    def test_invalid_permutation(self):
        with pytest.raises(GraphError):
            relabel(path_graph(3), [0, 0, 1])

    def test_preserves_structure(self, zoo_graph):
        n = zoo_graph.num_vertices
        perm = [(v * 7 + 3) % n for v in range(n)]
        if len(set(perm)) != n:
            perm = list(reversed(range(n)))
        h = relabel(zoo_graph, perm)
        assert h.num_edges == zoo_graph.num_edges
        assert sorted(h.degree(v) for v in h.vertices()) == sorted(
            zoo_graph.degree(v) for v in zoo_graph.vertices()
        )


class TestLineGraph:
    def test_path_line_is_path(self):
        g = path_graph(4)  # 3 edges in a row
        lg, edges = line_graph(g)
        assert lg.num_vertices == 3
        assert lg.num_edges == 2
        assert diameter(lg) == 2
        assert edges == [(0, 1), (1, 2), (2, 3)]

    def test_star_line_is_complete(self):
        g = star_graph(5)
        lg, _ = line_graph(g)
        assert lg.num_vertices == 4
        assert lg.num_edges == 6  # K4

    def test_triangle_line_is_triangle(self):
        g = complete_graph(3)
        lg, _ = line_graph(g)
        assert lg.num_vertices == 3
        assert lg.num_edges == 3

    def test_edge_count_formula(self, zoo_graph):
        # |E(L(G))| = sum_v C(deg(v), 2)
        lg, _ = line_graph(zoo_graph)
        expected = sum(
            zoo_graph.degree(v) * (zoo_graph.degree(v) - 1) // 2
            for v in zoo_graph.vertices()
        )
        assert lg.num_edges == expected

    def test_empty_graph(self):
        lg, edges = line_graph(Graph(3))
        assert lg.num_vertices == 0
        assert edges == []


class TestPowerGraph:
    def test_square_of_path(self):
        g = path_graph(5)
        g2 = power_graph(g, 2)
        assert g2.has_edge(0, 2)
        assert not g2.has_edge(0, 3)

    def test_power_one_is_same(self, zoo_graph):
        assert power_graph(zoo_graph, 1) == zoo_graph

    def test_large_power_is_component_clique(self):
        g = path_graph(4)
        g3 = power_graph(g, 3)
        assert g3.num_edges == 6

    def test_invalid_power(self):
        with pytest.raises(ParameterError):
            power_graph(path_graph(3), 0)
