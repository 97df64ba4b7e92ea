"""Tests for the reusable distributed primitives."""

from __future__ import annotations

import pytest

from repro.graphs import (
    Graph,
    bfs_distances,
    cycle_graph,
    diameter,
    grid_graph,
    path_graph,
    star_graph,
)
from tests.distributed.protocols import (
    run_bfs_tree,
    run_convergecast_sum,
    run_flood,
    run_leader_election,
)


class TestFlood:
    def test_arrival_equals_distance(self, zoo_graph):
        arrivals = run_flood(zoo_graph, 0)
        assert arrivals == bfs_distances(zoo_graph, 0)

    def test_disconnected_unreached(self):
        g = Graph(4, [(0, 1), (2, 3)])
        arrivals = run_flood(g, 0)
        assert set(arrivals) == {0, 1}

    def test_root_at_zero(self):
        assert run_flood(path_graph(5), 3)[3] == 0


class TestBFSTree:
    def test_depths_equal_distances(self, zoo_graph):
        _, depths = run_bfs_tree(zoo_graph, 0)
        assert depths == bfs_distances(zoo_graph, 0)

    def test_parents_form_tree(self):
        g = grid_graph(4, 5)
        parents, depths = run_bfs_tree(g, 0)
        assert parents[0] == -1
        for v, parent in parents.items():
            if v == 0:
                continue
            assert g.has_edge(v, parent)
            assert depths[parent] == depths[v] - 1

    def test_star_all_children_of_center(self):
        parents, _ = run_bfs_tree(star_graph(8), 0)
        assert all(parents[v] == 0 for v in range(1, 8))


class TestConvergecast:
    def test_counts_vertices(self, zoo_graph):
        from repro.graphs import component_of

        component = component_of(zoo_graph, 0)
        total = run_convergecast_sum(
            zoo_graph, 0, {v: 1.0 for v in zoo_graph.vertices()}
        )
        assert total == len(component)

    def test_weighted_sum(self):
        g = path_graph(6)
        total = run_convergecast_sum(g, 2, {v: float(v) for v in g.vertices()})
        assert total == sum(range(6))

    def test_single_vertex(self):
        assert run_convergecast_sum(Graph(1), 0, {0: 7.0}) == 7.0


class TestLeaderElection:
    def test_connected_elects_zero(self, zoo_graph):
        leaders = run_leader_election(zoo_graph)
        from repro.graphs import connected_components

        for component in connected_components(zoo_graph):
            expected = min(component)
            assert all(leaders[v] == expected for v in component)

    def test_stabilises_within_diameter_plus_one(self):
        g = cycle_graph(12)
        # run_until_quiet stops when no messages are in flight; the number
        # of rounds is at most diameter + 1 (information travel time).
        from repro.distributed import SyncNetwork
        from tests.distributed.protocols import LeaderElectionNode

        network = SyncNetwork(g, lambda v: LeaderElectionNode(v))
        rounds = network.run_until_quiet()
        assert rounds <= diameter(g) + 2
