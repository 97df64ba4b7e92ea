"""Structural invariants of the oracle build: pyramid, covers, tables."""

from __future__ import annotations

import math

import pytest

from repro.errors import ParameterError
from repro.graphs import (
    Graph,
    bfs_distances_bounded,
    connected_components,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    gnp_fast,
    path_graph,
    torus_graph,
)
from repro.oracle import build_oracle
from repro.oracle.hierarchy import base_level, coarsen_level, component_level

GRAPHS = [
    ("path", path_graph(30)),
    ("cycle", cycle_graph(24)),
    ("grid", grid_graph(7, 9)),
    ("torus", torus_graph(8, 8)),
    ("er", erdos_renyi(80, 0.04, seed=3)),
    ("gnp-sparse", gnp_fast(300, 0.008, seed=5)),
    ("empty-edges", Graph(12)),
]
IDS = [name for name, _ in GRAPHS]


@pytest.fixture(scope="module")
def oracles():
    return {name: build_oracle(graph, seed=11) for name, graph in GRAPHS}


class TestPyramid:
    def test_base_level_partitions(self):
        graph = erdos_renyi(60, 0.06, seed=2)
        level = base_level(graph, k=4, c=4.0, seed=7)
        assert len(level.core_of) == graph.num_vertices
        assert set(level.core_of) == set(range(level.num_cores))
        for j, center in enumerate(level.centers):
            assert level.core_of[center] == j

    def test_coarsen_merges_only_along_edges(self):
        graph = grid_graph(6, 6)
        level = base_level(graph, k=3, c=4.0, seed=7)
        coarse = coarsen_level(graph, level, c=4.0, seed=7, depth=1)
        assert coarse.num_cores <= level.num_cores
        # Coarse cores are unions of fine cores.
        fine_to_coarse = {}
        for v in graph.vertices():
            fine = level.core_of[v]
            coarse_id = coarse.core_of[v]
            assert fine_to_coarse.setdefault(fine, coarse_id) == coarse_id

    def test_component_level_matches_components(self):
        graph = erdos_renyi(50, 0.02, seed=9)
        level = component_level(graph)
        assert level.is_components
        components = connected_components(graph)
        assert level.num_cores == len(components)
        for component in components:
            labels = {level.core_of[v] for v in component}
            assert len(labels) == 1


class TestScaleTables:
    @pytest.mark.parametrize("name", IDS)
    def test_csr_columns_consistent(self, oracles, name):
        oracle = oracles[name]
        n = oracle.graph.num_vertices
        for scale in oracle.scales:
            assert len(scale.indptr) == n + 1
            assert scale.indptr[0] == 0
            assert scale.indptr[n] == scale.entries
            assert len(scale.member_dist) == scale.entries
            assert len(scale.member_parent) == scale.entries
            for v in range(n):
                lo, hi = scale.indptr[v], scale.indptr[v + 1]
                row = scale.member_cluster[lo:hi]
                assert list(row) == sorted(set(row)), "unsorted membership row"
                for slot in range(lo, hi):
                    cluster = scale.member_cluster[slot]
                    assert 0 <= cluster < scale.num_clusters
                    assert 0 <= scale.member_dist[slot] <= scale.ecc[cluster]

    @pytest.mark.parametrize("name", IDS)
    def test_every_vertex_covered_at_every_scale(self, oracles, name):
        oracle = oracles[name]
        for scale in oracle.scales:
            for v in oracle.graph.vertices():
                assert scale.indptr[v + 1] > scale.indptr[v]

    @pytest.mark.parametrize("name", IDS)
    def test_covering_property(self, oracles, name):
        """Every W-ball is inside at least one cluster of the scale."""
        oracle = oracles[name]
        graph = oracle.graph
        for scale in oracle.scales:
            membership = [
                {
                    scale.member_cluster[slot]
                    for slot in range(scale.indptr[v], scale.indptr[v + 1])
                }
                for v in graph.vertices()
            ]
            for v in graph.vertices():
                ball = bfs_distances_bounded(graph, v, scale.radius)
                shared = set(membership[v])
                for u in ball:
                    shared &= membership[u]
                assert shared, f"W={scale.radius}: ball of {v} not covered"

    @pytest.mark.parametrize("name", IDS)
    def test_terminal_scale_is_component_complete(self, oracles, name):
        oracle = oracles[name]
        graph = oracle.graph
        if graph.num_vertices == 0:
            assert oracle.scales == []
            return
        last = oracle.scales[-1]
        assert last.is_components
        # Any same-component pair shares a cluster at the last scale.
        for component in connected_components(graph):
            shared = None
            for v in component:
                mine = {
                    last.member_cluster[slot]
                    for slot in range(last.indptr[v], last.indptr[v + 1])
                }
                shared = mine if shared is None else shared & mine
            assert shared

    @pytest.mark.parametrize("name", IDS)
    def test_center_distances_exact_in_cluster(self, oracles, name):
        """Stored distances match BFS inside the cluster's induced subgraph."""
        oracle = oracles[name]
        graph = oracle.graph
        for scale in oracle.scales[:2]:
            members_of: dict[int, list[int]] = {}
            for v in graph.vertices():
                for slot in range(scale.indptr[v], scale.indptr[v + 1]):
                    members_of.setdefault(scale.member_cluster[slot], []).append(v)
            for cluster, members in members_of.items():
                center = scale.centers[cluster]
                exact = bfs_distances_bounded(
                    graph, center, radius=None, active=set(members)
                )
                for v in members:
                    slot = next(
                        s
                        for s in range(scale.indptr[v], scale.indptr[v + 1])
                        if scale.member_cluster[s] == cluster
                    )
                    assert scale.member_dist[slot] == exact[v]

    @pytest.mark.parametrize("name", IDS)
    def test_parent_pointers_walk_to_center(self, oracles, name):
        oracle = oracles[name]
        graph = oracle.graph
        for scale in oracle.scales:
            for v in graph.vertices():
                for slot in range(scale.indptr[v], scale.indptr[v + 1]):
                    cluster = scale.member_cluster[slot]
                    steps = 0
                    current, at = v, slot
                    while scale.member_parent[at] >= 0:
                        parent = scale.member_parent[at]
                        assert graph.has_edge(current, parent)
                        current = parent
                        steps += 1
                        lo, hi = scale.indptr[current], scale.indptr[current + 1]
                        at = next(
                            s for s in range(lo, hi)
                            if scale.member_cluster[s] == cluster
                        )
                    assert current == scale.centers[cluster]
                    assert steps == scale.member_dist[slot]


class TestBuildPolicy:
    def test_deterministic_given_seed(self):
        graph = erdos_renyi(70, 0.05, seed=4)
        first = build_oracle(graph, seed=21)
        second = build_oracle(graph, seed=21)
        assert len(first.scales) == len(second.scales)
        for a, b in zip(first.scales, second.scales):
            assert a.radius == b.radius
            assert a.centers == b.centers
            assert a.indptr == b.indptr
            assert a.member_cluster == b.member_cluster
            assert a.member_dist == b.member_dist
            assert a.member_parent == b.member_parent

    def test_overlap_budget_skips_saturated_scales(self):
        # A dense-ish graph saturates quickly under a tight budget.
        graph = erdos_renyi(120, 0.12, seed=6)
        tight = build_oracle(graph, seed=3, overlap_budget=1.5)
        assert tight.scales[-1].is_components
        assert tight.stretch_bound >= 1.0

    def test_overlap_budget_validation(self):
        with pytest.raises(ParameterError, match="overlap_budget"):
            build_oracle(path_graph(4), overlap_budget=0.5)
        for budget in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError, match="overlap_budget"):
                build_oracle(path_graph(4), overlap_budget=budget)

    def test_min_distance_chain_is_monotone(self):
        for name, graph in GRAPHS:
            oracle = build_oracle(graph, seed=13)
            floors = [scale.min_distance for scale in oracle.scales]
            assert floors == sorted(floors)
            if floors:
                assert floors[0] == 2

    def test_empty_graph(self):
        oracle = build_oracle(Graph(0))
        assert oracle.scales == []
        assert oracle.stretch_bound == 1.0

    def test_single_vertex(self):
        oracle = build_oracle(Graph(1))
        assert oracle.num_scales == 1
        assert oracle.distances([(0, 0)]) == [0]
