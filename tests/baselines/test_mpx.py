"""Tests for the Miller–Peng–Xu partition (centralized and distributed)."""

from __future__ import annotations

import math

import pytest

from repro.baselines import mpx
from repro.baselines.distributed_mpx import partition_distributed
from repro.errors import ParameterError
from repro.graphs import (
    Graph,
    bfs_distances,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    random_connected,
    shortest_path,
    strong_diameter,
)
from repro.rng import stream


class TestSampleShifts:
    def test_deterministic(self):
        g = path_graph(5)
        assert mpx.sample_shifts(g, 0.5, seed=1) == mpx.sample_shifts(g, 0.5, seed=1)

    def test_bad_beta(self):
        with pytest.raises(ParameterError):
            mpx.sample_shifts(path_graph(3), 0.0)

    @pytest.mark.parametrize("seed", [1, 20160217])
    @pytest.mark.parametrize("beta", [0.05, 0.5, 2.0])
    def test_equal_per_vertex_stream_draws(self, seed, beta):
        g = Graph(400)
        assert mpx.sample_shifts(g, beta, seed=seed) == {
            u: stream(seed, "mpx-shift", u).expovariate(beta) for u in range(400)
        }


class TestPartition:
    def test_is_partition(self):
        g = erdos_renyi(60, 0.08, seed=1)
        result = mpx.partition(g, beta=0.5, seed=2)
        result.decomposition.validate()
        assert set(result.center_of) == set(g.vertices())

    def test_clusters_connected(self):
        """MPX's strong-diameter property: every cluster is connected."""
        for seed in range(5):
            g = erdos_renyi(50, 0.07, seed=seed)
            result = mpx.partition(g, beta=0.6, seed=seed)
            for cluster in result.decomposition.clusters:
                assert not math.isinf(strong_diameter(g, cluster.vertices))

    def test_shortest_path_closure(self):
        """If y is assigned to u, every shortest u->y path vertex is too.

        For x on a shortest u->y path, δ_u − d(x,u) ≥ δ_w − d(x,w) for all
        w (triangle inequality through y), strictly outside measure-zero
        ties — so x's argmax is also u.
        """
        g = grid_graph(6, 6)
        result = mpx.partition(g, beta=0.7, seed=4)
        for y, u in result.center_of.items():
            path = shortest_path(g, u, y)
            assert path is not None
            for x in path:
                assert result.center_of[x] == u

    def test_assignment_is_argmax(self):
        g = random_connected(30, 0.05, seed=5)
        result = mpx.partition(g, beta=0.5, seed=5)
        for y in g.vertices():
            distances = bfs_distances(g, y)
            best = max(
                (result.shifts[u] - d for u, d in distances.items()),
                default=0.0,
            )
            chosen = result.center_of[y]
            got = result.shifts[chosen] - distances[chosen]
            assert got == pytest.approx(best)

    def test_cut_fraction_decreases_with_beta(self):
        g = erdos_renyi(80, 0.06, seed=6)
        fractions = [
            mpx.partition(g, beta=beta, seed=7).cut_fraction
            for beta in (2.0, 0.5, 0.1)
        ]
        assert fractions[0] >= fractions[1] >= fractions[2]

    def test_cut_fraction_bound_statistical(self):
        # E[cut fraction] <= O(beta); with constant 2 this is comfortable.
        g = erdos_renyi(100, 0.05, seed=8)
        beta = 0.3
        mean = sum(
            mpx.partition(g, beta=beta, seed=s).cut_fraction for s in range(10)
        ) / 10
        assert mean <= 2 * beta

    def test_diameter_scales_inverse_beta(self):
        g = path_graph(200)
        small = mpx.partition(g, beta=1.0, seed=9)
        large = mpx.partition(g, beta=0.05, seed=9)
        assert (
            large.decomposition.max_strong_diameter()
            > small.decomposition.max_strong_diameter()
        )

    def test_empty_graph(self):
        result = mpx.partition(Graph(0), beta=0.5)
        assert result.decomposition.num_clusters == 0
        assert result.cut_fraction == 0.0

    def test_explicit_shifts(self):
        g = path_graph(4)
        shifts = {0: 5.0, 1: 0.1, 2: 0.2, 3: 0.3}
        result = mpx.partition(g, beta=1.0, shifts=shifts)
        assert all(center == 0 for center in result.center_of.values())
        assert result.cut_edges == 0


class TestDistributedMPX:
    @pytest.mark.parametrize("mode", ["full", "topone"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_centralized(self, mode, seed):
        g = erdos_renyi(50, 0.08, seed=seed)
        central = mpx.partition(g, beta=0.5, seed=seed)
        distributed = partition_distributed(g, beta=0.5, seed=seed, mode=mode)
        assert distributed.center_of == central.center_of
        assert distributed.cut_edges == central.cut_edges

    def test_topone_is_congest(self):
        g = erdos_renyi(60, 0.1, seed=3)
        result = partition_distributed(g, beta=0.4, seed=3, mode="topone", word_budget=4)
        assert result.stats.max_words_per_edge_round <= 4

    def test_single_shot_round_count(self):
        g = cycle_graph(30)
        result = partition_distributed(g, beta=0.5, seed=5)
        assert result.rounds == result.stats.rounds

    def test_invalid_mode(self):
        with pytest.raises(ParameterError):
            partition_distributed(path_graph(3), beta=0.5, mode="nope")  # type: ignore[arg-type]

    def test_invalid_beta(self):
        with pytest.raises(ParameterError):
            partition_distributed(path_graph(3), beta=-1.0)
