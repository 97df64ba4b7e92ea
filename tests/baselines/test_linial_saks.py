"""Tests for the Linial–Saks baseline (centralized and distributed)."""

from __future__ import annotations

import math

import pytest

from repro.baselines import linial_saks
from repro.baselines.distributed_ls import decompose_distributed
from repro.baselines.linial_saks import ls_phase, sample_ls_phase_radii, sample_ls_radius
from repro.errors import ParameterError
from repro.graphs import (
    Graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    random_connected,
)


class TestRadiusSampling:
    def test_deterministic(self):
        assert sample_ls_radius(1, 2, 3, 0.5, 4) == sample_ls_radius(1, 2, 3, 0.5, 4)

    def test_within_cap(self):
        assert all(
            0 <= sample_ls_radius(7, 1, v, 0.6, 3) <= 3 for v in range(500)
        )

    def test_distribution_shape(self):
        # Pr[r >= 1] = p.
        p, k = 0.3, 5
        draws = [sample_ls_radius(11, 1, v, p, k) for v in range(8000)]
        frac = sum(1 for r in draws if r >= 1) / len(draws)
        assert frac == pytest.approx(p, abs=0.02)

    def test_cap_mass(self):
        # Pr[r = k] = p^k.
        p, k = 0.5, 2
        draws = [sample_ls_radius(13, 1, v, p, k) for v in range(8000)]
        frac = sum(1 for r in draws if r == k) / len(draws)
        assert frac == pytest.approx(p**k, abs=0.02)

    def test_validation(self):
        with pytest.raises(ParameterError):
            sample_ls_radius(1, 1, 1, 0.0, 3)
        with pytest.raises(ParameterError):
            sample_ls_radius(1, 1, 1, 1.0, 3)
        with pytest.raises(ParameterError):
            sample_ls_radius(1, 1, 1, 0.5, 0)

    @pytest.mark.parametrize("phase", [1, 2, 7])
    @pytest.mark.parametrize("p,k", [(0.05, 2), (0.3, 4), (0.8, 6), (0.95, 3)])
    def test_phase_draws_equal_per_vertex_draws(self, phase, p, k):
        vertices = list(range(0, 900, 3))
        assert sample_ls_phase_radii(13, phase, vertices, p, k) == {
            v: sample_ls_radius(13, phase, v, p, k) for v in vertices
        }

    def test_phase_draws_validate(self):
        with pytest.raises(ParameterError):
            sample_ls_phase_radii(1, 1, [0], 1.0, 3)
        with pytest.raises(ParameterError):
            sample_ls_phase_radii(1, 1, [0], 0.5, 0)


class TestLSPhase:
    def test_min_id_wins(self):
        g = path_graph(3)
        block, centers = ls_phase(g, set(g.vertices()), {0: 2, 1: 2, 2: 2})
        # Vertex 0 reaches everyone and is the minimum ID.  Vertex 2 sits
        # at distance exactly r_0 = 2: reached, so it selects 0, but not
        # *strictly* inside — it stays out of the block.
        assert block == {0, 1}
        assert centers == {0: 0, 1: 0}

    def test_strict_inequality_boundary(self):
        g = path_graph(3)
        block, centers = ls_phase(g, set(g.vertices()), {0: 1, 1: 0, 2: 0})
        # Vertex 1 is at distance 1 = r_0: reached but NOT strictly inside.
        assert 0 in block
        assert 1 not in block
        assert 2 not in block  # own radius 0: d(2,2)=0 not < 0

    def test_zero_radius_vertex_joins_nothing(self):
        g = Graph(1)
        block, _ = ls_phase(g, {0}, {0: 0})
        assert block == set()

    def test_inactive_vertex_rejected(self):
        g = path_graph(3)
        with pytest.raises(ParameterError):
            ls_phase(g, {0, 1}, {0: 1, 2: 1})


class TestLSDecompose:
    def test_valid_weak_decomposition(self):
        g = erdos_renyi(100, 0.05, seed=2)
        k = 4
        decomposition, trace = linial_saks.decompose(g, k=k, seed=12)
        decomposition.validate(max_diameter=2 * k - 2, strong=False)
        assert trace.phases == len(trace.survivors)

    def test_weak_diameter_bound_always(self):
        for seed in range(4):
            g = erdos_renyi(60, 0.07, seed=seed)
            decomposition, _ = linial_saks.decompose(g, k=3, seed=seed)
            assert decomposition.max_weak_diameter() <= 2 * 3 - 2

    def test_produces_disconnected_clusters_somewhere(self):
        """The paper's motivation: LS clusters need not be connected."""
        found = 0
        for seed in range(6):
            g = erdos_renyi(80, 0.06, seed=seed)
            decomposition, _ = linial_saks.decompose(g, k=4, seed=seed)
            found += len(decomposition.disconnected_clusters())
        assert found > 0

    def test_deterministic(self):
        g = grid_graph(6, 6)
        a, _ = linial_saks.decompose(g, k=3, seed=5)
        b, _ = linial_saks.decompose(g, k=3, seed=5)
        assert a.cluster_index_map() == b.cluster_index_map()

    def test_clusters_are_center_balls(self):
        # LS clusters are center classes.  The center itself may belong to
        # a *different* cluster (a smaller ID may have claimed it), but
        # every member sits strictly inside the center's radius-<=k ball,
        # so it is within k-1 of the center in G.
        from repro.graphs import bfs_distances

        g = random_connected(50, 0.04, seed=3)
        k = 3
        decomposition, _ = linial_saks.decompose(g, k=k, seed=7)
        for cluster in decomposition.clusters:
            assert cluster.center is not None
            distances = bfs_distances(g, cluster.center)
            assert all(distances[v] <= k - 1 for v in cluster.vertices)

    def test_empty_graph(self):
        decomposition, trace = linial_saks.decompose(Graph(0), k=3)
        assert decomposition.num_clusters == 0
        assert trace.phases == 0

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            linial_saks.decompose(path_graph(3), k=0)
        with pytest.raises(ParameterError):
            linial_saks.decompose(path_graph(3), k=2, p=1.5)


class TestDistributedLS:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_centralized(self, seed):
        g = erdos_renyi(50, 0.08, seed=seed)
        central, _ = linial_saks.decompose(g, k=3, seed=seed)
        distributed = decompose_distributed(g, k=3, seed=seed)
        assert central.cluster_index_map() == distributed.decomposition.cluster_index_map()
        assert [c.center for c in central.clusters] == [
            c.center for c in distributed.decomposition.clusters
        ]

    def test_fixed_phase_length(self):
        g = cycle_graph(20)
        result = decompose_distributed(g, k=3, seed=9, adaptive_phase_length=False)
        assert all(r == 3 + 2 for r in result.rounds_per_phase)
        result.decomposition.validate(max_diameter=4, strong=False)

    def test_round_accounting(self):
        g = grid_graph(5, 5)
        result = decompose_distributed(g, k=3, seed=10)
        assert result.total_rounds == result.stats.rounds
        assert result.phases == len(result.rounds_per_phase)

    def test_validation(self):
        with pytest.raises(ParameterError):
            decompose_distributed(path_graph(3), k=0)
