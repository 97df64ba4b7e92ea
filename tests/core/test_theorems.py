"""End-to-end tests of the three theorem drivers (centralized)."""

from __future__ import annotations

import math

import pytest

from repro.core import elkin_neiman, high_radius, staged
from repro.errors import SimulationError
from repro.graphs import (
    Graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    random_connected,
)


class TestTheorem1:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_guarantees_on_er(self, k):
        g = erdos_renyi(120, 0.05, seed=10)
        decomposition, trace = elkin_neiman.decompose(g, k=k, seed=20)
        decomposition.validate()
        if not trace.had_truncation_event:
            assert decomposition.max_strong_diameter() <= 2 * k - 2

    def test_colors_bounded_by_phases(self):
        g = erdos_renyi(100, 0.05, seed=1)
        decomposition, trace = elkin_neiman.decompose(g, k=3, seed=2)
        assert decomposition.num_colors <= trace.total_phases

    def test_deterministic_given_seed(self):
        g = grid_graph(6, 6)
        a, _ = elkin_neiman.decompose(g, k=3, seed=5)
        b, _ = elkin_neiman.decompose(g, k=3, seed=5)
        assert a.cluster_index_map() == b.cluster_index_map()

    def test_seed_changes_result(self):
        g = grid_graph(6, 6)
        a, _ = elkin_neiman.decompose(g, k=3, seed=5)
        b, _ = elkin_neiman.decompose(g, k=3, seed=6)
        assert a.cluster_index_map() != b.cluster_index_map()

    def test_empty_graph(self):
        decomposition, trace = elkin_neiman.decompose(Graph(0), k=2)
        assert decomposition.num_clusters == 0
        assert trace.total_phases == 0

    def test_single_vertex(self):
        decomposition, _ = elkin_neiman.decompose(Graph(1), k=2, seed=1)
        decomposition.validate()
        assert decomposition.num_clusters == 1

    def test_disconnected_graph(self):
        g = Graph(6, [(0, 1), (2, 3)])
        decomposition, _ = elkin_neiman.decompose(g, k=2, seed=1)
        decomposition.validate()

    def test_trace_bookkeeping(self):
        g = path_graph(30)
        decomposition, trace = elkin_neiman.decompose(g, k=2, seed=3)
        assert trace.total_phases == len(trace.phases)
        assert trace.survivors[-1] == 0
        assert sum(p.block_size for p in trace.phases) == 30
        # survivors decrease weakly.
        assert all(a >= b for a, b in zip(trace.survivors, trace.survivors[1:]))

    def test_max_phases_guard(self):
        g = path_graph(10)
        with pytest.raises(SimulationError, match="not exhausted"):
            elkin_neiman.decompose(g, k=2, seed=3, max_phases=1)

    def test_range_cap_mode_valid(self):
        g = erdos_renyi(80, 0.06, seed=4)
        decomposition, trace = elkin_neiman.decompose(
            g, k=3, seed=7, use_range_cap=True
        )
        decomposition.validate()
        # With the cap, 2k-2 holds unconditionally on the centre distance
        # side; truncation events may only shrink broadcasts further.
        assert decomposition.max_strong_diameter() <= 2 * 3 - 2

    def test_exhausts_within_nominal_usually(self):
        # Corollary 7: failure probability <= 1/c = 1/8 per run.  The
        # assertion is aggregate (deterministic, fixed seeds): most runs
        # must finish within the nominal budget.
        outcomes = []
        for seed in range(8):
            g = erdos_renyi(60, 0.08, seed=seed)
            _, trace = elkin_neiman.decompose(g, k=3, c=8.0, seed=seed)
            outcomes.append(trace.exhausted_within_nominal)
        assert sum(outcomes) >= 6

    def test_mean_colors_fall_as_k_grows(self):
        """More radius, fewer colours: over seeds 0-2 on one graph the mean
        colour count at k=4 is below the one at k=2, and the strong
        diameter stays within 2k-2 plus slack for truncation events."""
        g = erdos_renyi(40, 0.1, seed=7)
        mean_colors = {}
        for k in (2, 4):
            runs = [elkin_neiman.decompose(g, k=k, seed=seed)[0] for seed in range(3)]
            mean_colors[k] = sum(d.num_colors for d in runs) / len(runs)
            assert max(d.max_strong_diameter() for d in runs) <= 2 * k - 2 + 4
        assert mean_colors[4] < mean_colors[2]


class TestTheorem2:
    def test_guarantees(self):
        g = erdos_renyi(150, 0.04, seed=11)
        k = 4
        decomposition, trace = staged.decompose(g, k=k, c=6.0, seed=21)
        decomposition.validate()
        if not trace.had_truncation_event:
            assert decomposition.max_strong_diameter() <= 2 * k - 2

    def test_uses_fewer_phases_than_theorem1_budget(self):
        # The staged schedule's budget 4k(cn)^{1/k} is below Theorem 1's
        # (cn)^{1/k} ln(cn) for small k on large n.
        g = erdos_renyi(300, 0.02, seed=12)
        d2, t2 = staged.decompose(g, k=2, c=6.0, seed=22)
        d1, t1 = elkin_neiman.decompose(g, k=2, c=6.0, seed=22)
        assert t2.nominal_phases < t1.nominal_phases
        d2.validate()
        d1.validate()

    def test_trace_covers_stages(self):
        g = erdos_renyi(100, 0.05, seed=13)
        _, trace = staged.decompose(g, k=3, c=6.0, seed=23)
        betas = [p.beta for p in trace.phases]
        # Rates only ever decrease across the run.
        assert all(a >= b - 1e-12 for a, b in zip(betas, betas[1:]))

    def test_deterministic(self):
        g = cycle_graph(40)
        a, _ = staged.decompose(g, k=3, seed=9)
        b, _ = staged.decompose(g, k=3, seed=9)
        assert a.cluster_index_map() == b.cluster_index_map()


class TestTheorem3:
    @pytest.mark.parametrize("lam", [1, 2, 3])
    def test_color_budget(self, lam):
        g = erdos_renyi(80, 0.05, seed=14)
        decomposition, trace = high_radius.decompose(g, lam=lam, seed=24)
        decomposition.validate()
        if trace.exhausted_within_nominal:
            assert decomposition.num_colors <= lam

    def test_diameter_bound(self):
        n, lam, c = 80, 2, 4.0
        g = random_connected(n, 0.03, seed=15)
        decomposition, trace = high_radius.decompose(g, lam=lam, c=c, seed=25)
        cn = c * n
        k = cn ** (1 / lam) * math.log(cn)
        if not trace.truncation_events:
            assert decomposition.max_strong_diameter() <= 2 * k

    def test_lambda_one_single_color(self):
        # With lambda = 1, k is astronomically large: one phase w.h.p.
        g = grid_graph(5, 5)
        decomposition, trace = high_radius.decompose(g, lam=1, seed=26)
        if trace.exhausted_within_nominal:
            assert decomposition.num_colors == 1
            # A single colour class must be the whole graph per component.
            assert decomposition.num_clusters == 1
