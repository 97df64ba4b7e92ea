"""Batch vs sync backends of the distributed EN / LS / MPX drivers.

The acceptance contract of the batch round-engine: for fixed seeds, the
``backend="batch"`` path of every distributed driver reproduces the
``backend="sync"`` reference **bit-identically** — decomposition,
per-phase round counts, and the complete :class:`NetworkStats`
(messages sent and delivered, words, peak per-edge-per-round bandwidth).
Covered across forwarding modes (full / top-two / top-one), adaptive and
fixed phase lengths, a non-Theorem-1 schedule, and both primitive
backends.
"""

from __future__ import annotations

import pytest

from repro.baselines.distributed_ls import decompose_distributed as ls_decompose
from repro.baselines.distributed_mpx import partition_distributed
from repro.core.distributed_en import decompose_distributed
from repro.core.params import Theorem2Schedule
from repro.graphs import _kernel
from repro.errors import ParameterError
from repro.graphs import (
    Graph,
    cycle_graph,
    gnp_fast,
    path_graph,
    random_connected,
    torus_graph,
)

GRAPHS = {
    "path": path_graph(12),
    "cycle": cycle_graph(17),
    "torus": torus_graph(5, 6),
    "conn": random_connected(60, 0.04, seed=3),
    "gnp-disconnected": gnp_fast(48, 0.05, seed=7),
    # >= 64 edges AND the highest-numbered vertex isolated: exercises the
    # numpy reduceat paths on a trailing empty CSR row (regression for
    # the segment-start clamping bug).
    "gnp-trailing-isolated": gnp_fast(200, 0.008, seed=6),
    "isolated": Graph(5, [(1, 2), (3, 4)]),
}

assert GRAPHS["gnp-trailing-isolated"].degree(199) == 0
assert GRAPHS["gnp-trailing-isolated"].num_edges >= 64


def _assert_en_equal(sync, batch):
    assert sync.decomposition.cluster_index_map() == batch.decomposition.cluster_index_map()
    assert sync.phases == batch.phases
    assert sync.rounds_per_phase == batch.rounds_per_phase
    assert sync.stats == batch.stats
    assert sync.nominal_phases == batch.nominal_phases
    assert sync.exhausted_within_nominal == batch.exhausted_within_nominal
    assert sync.truncation_events == batch.truncation_events


class TestDistributedEN:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("mode", ["toptwo", "full"])
    def test_bit_identical(self, name, mode):
        graph = GRAPHS[name]
        for seed in (1, 20160217):
            for adaptive in (True, False):
                sync = decompose_distributed(
                    graph, k=3, seed=seed, mode=mode, adaptive_phase_length=adaptive
                )
                batch = decompose_distributed(
                    graph,
                    k=3,
                    seed=seed,
                    mode=mode,
                    adaptive_phase_length=adaptive,
                    backend="batch",
                )
                _assert_en_equal(sync, batch)

    def test_theorem2_schedule(self):
        graph = GRAPHS["conn"]
        schedule = Theorem2Schedule(n=graph.num_vertices, k=3, c=6.0)
        sync = decompose_distributed(graph, schedule=schedule, seed=5)
        batch = decompose_distributed(graph, schedule=schedule, seed=5, backend="batch")
        _assert_en_equal(sync, batch)

    def test_matches_centralized_reference_via_batch(self):
        """Transitivity check: batch == sync == centralized."""
        from repro.core import elkin_neiman

        graph = GRAPHS["conn"]
        batch = decompose_distributed(graph, k=4, seed=11, backend="batch")
        central, _ = elkin_neiman.decompose(graph, k=4, seed=11)
        assert central.cluster_index_map() == batch.decomposition.cluster_index_map()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ParameterError, match="backend"):
            decompose_distributed(GRAPHS["path"], k=3, backend="gpu")

    def test_unknown_mode_rejected_before_dispatch(self):
        with pytest.raises(ParameterError, match="mode"):
            decompose_distributed(GRAPHS["path"], k=3, mode="bogus", backend="batch")

    @pytest.mark.skipif(not _kernel.numpy_enabled(), reason="numpy backend inactive")
    def test_pure_python_primitives_identical(self, monkeypatch):
        graph = GRAPHS["conn"]
        with_numpy = decompose_distributed(graph, k=3, seed=9, backend="batch")
        monkeypatch.setattr(_kernel, "USE_NUMPY", False)
        pure = decompose_distributed(graph, k=3, seed=9, backend="batch")
        _assert_en_equal(with_numpy, pure)


class TestDistributedLS:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_bit_identical(self, name):
        graph = GRAPHS[name]
        for seed in (1, 20160217):
            for adaptive in (True, False):
                sync = ls_decompose(
                    graph, k=3, seed=seed, adaptive_phase_length=adaptive
                )
                batch = ls_decompose(
                    graph,
                    k=3,
                    seed=seed,
                    adaptive_phase_length=adaptive,
                    backend="batch",
                )
                assert (
                    sync.decomposition.cluster_index_map()
                    == batch.decomposition.cluster_index_map()
                )
                assert sync.phases == batch.phases
                assert sync.rounds_per_phase == batch.rounds_per_phase
                assert sync.stats == batch.stats

    def test_cluster_colors_match(self):
        graph = GRAPHS["torus"]
        sync = ls_decompose(graph, k=2, seed=4)
        batch = ls_decompose(graph, k=2, seed=4, backend="batch")
        assert [c.color for c in sync.decomposition.clusters] == [
            c.color for c in batch.decomposition.clusters
        ]
        assert [c.center for c in sync.decomposition.clusters] == [
            c.center for c in batch.decomposition.clusters
        ]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ParameterError, match="backend"):
            ls_decompose(GRAPHS["path"], k=3, backend="gpu")


class TestDistributedMPX:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("mode", ["topone", "full"])
    def test_bit_identical(self, name, mode):
        graph = GRAPHS[name]
        for seed in (3, 20160217):
            for beta in (0.4, 0.9):
                sync = partition_distributed(graph, beta=beta, seed=seed, mode=mode)
                batch = partition_distributed(
                    graph, beta=beta, seed=seed, mode=mode, backend="batch"
                )
                assert sync.center_of == batch.center_of
                assert sync.stats == batch.stats
                assert sync.rounds == batch.rounds
                assert sync.cut_edges == batch.cut_edges
                assert sync.cut_fraction == batch.cut_fraction
                assert (
                    sync.decomposition.cluster_index_map()
                    == batch.decomposition.cluster_index_map()
                )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ParameterError, match="backend"):
            partition_distributed(GRAPHS["path"], beta=0.5, backend="gpu")

    def test_unknown_mode_rejected_before_dispatch(self):
        with pytest.raises(ParameterError, match="mode"):
            partition_distributed(GRAPHS["path"], beta=0.5, mode="bogus", backend="batch")
