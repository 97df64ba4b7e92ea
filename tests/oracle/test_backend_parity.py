"""Backend parity: numpy and pure-Python query paths are bit-identical.

Same contract (and same monkeypatch idiom) as the kernel and engine
equivalence suites: flipping ``repro.graphs._kernel.USE_NUMPY`` switches
the whole stack, and results must not change by a single bit.  CI's
``REPRO_KERNEL=py`` leg covers the env-level switch.
"""

from __future__ import annotations

import pytest

from repro.graphs import _kernel
from repro.graphs import erdos_renyi, gnp_fast, grid_graph, torus_graph
from repro.oracle import build_oracle
from repro.oracle.query import _details_numpy, _details_python
from repro.rng import stream

GRAPHS = [
    ("grid", grid_graph(9, 11)),
    ("torus", torus_graph(9, 9)),
    ("er-disconnected", erdos_renyi(90, 0.02, seed=12)),
    ("gnp", gnp_fast(400, 0.012, seed=6)),
]
IDS = [name for name, _ in GRAPHS]


def _query_batch(graph, count=700):
    rng = stream(99, "parity", graph.num_vertices)
    n = graph.num_vertices
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]
    # Force some trivial and symmetric pairs into the batch.
    pairs[:3] = [(0, 0), (n - 1, n - 1), (0, n - 1)]
    return pairs


class TestQueryParity:
    @pytest.mark.parametrize("name", IDS)
    def test_internal_paths_agree(self, name):
        graph = dict(GRAPHS)[name]
        if graph._numpy_csr() is None:  # pragma: no cover - stdlib-only
            pytest.skip("numpy not available")
        oracle = build_oracle(graph, seed=31)
        pairs = _query_batch(graph)
        sources = [p[0] for p in pairs]
        targets = [p[1] for p in pairs]
        assert _details_python(oracle, sources, targets) == _details_numpy(
            oracle, sources, targets
        )

    @pytest.mark.parametrize("name", IDS)
    def test_kernel_switch_is_bit_identical(self, name, monkeypatch):
        graph = dict(GRAPHS)[name]
        pairs = _query_batch(graph)
        oracle = build_oracle(graph, seed=31)
        with_numpy = (
            oracle.distances(pairs),
            oracle.distance_details(pairs),
            oracle.routes(pairs),
        )
        monkeypatch.setattr(_kernel, "USE_NUMPY", False)
        pure_oracle = build_oracle(graph, seed=31)
        # The build itself must be backend-independent...
        for a, b in zip(oracle.scales, pure_oracle.scales):
            assert a.radius == b.radius
            assert a.centers == b.centers
            assert a.indptr == b.indptr
            assert a.member_cluster == b.member_cluster
            assert a.member_dist == b.member_dist
            assert a.member_parent == b.member_parent
        assert len(oracle.scales) == len(pure_oracle.scales)
        assert oracle.scales == pure_oracle.scales
        assert oracle.skipped_radii == pure_oracle.skipped_radii
        # ...and so must every query surface.
        assert (
            pure_oracle.distances(pairs),
            pure_oracle.distance_details(pairs),
            pure_oracle.routes(pairs),
        ) == with_numpy

    def test_small_batches_use_python_path_consistently(self):
        # Batches under the crossover run the Python path even with
        # numpy enabled; answers must match the vectorised path's.
        graph = torus_graph(8, 8)
        oracle = build_oracle(graph, seed=7)
        pairs = _query_batch(graph, count=900)
        big = oracle.distances(pairs)
        small = [
            oracle.distances([pair])[0] for pair in pairs[:40]
        ]
        assert small == big[:40]
