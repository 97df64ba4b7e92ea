"""Unit tests for the engine's neighbour-reduction primitives.

Both primitives are checked against a brute-force reference and — when
numpy is available — pinned bit-identical between the vectorised and
pure-Python backends (monkeypatching ``repro.graphs._kernel.USE_NUMPY``
— the library's single backend switch — flips the dispatch in-process;
CI's ``REPRO_KERNEL=py`` leg covers the env-level switch).
"""

from __future__ import annotations

import random
from array import array

import pytest

from repro.engine import _backend
from repro.graphs import _kernel
from repro.engine.primitives import gather_sum, live_degrees
from repro.graphs import Graph, gnp_fast, path_graph, star_graph, torus_graph

def _trailing_isolated_graph() -> Graph:
    """>= 64 edges with the highest-numbered vertices isolated.

    Regression shape for the numpy ``reduceat`` paths: a trailing empty
    CSR row must not steal the final element of the preceding row's
    segment (clamping segment starts does exactly that)."""
    rng = random.Random(1)
    edges = set()
    while len(edges) < 115:
        u, v = rng.randrange(38), rng.randrange(38)  # 38, 39 stay isolated
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(40, sorted(edges))


GRAPHS = {
    "path": path_graph(9),
    "star": star_graph(7),
    "torus": torus_graph(5, 6),
    "gnp": gnp_fast(80, 0.06, seed=3),
    "gnp-wide": gnp_fast(220, 0.04, seed=5),
    "isolated": Graph(6, [(0, 1), (3, 4)]),
    "trailing-isolated": _trailing_isolated_graph(),
    "empty": Graph(4),
}


def _values(n, seed, floats=False):
    rng = random.Random(seed)
    if floats:
        return [rng.random() * 20 - 5 for _ in range(n)]
    return array("l", [rng.randrange(1000) for _ in range(n)])


def _mask(n, seed):
    rng = random.Random(seed)
    return bytearray(1 if rng.random() < 0.6 else 0 for _ in range(n))


def _brute(graph, values, mask, op, default):
    out = []
    for v in graph.vertices():
        vals = [values[u] for u in graph.neighbors(v) if mask is None or mask[u]]
        out.append(op(vals) if vals else default)
    return out


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("masked", [False, True])
class TestGathers:
    def test_gather_sum(self, name, masked):
        graph = GRAPHS[name]
        n = graph.num_vertices
        values = _values(n, seed=3)
        mask = _mask(n, seed=4) if masked else None
        assert gather_sum(graph, values, mask) == _brute(graph, values, mask, sum, 0)

    def test_gather_sum_floats(self, name, masked):
        # Float sums accumulate sequentially in CSR order on every backend,
        # so they match the brute-force left fold exactly, and stay floats
        # even on rows with no contributing neighbour.
        graph = GRAPHS[name]
        n = graph.num_vertices
        values = _values(n, seed=17, floats=True)
        mask = _mask(n, seed=18) if masked else None
        sums = gather_sum(graph, values, mask)
        assert sums == _brute(graph, values, mask, sum, 0.0)
        assert all(isinstance(total, float) for total in sums)


class TestTrailingIsolatedRows:
    """Pin the reduceat padding fix on the exact failure shape: the last
    unmasked/contributing entry living in the final CSR slot."""

    def test_last_slot_only_unmasked_neighbour(self):
        graph = GRAPHS["trailing-isolated"]
        n = graph.num_vertices
        values = _values(n, seed=15)
        last_row_vertex = max(v for v in range(n) if graph.degree(v))
        mask = bytearray(n)
        mask[graph.neighbors(last_row_vertex)[-1]] = 1
        assert gather_sum(graph, values, mask) == _brute(graph, values, mask, sum, 0)


class TestNarrowBuffers:
    """Narrow-dtype inputs must be widened before they are summed."""

    def test_gather_sum_on_bytearray_values_does_not_wrap(self):
        graph = path_graph(70)  # wide enough for the numpy path
        full = bytearray(b"\xff") * 70  # 255 + 255 would wrap to 254 in uint8
        assert gather_sum(graph, full) == [255 * graph.degree(v) for v in graph.vertices()]

    def test_gather_sum_on_signed_bytes_at_dtype_boundary(self):
        graph = path_graph(70)
        values = array("b", [-128] * 70)  # int8 min: -256 would wrap to 0
        values[69] = 127
        assert gather_sum(graph, values) == _brute(graph, values, None, sum, 0)

    def test_masked_gather_sum_on_bytearray_values(self):
        graph = GRAPHS["trailing-isolated"]
        n = graph.num_vertices
        flags = bytearray(b"\xff") * n
        mask = _mask(n, seed=16)
        assert gather_sum(graph, flags, mask) == _brute(graph, list(flags), mask, sum, 0)


class TestGatherSumFloatDetection:
    def test_mixed_list_starting_with_int_stays_exact(self):
        # Regression: float detection must scan the whole sequence, not
        # just the first element, or the numpy path truncates to int64.
        graph = GRAPHS["gnp-wide"]
        n = graph.num_vertices
        values = [0] + [0.5] * (n - 1)
        expected = _brute(graph, values, None, sum, 0)
        assert gather_sum(graph, values) == expected

    def test_float32_ndarray_not_truncated(self):
        # Regression: np.float32 is not a `float` subclass — the int64
        # fast path must only run on provably integer inputs.
        np = pytest.importorskip("numpy")
        graph = GRAPHS["gnp-wide"]
        n = graph.num_vertices
        values = np.full(n, 0.5, dtype=np.float32)
        expected = _brute(graph, list(values), None, sum, 0)
        assert gather_sum(graph, values) == expected


class TestLiveDegrees:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_full_mask_is_degree(self, name):
        graph = GRAPHS[name]
        live = bytearray(b"\x01") * graph.num_vertices
        assert list(live_degrees(graph, live)) == [
            graph.degree(v) for v in graph.vertices()
        ]

    def test_partial_mask(self):
        graph = GRAPHS["torus"]
        live = _mask(graph.num_vertices, seed=10)
        expected = [
            sum(1 for u in graph.neighbors(v) if live[u]) for v in graph.vertices()
        ]
        assert list(live_degrees(graph, live)) == expected

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_partial_mask_on_every_shape(self, name):
        graph = GRAPHS[name]
        live = _mask(graph.num_vertices, seed=19)
        degrees = live_degrees(graph, live)
        assert degrees.typecode == "l"
        assert list(degrees) == [
            sum(1 for u in graph.neighbors(v) if live[u]) for v in graph.vertices()
        ]


@pytest.mark.skipif(not _backend.numpy_enabled(), reason="numpy backend inactive")
class TestBackendParity:
    """Vectorised and pure-Python paths must return bit-identical results."""

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_all_primitives_agree(self, name, monkeypatch):
        graph = GRAPHS[name]
        n = graph.num_vertices
        values = _values(n, seed=11)
        fvalues = _values(n, seed=12, floats=True)
        mask = _mask(n, seed=13)

        def snapshot():
            return (
                gather_sum(graph, values, mask),
                gather_sum(graph, fvalues, None),
                list(live_degrees(graph, mask)),
            )

        with_numpy = snapshot()
        monkeypatch.setattr(_kernel, "USE_NUMPY", False)
        pure_python = snapshot()
        assert with_numpy == pure_python
