"""CSR kernel ≡ reference kernel: randomized equivalence property tests.

The reference implementations below are deliberately naive (adjacency
dicts, deque BFS, per-edge ``in active`` probes) — the shape of the
pre-CSR kernel.  Every traversal primitive must agree with them exactly,
on both the numpy-accelerated and the pure-Python backend, for plain
``set`` actives and for :class:`ActiveSet` masks alike.
"""

from __future__ import annotations

import os
import pathlib
import random
import subprocess
import sys
from collections import deque

import pytest

import repro.graphs._kernel as kernel
from repro.graphs import (
    ActiveSet,
    Graph,
    bfs_distances,
    bfs_distances_bounded,
    connected_components,
    erdos_renyi,
    grid_graph,
    is_connected,
    multi_source_bfs,
    random_tree,
    shortest_path,
    watts_strogatz,
)


# ----------------------------------------------------------------------
# Reference implementations (pre-CSR shape)
# ----------------------------------------------------------------------
def ref_bfs(graph: Graph, sources, active=None, radius=None) -> dict[int, int]:
    distances = {}
    frontier = deque()
    for s in sorted(set(sources)):
        distances[s] = 0
        frontier.append(s)
    while frontier:
        u = frontier.popleft()
        du = distances[u]
        if radius is not None and du >= radius:
            continue
        for w in graph.neighbors(u):
            if w not in distances and (active is None or w in active):
                distances[w] = du + 1
                frontier.append(w)
    return distances


def ref_components(graph: Graph, active=None) -> list[list[int]]:
    seen: set[int] = set()
    components = []
    for start in graph.vertices():
        if start in seen or not (active is None or start in active):
            continue
        component = sorted(ref_bfs(graph, [start], active=active))
        seen.update(component)
        components.append(component)
    components.sort(key=lambda comp: comp[0])
    return components


def random_cases():
    rng = random.Random(20160217)
    graphs = [
        erdos_renyi(60, 0.05, seed=5),
        erdos_renyi(120, 0.02, seed=9),   # sparse, disconnected
        erdos_renyi(40, 0.25, seed=3),    # dense
        grid_graph(9, 11),
        random_tree(80, seed=7),
        watts_strogatz(90, 4, 0.2, seed=11),
        Graph(5),                          # edgeless
        Graph(1),                          # single vertex
    ]
    cases = []
    for graph in graphs:
        n = graph.num_vertices
        actives = [None]
        if n > 1:
            actives.append(set(rng.sample(range(n), max(1, n // 2))))
            actives.append(set(rng.sample(range(n), max(1, (3 * n) // 4))))
        cases.append((graph, actives))
    return cases


@pytest.fixture(params=["auto", "py"], ids=["backend-auto", "backend-py"])
def kernel_backend(request, monkeypatch):
    if request.param == "py":
        monkeypatch.setattr(kernel, "USE_NUMPY", False)
    return request.param


def _active_variants(graph, active):
    """Both accepted spellings of one active subset."""
    if active is None:
        return [None]
    return [active, ActiveSet.from_iterable(graph.num_vertices, active)]


class TestEquivalence:
    def test_bfs_distances(self, kernel_backend):
        for graph, actives in random_cases():
            for active in actives:
                members = range(graph.num_vertices) if active is None else sorted(active)
                sources = list(members)[:3]
                for source in sources:
                    want = ref_bfs(graph, [source], active=active)
                    for spelled in _active_variants(graph, active):
                        assert bfs_distances(graph, source, active=spelled) == want

    def test_bfs_bounded(self, kernel_backend):
        for graph, actives in random_cases():
            for active in actives:
                members = range(graph.num_vertices) if active is None else sorted(active)
                source = next(iter(members), None)
                if source is None:
                    continue
                for radius in (0, 1, 2, 5):
                    want = ref_bfs(graph, [source], active=active, radius=radius)
                    for spelled in _active_variants(graph, active):
                        got = bfs_distances_bounded(graph, source, radius, active=spelled)
                        assert got == want

    def test_multi_source(self, kernel_backend):
        rng = random.Random(7)
        for graph, actives in random_cases():
            for active in actives:
                members = list(range(graph.num_vertices)) if active is None else sorted(active)
                if not members:
                    continue
                sources = rng.sample(members, min(4, len(members)))
                want = ref_bfs(graph, sources, active=active)
                for spelled in _active_variants(graph, active):
                    assert multi_source_bfs(graph, sources, active=spelled) == want

    def test_connected_components(self, kernel_backend):
        for graph, actives in random_cases():
            for active in actives:
                want = ref_components(graph, active=active)
                for spelled in _active_variants(graph, active):
                    assert connected_components(graph, active=spelled) == want
                    assert is_connected(graph, active=spelled) == (len(want) <= 1)

    def test_shortest_path_valid(self, kernel_backend):
        for graph, actives in random_cases():
            for active in actives:
                members = list(range(graph.num_vertices)) if active is None else sorted(active)
                if not members:
                    continue
                source = members[0]
                want = ref_bfs(graph, [source], active=active)
                for target in members[:5]:
                    path = shortest_path(graph, source, target, active=active)
                    if target not in want:
                        assert path is None
                        continue
                    assert path is not None
                    assert path[0] == source and path[-1] == target
                    assert len(path) == want[target] + 1
                    for a, b in zip(path, path[1:]):
                        assert graph.has_edge(a, b)
                        assert active is None or (a in active and b in active)


class TestBackendsAgree:
    """numpy path and pure-Python path must be bit-identical (incl. order)."""

    @pytest.mark.skipif(not kernel.numpy_enabled(), reason="numpy not available")
    def test_identical_dicts_and_order(self, monkeypatch):
        graph = erdos_renyi(150, 0.03, seed=4)
        active = ActiveSet.from_iterable(150, range(0, 150, 2))
        fast = bfs_distances(graph, 0, active=active)
        comps_fast = connected_components(graph, active=active)
        monkeypatch.setattr(kernel, "USE_NUMPY", False)
        slow = bfs_distances(graph, 0, active=active)
        comps_slow = connected_components(graph, active=active)
        assert fast == slow
        assert list(fast.items()) == list(slow.items())  # same emission order
        assert comps_fast == comps_slow


class TestActiveSetNotCorrupted:
    def test_traversal_leaves_active_intact(self, kernel_backend):
        graph = grid_graph(6, 6)
        active = ActiveSet.from_iterable(36, range(0, 36, 3))
        before = list(active)
        bfs_distances(graph, 0, active=active)
        connected_components(graph, active=active)
        assert list(active) == before

    def test_carve_scratch_restored(self, kernel_backend):
        # carve_block shares one scratch mask across broadcasts; a second
        # call with the same active set must see pristine state.
        from repro.core.carving import carve_block

        graph = grid_graph(5, 5)
        active = ActiveSet.full(25)
        radii = {v: 1.5 for v in range(25)}
        first = carve_block(graph, active, radii)
        second = carve_block(graph, active, radii)
        assert first.block == second.block
        assert first.center_of == second.center_of


class TestKernelSwitch:
    """``REPRO_KERNEL`` accepts empty, ``auto`` and ``py`` (any case,
    surrounding whitespace ignored) and rejects anything else at import,
    so a misspelt value cannot silently test the numpy paths."""

    SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

    def _python(self, value: str, code: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(self.SRC), "REPRO_KERNEL": value},
            capture_output=True,
            text=True,
        )

    @pytest.mark.parametrize("value", ["python", "pure", "off"])
    def test_unknown_value_rejected(self, value):
        proc = self._python(value, "import repro.graphs")
        assert proc.returncode != 0
        assert "ParameterError" in proc.stderr
        assert "'auto'" in proc.stderr and "'py'" in proc.stderr
        assert repr(value) in proc.stderr

    def test_accepted_values(self):
        values = ["", "auto", " AUTO ", "py", " Py\t"]
        # One interpreter: re-execute the module under each value.
        proc = self._python("", (
            "import importlib, os\n"
            "import repro.graphs._kernel as kernel\n"
            f"for value in {values!r}:\n"
            "    os.environ['REPRO_KERNEL'] = value\n"
            "    print(importlib.reload(kernel).backend_name())\n"
        ))
        assert proc.returncode == 0, proc.stderr
        accelerated = "python" if kernel._np is None else "numpy"
        assert proc.stdout.split() == [
            "python" if value.strip().lower() == "py" else accelerated
            for value in values
        ]
