"""``LiveTopology``: the live mask, live list and live degrees of ``G_t``.

Every multi-phase batch run carves blocks out of one ``LiveTopology``,
so its degrees are each live vertex's broadcast fan-out for the phase.
They are checked against a brute-force count on a spread of graph
shapes (isolated vertices, a trailing run of empty CSR rows, no edges
at all), at construction and after a sequence of ``remove()`` calls.
Each graph is built after the kernel switch is set, so both the numpy
and the pure-Python graph builders are covered.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.broadcast import LiveTopology
from repro.graphs import (
    Graph,
    _kernel,
    erdos_renyi,
    gnp_fast,
    path_graph,
    star_graph,
    torus_graph,
)


def _trailing_isolated_graph() -> Graph:
    """>= 64 edges with the highest-numbered vertices isolated."""
    rng = random.Random(1)
    edges = set()
    while len(edges) < 115:
        u, v = rng.randrange(38), rng.randrange(38)  # 38, 39 stay isolated
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(40, sorted(edges))


GRAPHS = {
    "path": lambda: path_graph(9),
    "star": lambda: star_graph(7),
    "torus": lambda: torus_graph(5, 6),
    "er": lambda: erdos_renyi(60, 0.08, seed=4),
    "gnp": lambda: gnp_fast(80, 0.06, seed=3),
    "gnp-wide": lambda: gnp_fast(220, 0.04, seed=5),
    "isolated": lambda: Graph(6, [(0, 1), (3, 4)]),
    "isolated-tail": lambda: Graph(7, [(0, 1), (1, 2), (2, 3), (1, 3)]),
    "trailing-isolated": _trailing_isolated_graph,
    "empty": lambda: Graph(4),
}

KERNELS = [
    pytest.param(False, id="py"),
    pytest.param(
        True,
        id="numpy",
        marks=pytest.mark.skipif(_kernel._np is None, reason="numpy not installed"),
    ),
]


@pytest.fixture(params=KERNELS)
def kernel(request, monkeypatch):
    monkeypatch.setattr(_kernel, "USE_NUMPY", request.param)
    return request.param


def _live_degrees(graph, alive):
    return [sum(1 for w in graph.neighbors(v) if w in alive) for v in sorted(alive)]


def _check(topology, graph, alive):
    survivors = sorted(alive)
    assert topology.live_list == survivors
    assert [v for v in graph.vertices() if topology.live[v]] == survivors
    assert [topology.live_deg[v] for v in survivors] == _live_degrees(graph, alive)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_degrees_at_construction(kernel, name):
    graph = GRAPHS[name]()
    topology = LiveTopology(graph)
    assert topology.live_deg.typecode == "l"
    assert list(topology.live_deg) == [graph.degree(v) for v in graph.vertices()]
    _check(topology, graph, set(graph.vertices()))


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_degrees_follow_successive_removals(kernel, name):
    """Each ``remove()`` lowers only the degrees of vertices still live,
    as the phases of a decomposition carve block after block."""
    graph = GRAPHS[name]()
    topology = LiveTopology(graph)
    alive = set(graph.vertices())
    rng = random.Random(19)
    for _phase in range(3):
        carved = {v for v in sorted(alive) if rng.random() < 0.4}
        topology.remove(carved)
        alive -= carved
        _check(topology, graph, alive)
    topology.remove(set())
    _check(topology, graph, alive)


def test_survivor_in_the_last_csr_slot(kernel):
    """Only the last non-empty row's vertex and the neighbour in the
    final CSR slot stay live: each keeps exactly the other."""
    graph = _trailing_isolated_graph()
    last_row_vertex = max(v for v in graph.vertices() if graph.degree(v))
    last_slot = graph.neighbors(last_row_vertex)[-1]
    topology = LiveTopology(graph)
    topology.remove(v for v in graph.vertices() if v not in (last_row_vertex, last_slot))
    _check(topology, graph, {last_row_vertex, last_slot})
    assert topology.live_deg[last_row_vertex] == topology.live_deg[last_slot] == 1
