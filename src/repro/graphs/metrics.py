"""Exact metric computations: eccentricity, diameter, radius.

Paper context: §1.1 — the *strong* diameter of a cluster is the diameter
of its induced subgraph, the *weak* diameter is measured in the host
graph.  These are the verification tools used to check every diameter
guarantee (Theorems 1–3, the ``2k−2`` bound, experiment E10's
disconnected-cluster counts).  All computations are exact (one BFS per
vertex); eccentricities run on the level kernel directly, so no distance
dicts are materialised on the ``n``-BFS diameter sweeps.
"""

from __future__ import annotations

import math
from typing import Collection, Container, Iterable

from ..errors import GraphError
from .graph import Graph
from .subgraph import induced_subgraph
from .traversal import bfs_distances, bfs_levels

__all__ = [
    "eccentricity",
    "diameter",
    "radius",
    "strong_diameter",
    "weak_diameter",
    "average_distance",
    "all_pairs_distances",
]



def _universe(graph: Graph, active: Container[int] | None) -> list[int]:
    """Sorted list of active vertices (all vertices when ``active`` is None)."""
    if active is None:
        return list(graph.vertices())
    return [v for v in graph.vertices() if v in active]


def eccentricity(
    graph: Graph,
    vertex: int,
    active: Container[int] | None = None,
    universe_size: int | None = None,
) -> float:
    """Eccentricity of ``vertex`` in ``G[active]``.

    Returns ``math.inf`` when some active vertex is unreachable (the
    induced subgraph is disconnected).  ``universe_size`` is the number of
    active vertices; it is required when ``active`` has no ``__len__``.
    """
    if universe_size is None:
        if active is None:
            universe_size = graph.num_vertices
        elif isinstance(active, Collection):
            universe_size = len(active)
        else:
            raise GraphError("universe_size required for sized-less active sets")
    levels = bfs_levels(graph, [vertex], active=active)
    if sum(len(level) for level in levels) < universe_size:
        return math.inf
    return float(len(levels) - 1)


def diameter(graph: Graph, active: Container[int] | None = None) -> float:
    """Exact diameter of ``G[active]``; ``math.inf`` if disconnected.

    The diameter of an empty or single-vertex graph is 0.
    """
    universe = _universe(graph, active)
    if len(universe) <= 1:
        return 0.0
    best = 0.0
    size = len(universe)
    for v in universe:
        ecc = eccentricity(graph, v, active=active, universe_size=size)
        if math.isinf(ecc):
            return math.inf
        best = max(best, ecc)
    return best


def radius(graph: Graph, active: Container[int] | None = None) -> float:
    """Exact radius (minimum eccentricity); ``math.inf`` if disconnected."""
    universe = _universe(graph, active)
    if len(universe) <= 1:
        return 0.0
    size = len(universe)
    eccs = [eccentricity(graph, v, active=active, universe_size=size) for v in universe]
    return min(eccs)


def strong_diameter(graph: Graph, cluster: Collection[int]) -> float:
    """Strong diameter of ``cluster``: diameter of the induced subgraph.

    ``math.inf`` when the induced subgraph is disconnected — the situation
    the paper's algorithm provably avoids and the Linial–Saks baseline does
    not (experiment E10).  The BFS sweeps run on the relabelled
    :func:`~repro.graphs.subgraph.induced_subgraph`, so their cost scales
    with the cluster, not with ``graph``.
    """
    return diameter(induced_subgraph(graph, cluster)[0])


def weak_diameter(graph: Graph, cluster: Collection[int]) -> float:
    """Weak diameter of ``cluster``: max pairwise distance in the host graph.

    ``math.inf`` when two members lie in different components of ``G``.
    """
    members = sorted(set(cluster))
    if len(members) <= 1:
        return 0.0
    best = 0.0
    for v in members:
        distances = bfs_distances(graph, v)
        for u in members:
            if u == v:
                continue
            if u not in distances:
                return math.inf
            best = max(best, float(distances[u]))
    return best


def average_distance(graph: Graph, active: Container[int] | None = None) -> float:
    """Mean distance over connected ordered pairs of distinct vertices.

    Returns 0 when there are no such pairs.
    """
    universe = _universe(graph, active)
    total = 0
    pairs = 0
    for v in universe:
        distances = bfs_distances(graph, v, active=active)
        for u, d in distances.items():
            if u != v:
                total += d
                pairs += 1
    return total / pairs if pairs else 0.0


def all_pairs_distances(
    graph: Graph, active: Container[int] | None = None
) -> dict[int, dict[int, int]]:
    """All-pairs hop distances of ``G[active]`` (missing = unreachable)."""
    universe = _universe(graph, active)
    return {v: bfs_distances(graph, v, active=active) for v in universe}
