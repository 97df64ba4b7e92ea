"""Sparse spanners from strong-diameter decompositions (paper §1.1).

The paper's introduction lists spanner construction (Dubhashi et al.,
JCSS 2005) among the applications of network decomposition.  The classic
cluster-spanner construction needs exactly the property this paper
provides — **strong** diameter:

* inside every cluster, keep a BFS tree of the *induced* cluster subgraph
  rooted at the cluster center (possible only because clusters are
  connected!);
* between every pair of adjacent clusters, keep one (lexicographically
  smallest) connecting edge.

Size: at most ``n − (#clusters)`` tree edges plus one edge per supergraph
edge.  Stretch: an intra-cluster edge is replaced by a tree path of
length ``≤ 2D``; an inter-cluster edge ``(u, v)`` routes through its
clusters' connecting edge for length ``≤ 2D + 1 + 2D`` — so the spanner
has stretch ``≤ 4D + 1`` where ``D`` is the decomposition's strong
diameter.  With the paper's ``(O(log n), O(log n))`` decomposition this
is an ``O(log n)``-stretch spanner with ``n·(1 + o(1)) + |E(G(P))|``
edges.

A weak-diameter decomposition cannot run this construction at all — the
"tree" of a disconnected cluster does not exist — which is precisely the
kind of downstream win the paper's abstract promises.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from ..core.decomposition import NetworkDecomposition
from ..errors import DecompositionError
from ..graphs.graph import Edge, Graph
from ..graphs.traversal import bfs_distances

__all__ = ["SpannerResult", "build_spanner", "max_edge_stretch"]


@dataclass
class SpannerResult:
    """A spanner and its measured guarantees.

    ``stretch_bound`` is the a-priori ``4D + 1``; ``max_stretch`` is the
    exact measured worst edge stretch (``≤`` the bound).
    """

    spanner: Graph
    tree_edges: int
    connector_edges: int
    stretch_bound: float
    max_stretch: float

    @property
    def num_edges(self) -> int:
        """Total spanner size in edges."""
        return self.spanner.num_edges


def _cluster_tree_edges(graph: Graph, members: frozenset[int], root: int) -> list[Edge]:
    """BFS-tree edges of the induced cluster subgraph, rooted at ``root``."""
    parent: dict[int, int] = {root: -1}
    frontier = deque([root])
    edges: list[Edge] = []
    while frontier:
        u = frontier.popleft()
        for w in graph.neighbors(u):
            if w in members and w not in parent:
                parent[w] = u
                edges.append((u, w) if u < w else (w, u))
                frontier.append(w)
    if len(parent) != len(members):
        raise DecompositionError(
            "cluster is disconnected: spanner construction requires strong "
            "diameter (use the paper's algorithm, not a weak baseline)"
        )
    return edges


def build_spanner(graph: Graph, decomposition: NetworkDecomposition) -> SpannerResult:
    """Build the cluster spanner of ``graph`` over ``decomposition``.

    Raises :class:`DecompositionError` if any cluster is disconnected
    (weak-diameter decompositions cannot support intra-cluster trees).
    """
    spanner_edges: set[Edge] = set()
    tree_count = 0
    for cluster in decomposition.clusters:
        tree = _cluster_tree_edges(graph, cluster.vertices, cluster.leader)
        tree_count += len(tree)
        spanner_edges.update(tree)
    # One connecting edge per adjacent cluster pair (lexicographically
    # smallest, hence deterministic).
    cluster_of = decomposition.cluster_index_map()
    connector: dict[tuple[int, int], Edge] = {}
    for u, v in graph.edges():
        cu, cv = cluster_of[u], cluster_of[v]
        if cu == cv:
            continue
        key = (cu, cv) if cu < cv else (cv, cu)
        edge = (u, v)
        if key not in connector or edge < connector[key]:
            connector[key] = edge
    spanner_edges.update(connector.values())
    spanner = Graph(graph.num_vertices, sorted(spanner_edges))
    diameter = decomposition.max_strong_diameter()
    if math.isinf(diameter):
        raise DecompositionError("decomposition has infinite strong diameter")
    bound = 4.0 * diameter + 1.0
    return SpannerResult(
        spanner=spanner,
        tree_edges=tree_count,
        connector_edges=len(connector),
        stretch_bound=bound,
        max_stretch=max_edge_stretch(graph, spanner),
    )


def max_edge_stretch(graph: Graph, spanner: Graph) -> float:
    """Exact worst stretch of a host edge inside ``spanner``.

    The stretch of a spanner equals its worst stretch over *edges* (any
    shortest path is a concatenation of edges).  Returns ``inf`` if some
    edge's endpoints are disconnected in the spanner, 1.0 for edgeless
    hosts.
    """
    if graph.num_vertices != spanner.num_vertices:
        raise DecompositionError("spanner must be on the same vertex set")
    worst = 1.0
    for u in graph.vertices():
        if graph.degree(u) == 0:
            continue
        distances = bfs_distances(spanner, u)
        for v in graph.neighbors(u):
            if v < u:
                continue
            if v not in distances:
                return math.inf
            worst = max(worst, float(distances[v]))
    return worst
