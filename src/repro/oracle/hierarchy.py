"""The core pyramid: geometrically coarser partitions via the paper's carving.

Each oracle scale needs a partition of ``V`` into connected *cores*
whose granularity matches the scale's cover radius ``W``.  The pyramid
is built entirely out of the paper's own machinery:

* **level 0** is a Theorem 1 decomposition of ``G`` itself
  (:func:`repro.core.elkin_neiman.decompose`) — connected clusters,
  strong diameter ``≤ 2k−2``, one center per cluster (Lemma 4);
* **level i+1** contracts the level-``i`` cores into supernodes (the
  paper's supergraph ``G(P)``, :func:`repro.graphs.subgraph.quotient_graph`)
  and decomposes *that* graph with the same algorithm; each quotient
  cluster merges its member cores into one coarser core.  Quotient
  clusters are connected and every quotient edge is witnessed by a
  ``G``-edge, so coarser cores stay connected in ``G``;
* the **component level** (cores = connected components) terminates the
  pyramid: once the quotient has no edges the cores cannot coarsen
  further, and at that point they *are* the components.

Why not decompose the power graph ``G^{2W+1}`` at every scale, as
:func:`repro.applications.covers.build_cover` does?  Materialising
``G^{2W+1}`` costs ``Θ(n · |B(v, 2W+1)|)`` edges — already ``≳ 10⁷`` at
``n = 10⁵`` for ``W = 1`` and essentially ``n²`` for larger ``W``.  The
quotient pyramid keeps every level ``O(n + m)`` while still using the
paper's decomposition as the only clustering primitive; the covering
property the oracle needs (every ``W``-ball inside some cover cluster)
holds for *any* partition once the ``W``-fringe is grown (see
:mod:`repro.oracle.build`), and the overlap is measured and budgeted
rather than bounded by χ.  ``docs/oracle.md`` discusses the trade-off.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

from ..core import elkin_neiman
from ..graphs.graph import Graph
from ..graphs.subgraph import quotient_graph
from ..graphs.traversal import connected_components
from ..rng import derive_seed

__all__ = ["CoreLevel", "base_level", "coarsen_level", "component_level"]


@dataclass
class CoreLevel:
    """A partition of ``V`` into connected cores, with one center each.

    ``core_of[v]`` is the core index of vertex ``v``; ``centers[j]`` is a
    member vertex of core ``j`` acting as its BFS root downstream.
    ``is_components`` marks the terminal level (cores = connected
    components of ``G``).
    """

    core_of: array
    centers: list[int]
    is_components: bool

    @property
    def num_cores(self) -> int:
        """Number of cores in the partition."""
        return len(self.centers)


def _level_from_decomposition(graph: Graph, decomposition) -> CoreLevel:
    """Flatten a :class:`NetworkDecomposition` into a :class:`CoreLevel`."""
    core_of = array("l", bytes(array("l").itemsize * graph.num_vertices))
    centers: list[int] = []
    for cluster in decomposition.clusters:
        for v in cluster.vertices:
            core_of[v] = cluster.index
        center = cluster.center
        if center is None or center not in cluster.vertices:
            center = min(cluster.vertices)
        centers.append(center)
    return CoreLevel(core_of=core_of, centers=centers, is_components=False)


def _default_k(n: int) -> float:
    return max(2, math.ceil(math.log(max(n, 2))))


def base_level(graph: Graph, k: float, c: float, seed: int) -> CoreLevel:
    """Level 0: the paper's Theorem 1 decomposition of ``G`` itself."""
    if graph.num_vertices == 0:
        return CoreLevel(core_of=array("l"), centers=[], is_components=True)
    decomposition, _ = elkin_neiman.decompose(
        graph, k=k, c=c, seed=derive_seed(seed, "oracle", "level", 0)
    )
    level = _level_from_decomposition(graph, decomposition)
    return _mark_if_components(graph, level)


def coarsen_level(
    graph: Graph, level: CoreLevel, c: float, seed: int, depth: int
) -> CoreLevel:
    """Level ``depth``: decompose the supergraph of ``level`` and merge cores."""
    quotient = quotient_graph(graph, level.core_of, level.num_cores)
    k_q = _default_k(quotient.num_vertices)
    decomposition, _ = elkin_neiman.decompose(
        quotient, k=k_q, c=c, seed=derive_seed(seed, "oracle", "level", depth)
    )
    merged_of = decomposition.cluster_index_map()
    merged = [merged_of[core] for core in range(level.num_cores)]
    core_of = array("l", map(merged.__getitem__, level.core_of))
    centers: list[int] = []
    for cluster in decomposition.clusters:
        root = cluster.center
        if root is None or root not in cluster.vertices:
            root = min(cluster.vertices)
        # The quotient cluster's center is a supernode; its G-center is
        # that supernode's own center vertex from the finer level.
        centers.append(level.centers[root])
    coarse = CoreLevel(core_of=core_of, centers=centers, is_components=False)
    return _mark_if_components(graph, coarse)


def component_level(graph: Graph) -> CoreLevel:
    """The terminal level: one core per connected component."""
    core_of = array("l", bytes(array("l").itemsize * graph.num_vertices))
    centers: list[int] = []
    for index, component in enumerate(connected_components(graph)):
        for v in component:
            core_of[v] = index
        centers.append(component[0])
    return CoreLevel(core_of=core_of, centers=centers, is_components=True)


def _mark_if_components(graph: Graph, level: CoreLevel) -> CoreLevel:
    """Set ``is_components`` when no edge crosses two cores."""
    indptr, indices = graph.csr()
    core_of = level.core_of
    for u in range(graph.num_vertices):
        label = core_of[u]
        for position in range(indptr[u], indptr[u + 1]):
            if core_of[indices[position]] != label:
                return level
    level.is_components = True
    return level
