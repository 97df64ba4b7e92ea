"""Network decomposition result types and validation.

A *(D, χ) network decomposition* (paper §1.1) is a partition of ``V`` into
clusters such that (a) every cluster has diameter at most ``D`` — *strong*
if measured inside the induced cluster subgraph, *weak* if measured in the
host graph — and (b) the supergraph ``G(P)`` obtained by contracting
clusters is properly χ-colourable.

:class:`NetworkDecomposition` stores the partition together with the colour
witness (the algorithms colour clusters by the phase that carved them) and
offers exact checks of every part of the definition:
:meth:`~NetworkDecomposition.validate` for partition-ness and colouring,
:meth:`~NetworkDecomposition.max_strong_diameter` /
:meth:`~NetworkDecomposition.max_weak_diameter` for the diameter bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..errors import DecompositionError
from ..graphs.activeset import ActiveSet
from ..graphs.graph import Graph
from ..graphs.metrics import strong_diameter, weak_diameter
from ..graphs.subgraph import quotient_graph
from ..graphs.traversal import connected_components

__all__ = ["Cluster", "NetworkDecomposition"]


@dataclass(frozen=True)
class Cluster:
    """One cluster of a network decomposition.

    Attributes
    ----------
    index:
        Position of this cluster in the decomposition's cluster list.
    color:
        Colour class (= carving phase, 0-based, for the algorithms in this
        library).  Clusters of equal colour are pairwise non-adjacent.
    vertices:
        The member vertices.
    center:
        The center vertex whose broadcast won every member (``None`` for
        algorithms without a center notion).
    """

    index: int
    color: int
    vertices: frozenset[int]
    center: int | None = None

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, vertex: int) -> bool:
        return vertex in self.vertices

    @property
    def leader(self) -> int:
        """The cluster's root: its center if that is a member, else its
        smallest member (a Linial–Saks center can lie outside its class)."""
        if self.center is not None and self.center in self.vertices:
            return self.center
        return min(self.vertices)


class NetworkDecomposition:
    """A partition of a graph's vertices into coloured clusters.

    Parameters
    ----------
    graph:
        The decomposed graph.
    clusters:
        The clusters; their vertex sets must partition ``graph``'s vertex
        set (checked by :meth:`validate`, not at construction, so that
        tests can build deliberately broken instances).
    """

    def __init__(self, graph: Graph, clusters: Sequence[Cluster]) -> None:
        self.graph = graph
        self.clusters = list(clusters)
        self._vertex_to_cluster: dict[int, int] = {}
        for cluster in self.clusters:
            for v in cluster.vertices:
                self._vertex_to_cluster[v] = cluster.index

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_blocks(
        graph: Graph,
        blocks: Sequence[Iterable[int]],
        centers: Mapping[int, int] | None = None,
    ) -> "NetworkDecomposition":
        """Build a decomposition from per-phase *blocks* (paper §2).

        Each block ``W_t`` is split into the connected components of the
        induced subgraph ``G(W_t)``; every component becomes a cluster with
        colour ``t``.  ``centers`` optionally maps a vertex to the center
        it chose; a cluster's center is the one its members chose (all
        members agree for the paper's algorithm — Lemma 4).
        """
        clusters: list[Cluster] = []
        for color, block in enumerate(blocks):
            members = sorted(set(block))
            block_set = ActiveSet.from_iterable(graph.num_vertices, members)
            for component in connected_components(graph, active=block_set, universe=members):
                center: int | None = None
                if centers is not None:
                    chosen = {centers[v] for v in component if v in centers}
                    if len(chosen) == 1:
                        center = chosen.pop()
                clusters.append(
                    Cluster(
                        index=len(clusters),
                        color=color,
                        vertices=frozenset(component),
                        center=center,
                    )
                )
        return NetworkDecomposition(graph, clusters)

    @staticmethod
    def from_centers(
        graph: Graph, center_of: Mapping[int, int], color_of: Mapping[int, int]
    ) -> "NetworkDecomposition":
        """One cluster per ``(color_of[v], center_of[v])`` pair, indexed in
        ``(colour, center)`` order.  Unlike :meth:`from_blocks`, nothing is
        split into components: a class may be disconnected (Linial–Saks)."""
        classes: dict[tuple[int, int], list[int]] = {}
        for v, center in center_of.items():
            classes.setdefault((color_of[v], center), []).append(v)
        clusters = [
            Cluster(index=index, color=color, vertices=frozenset(members), center=center)
            for index, ((color, center), members) in enumerate(sorted(classes.items()))
        ]
        return NetworkDecomposition(graph, clusters)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_clusters(self) -> int:
        """Number of clusters."""
        return len(self.clusters)

    @property
    def num_colors(self) -> int:
        """Number of distinct colours used (the χ witness)."""
        return len({cluster.color for cluster in self.clusters})

    @property
    def colors(self) -> list[int]:
        """Sorted list of colours in use."""
        return sorted({cluster.color for cluster in self.clusters})

    def cluster_of(self, vertex: int) -> Cluster:
        """The cluster containing ``vertex``."""
        try:
            return self.clusters[self._vertex_to_cluster[vertex]]
        except KeyError:
            raise DecompositionError(f"vertex {vertex} belongs to no cluster") from None

    def color_of(self, vertex: int) -> int:
        """The colour of the cluster containing ``vertex``."""
        return self.cluster_of(vertex).color

    def cluster_index_map(self) -> dict[int, int]:
        """Mapping ``vertex -> cluster index`` (a copy)."""
        return dict(self._vertex_to_cluster)

    def cluster_sizes(self) -> list[int]:
        """Sizes of all clusters, in cluster-index order."""
        return [len(cluster) for cluster in self.clusters]

    def cut_edges(self) -> int:
        """Number of edges whose endpoints lie in different clusters."""
        label = self._vertex_to_cluster
        return sum(1 for u, v in self.graph.edges() if label[u] != label[v])

    # ------------------------------------------------------------------
    # The supergraph G(P)
    # ------------------------------------------------------------------
    def supergraph(self) -> Graph:
        """The contracted supergraph ``G(P)`` (paper §1)."""
        return quotient_graph(self.graph, self._vertex_to_cluster, self.num_clusters)

    # ------------------------------------------------------------------
    # Diameter measurements
    # ------------------------------------------------------------------
    def strong_diameters(self) -> list[float]:
        """Strong diameter of every cluster (``inf`` when disconnected)."""
        return [strong_diameter(self.graph, cluster.vertices) for cluster in self.clusters]

    def weak_diameters(self) -> list[float]:
        """Weak diameter of every cluster."""
        return [weak_diameter(self.graph, cluster.vertices) for cluster in self.clusters]

    def max_strong_diameter(self) -> float:
        """The decomposition's strong diameter: max over clusters."""
        return max(self.strong_diameters(), default=0.0)

    def max_weak_diameter(self) -> float:
        """The decomposition's weak diameter: max over clusters."""
        return max(self.weak_diameters(), default=0.0)

    def disconnected_clusters(self) -> list[Cluster]:
        """Clusters whose induced subgraph is disconnected.

        Always empty for the paper's algorithm; typically non-empty for
        Linial–Saks (that is the whole point — experiment E10).
        """
        return [
            cluster
            for cluster, diam in zip(self.clusters, self.strong_diameters())
            if math.isinf(diam)
        ]

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def is_partition(self) -> bool:
        """Whether the clusters exactly partition the vertex set."""
        total = sum(len(cluster) for cluster in self.clusters)
        return (
            total == self.graph.num_vertices
            and len(self._vertex_to_cluster) == self.graph.num_vertices
        )

    def is_proper_coloring(self) -> bool:
        """Whether adjacent clusters always have different colours."""
        for u, v in self.graph.edges():
            cu = self._vertex_to_cluster.get(u)
            cv = self._vertex_to_cluster.get(v)
            if cu is None or cv is None or cu == cv:
                continue
            if self.clusters[cu].color == self.clusters[cv].color:
                return False
        return True

    def validate(
        self,
        max_diameter: float | None = None,
        max_colors: int | None = None,
        strong: bool = True,
    ) -> None:
        """Check the full (D, χ) definition; raise on any violation.

        Parameters
        ----------
        max_diameter:
            If given, every cluster's (strong or weak) diameter must be at
            most this.
        max_colors:
            If given, at most this many colours may be used.
        strong:
            Whether the diameter requirement is strong (induced subgraph)
            or weak (host graph).
        """
        if not self.is_partition():
            raise DecompositionError("clusters do not partition the vertex set")
        for index, cluster in enumerate(self.clusters):
            if cluster.index != index:
                raise DecompositionError(
                    f"cluster at position {index} has index {cluster.index}"
                )
            if not cluster.vertices:
                raise DecompositionError(f"cluster {index} is empty")
        if not self.is_proper_coloring():
            raise DecompositionError("adjacent clusters share a colour")
        if max_colors is not None and self.num_colors > max_colors:
            raise DecompositionError(
                f"{self.num_colors} colours used, bound is {max_colors}"
            )
        if max_diameter is not None:
            diameters = self.strong_diameters() if strong else self.weak_diameters()
            for cluster, diam in zip(self.clusters, diameters):
                if diam > max_diameter:
                    kind = "strong" if strong else "weak"
                    raise DecompositionError(
                        f"cluster {cluster.index} has {kind} diameter {diam}, "
                        f"bound is {max_diameter}"
                    )

    def __repr__(self) -> str:
        return (
            f"NetworkDecomposition(n={self.graph.num_vertices}, "
            f"clusters={self.num_clusters}, colors={self.num_colors})"
        )
