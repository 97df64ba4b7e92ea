"""Decomposition quality reports.

One :class:`QualityReport` summarises everything the experiments compare:
colour count, strong/weak diameters, cluster connectivity, sizes and cut
edges.  Computation is exact (BFS-based) and intended for laptop-scale
validation graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.decomposition import NetworkDecomposition

__all__ = ["QualityReport", "report"]


@dataclass(frozen=True)
class QualityReport:
    """Measured properties of one network decomposition.

    ``max_strong_diameter`` is ``inf`` when some cluster is disconnected;
    ``num_disconnected_clusters`` counts them (the Linial–Saks failure
    mode that motivates the paper).
    """

    num_vertices: int
    num_edges: int
    num_clusters: int
    num_colors: int
    max_cluster_size: int
    mean_cluster_size: float
    max_strong_diameter: float
    max_weak_diameter: float
    mean_weak_diameter: float
    num_disconnected_clusters: int
    cut_edges: int
    cut_fraction: float
    is_valid_partition: bool
    is_properly_colored: bool

    def row(self) -> dict[str, object]:
        """The report as a flat dict (for table rendering)."""
        return {
            "n": self.num_vertices,
            "m": self.num_edges,
            "clusters": self.num_clusters,
            "colors": self.num_colors,
            "max|C|": self.max_cluster_size,
            "strongD": self.max_strong_diameter,
            "weakD": self.max_weak_diameter,
            "disconn": self.num_disconnected_clusters,
            "cut%": round(100.0 * self.cut_fraction, 2),
        }


def report(decomposition: NetworkDecomposition) -> QualityReport:
    """Measure ``decomposition`` exactly and return its report."""
    graph = decomposition.graph
    sizes = decomposition.cluster_sizes()
    strong = decomposition.strong_diameters()
    weak = decomposition.weak_diameters()
    cut = decomposition.cut_edges()
    return QualityReport(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        num_clusters=decomposition.num_clusters,
        num_colors=decomposition.num_colors,
        max_cluster_size=max(sizes, default=0),
        mean_cluster_size=(sum(sizes) / len(sizes)) if sizes else 0.0,
        max_strong_diameter=max(strong, default=0.0),
        max_weak_diameter=max(weak, default=0.0),
        mean_weak_diameter=(sum(weak) / len(weak)) if weak else 0.0,
        num_disconnected_clusters=sum(1 for d in strong if math.isinf(d)),
        cut_edges=cut,
        cut_fraction=cut / graph.num_edges if graph.num_edges else 0.0,
        is_valid_partition=decomposition.is_partition(),
        is_properly_colored=decomposition.is_proper_coloring(),
    )
