"""Columnar tables of the hierarchical distance/routing oracle.

Paper context: §1.1 — network decompositions are *"closely related to
neighborhood covers, which are used extensively for routing and
synchronization"*.  This module is the storage half of that application:
the multi-scale cover hierarchy built by :mod:`repro.oracle.build` is
compacted into flat ``array('l')`` buffers, mirroring the CSR layout of
:class:`~repro.graphs.graph.Graph`, so that the batched query engine in
:mod:`repro.oracle.query` can serve them either with plain-Python loops
or with zero-copy numpy gathers — bit-identically (the library-wide
backend contract, see :mod:`repro.graphs._kernel`).

Per scale ``i`` (cover radius ``W_i``):

* ``centers[j]`` / ``ecc[j]`` — the center vertex of cover cluster ``j``
  and its measured eccentricity *inside* the cluster's induced subgraph;
* ``indptr`` / ``member_cluster`` / ``member_dist`` / ``member_parent``
  — a vertex-major CSR: slot range ``indptr[v]:indptr[v+1]`` lists the
  clusters containing ``v`` (ascending), ``v``'s hop distance to each
  cluster's center (measured inside the cluster) and ``v``'s BFS parent
  toward that center (``-1`` at the center itself).

The advertised stretch bound is instance-measured and provable from the
tables alone: a pair resolved at scale ``i`` has true distance at least
``min_distance_i`` (the covering property of every finer stored scale),
and its estimate ``d(c, s) + d(c, t)`` is at most ``2 · max(ecc_i)``.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

from ..graphs.graph import Graph

__all__ = [
    "ScaleTables",
    "DistanceOracle",
    "UNREACHABLE",
    "TRIVIAL_SCALE",
    "load",
]

#: ``scale`` marker returned by the query engine for unreachable pairs.
UNREACHABLE = -1

#: ``scale`` marker for pairs answered exactly before the scale sweep
#: (identical endpoints and adjacent endpoints).
TRIVIAL_SCALE = -2


@dataclass
class ScaleTables:
    """One scale of the oracle: a cover compacted into flat columns.

    ``radius`` is the cover radius ``W`` (every ``W``-ball of the graph
    is contained in at least one cluster of this scale).
    ``min_distance`` is the resolution floor: any query pair *first*
    resolved at this scale is guaranteed to be at true distance at least
    ``min_distance`` (see :attr:`DistanceOracle.stretch_bound`).
    """

    radius: int
    min_distance: int
    is_components: bool
    centers: array
    ecc: array
    indptr: array
    member_cluster: array
    member_dist: array
    member_parent: array
    _np: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def num_clusters(self) -> int:
        """Number of cover clusters at this scale."""
        return len(self.centers)

    @property
    def entries(self) -> int:
        """Total membership slots (``n × mean overlap``)."""
        return len(self.member_cluster)

    @property
    def rmax(self) -> int:
        """Largest in-cluster center eccentricity at this scale."""
        return max(self.ecc, default=0)

    @property
    def max_overlap(self) -> int:
        """Largest number of clusters any one vertex belongs to."""
        indptr = self.indptr
        return max(
            (indptr[v + 1] - indptr[v] for v in range(len(indptr) - 1)),
            default=0,
        )

    def numpy_views(self):
        """Zero-copy numpy views of every column (``None`` without numpy).

        Lazily built on first use, exactly like
        :meth:`repro.graphs.graph.Graph._numpy_csr`.
        """
        if self._np is None:
            try:
                import numpy as np
            except ImportError:  # pragma: no cover - stdlib-only installs
                return None
            dtype = np.dtype("l")
            self._np = (
                np.frombuffer(self.indptr, dtype=dtype),
                np.frombuffer(self.member_cluster, dtype=dtype),
                np.frombuffer(self.member_dist, dtype=dtype),
            )
        return self._np

    def clusters_of(self, v: int) -> list[tuple[int, int]]:
        """``(cluster, distance-to-center)`` pairs for vertex ``v``, ascending."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return [
            (self.member_cluster[s], self.member_dist[s]) for s in range(lo, hi)
        ]

    def members_of(self, cluster: int) -> list[int]:
        """Sorted member vertices of ``cluster`` (linear scan; tests/stats only)."""
        members = []
        indptr, owner = self.indptr, self.member_cluster
        for v in range(len(indptr) - 1):
            for s in range(indptr[v], indptr[v + 1]):
                if owner[s] == cluster:
                    members.append(v)
                    break
        return members


@dataclass
class DistanceOracle:
    """A built multi-scale distance/routing oracle over one graph.

    Scales are ordered fine-to-coarse; the last scale is always the
    exact component cover (one cluster per connected component), so any
    same-component pair resolves and cross-component pairs return
    :data:`UNREACHABLE`.  Queries are answered batched — see
    :mod:`repro.oracle.query` for the engine and the backend contract.
    """

    graph: Graph
    scales: list[ScaleTables]
    k: float
    c: float
    seed: int
    overlap_budget: float
    skipped_radii: list[int] = field(default_factory=list)

    @property
    def num_scales(self) -> int:
        """Number of stored scales."""
        return len(self.scales)

    @property
    def stretch_bound(self) -> float:
        """The advertised multiplicative stretch of every answer.

        For a pair at true distance ``d ≥ 1`` the returned estimate
        ``est`` satisfies ``d ≤ est ≤ stretch_bound · d``:

        * ``est ≥ d`` because every estimate is the length of a real
          walk ``s → center → t``;
        * a pair first sharing a cluster at scale ``i`` has
          ``d ≥ min_distance_i`` (its ``W``-ball at every finer stored
          scale was inside a stored cluster) and
          ``est ≤ 2 · max(ecc_i)``, so
          ``est / d ≤ 2 · max(ecc_i) / min_distance_i``; identical and
          adjacent pairs are answered exactly.
        """
        bound = 1.0
        for scale in self.scales:
            if scale.num_clusters:
                bound = max(bound, 2.0 * scale.rmax / scale.min_distance)
        return bound

    def distances(self, pairs: Sequence[tuple[int, int]], telemetry=None) -> list[int]:
        """Batched distance estimates (``-1`` for cross-component pairs)."""
        from .query import query_distances

        return query_distances(self, pairs, telemetry=telemetry)

    def distance_details(self, pairs: Sequence[tuple[int, int]], telemetry=None):
        """Batched ``(estimate, scale, cluster)`` triples (see query module)."""
        from .query import query_details

        return query_details(self, pairs, telemetry=telemetry)

    def routes(self, pairs: Sequence[tuple[int, int]]) -> list[list[int] | None]:
        """Batched explicit routes; ``None`` for cross-component pairs."""
        from .query import query_routes

        return query_routes(self, pairs)

    def scale_rows(self) -> list[dict]:
        """Per-scale summary rows (the CLI/bench table)."""
        rows = []
        for i, scale in enumerate(self.scales):
            rows.append(
                {
                    "scale": i,
                    "W": scale.radius,
                    "clusters": scale.num_clusters,
                    "entries": scale.entries,
                    "max_overlap": scale.max_overlap,
                    "rmax": scale.rmax,
                    "min_d": scale.min_distance,
                    "components": scale.is_components,
                }
            )
        return rows


# ----------------------------------------------------------------------
# Shared table loading (CLI + serving daemon)
# ----------------------------------------------------------------------

#: Most-recently-loaded oracles kept alive, keyed by full build recipe.
_LOAD_CACHE: "OrderedDict[tuple, DistanceOracle]" = OrderedDict()
_LOAD_CACHE_CAPACITY = 4


def load(
    graph_spec: str,
    *,
    seed: int,
    k: float | None = None,
    c: float = 4.0,
    overlap_budget: float = 8.0,
    telemetry=None,
    use_cache: bool = True,
) -> DistanceOracle:
    """Build (or reuse) the oracle tables for a ``family:arg:arg`` spec.

    This is the one table-loading path shared by ``repro oracle``, the
    ``repro serve`` daemon and the loadgen validator.  The full build
    recipe ``(graph_spec, seed, k, c, overlap_budget)`` keys a small LRU
    memo; builds are deterministic in the recipe, so a memo hit is
    indistinguishable from a rebuild (modulo time).  ``use_cache=False``
    bypasses the memo both ways (no lookup, no store).  The CLI and the
    repository benchmark both pass it, so no caller in this repository
    relies on the memo.
    """
    from ..graphs.builders import parse_graph_spec
    from .build import build_oracle

    key = (graph_spec, seed, k, c, overlap_budget)
    if use_cache and key in _LOAD_CACHE:
        _LOAD_CACHE.move_to_end(key)
        return _LOAD_CACHE[key]
    graph = parse_graph_spec(graph_spec, seed=seed)
    oracle = build_oracle(
        graph,
        k=k,
        c=c,
        seed=seed,
        overlap_budget=overlap_budget,
        telemetry=telemetry,
    )
    if use_cache:
        _LOAD_CACHE[key] = oracle
        while len(_LOAD_CACHE) > _LOAD_CACHE_CAPACITY:
            _LOAD_CACHE.popitem(last=False)
    return oracle
