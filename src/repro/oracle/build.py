"""Building the oracle: fringe growth, per-cluster BFS, table compaction.

For each :class:`~repro.oracle.hierarchy.CoreLevel` of the pyramid and
its cover radius ``W``, this module materialises the scale's cover and
compacts it into :class:`~repro.oracle.tables.ScaleTables`:

1. **fringe growth** — cover cluster ``j`` is ``N_W[core_j]``, the
   vertices within ``W`` hops of core ``j``.  Because cores partition
   ``V`` and ``v ∈ core(v)``, the ``W``-ball of every vertex is contained
   in its own core's cover cluster — the covering property is
   structural;
2. **center BFS** — a deterministic BFS from the cluster center,
   restricted to the cluster's induced subgraph, records every member's
   hop distance and BFS parent (the lowest-id neighbour one hop closer:
   the routing tree).  Restricting to the cluster keeps distances
   conservative (never below the true ``G``-distance), which is exactly
   what the stretch proof needs;
3. **compaction** — per-vertex membership slots are flattened into the
   vertex-major CSR columns the batched query engine reads.

Steps 1–2 have two paths, picked at call time by the kernel switch
(:func:`~repro.graphs._kernel.numpy_enabled`, i.e. ``REPRO_KERNEL``), and
both give byte-identical tables:

* **numpy** — each step is one multi-origin flood on the kernel's shared
  round loop (:func:`~repro.graphs._kernel.flood`, the centralized
  carve's), with one origin per cover cluster and keys ``v · C + r`` for
  vertex ``v`` in the cluster of rank ``r``, one of ``C``.  The fringe
  flood starts from every vertex in its own core's cluster; the center
  flood starts from the centers and drops arrivals outside the cluster.
  The sorted keys are already vertex-major, so compaction is a count and
  a cumulative sum;
* **pure Python** — one multi-source
  :func:`~repro.graphs._kernel.bfs_levels` pass per core over a shared
  scratch mask and one BFS per cluster (:func:`_cluster_bfs`).  It is the
  reference the numpy path is tested against.

Scales whose cover would exceed the membership budget
(``overlap_budget × n`` slots) are *skipped*: on low-diameter graphs the
``W``-fringe volume explodes exponentially while core counts shrink only
geometrically, so the builder jumps straight to the terminal component
cover instead of storing a table that would dwarf the graph itself.
The stretch bound accounts for skipped scales automatically (the
resolution floor of a stored scale references the previous *stored*
scale).  High-diameter graphs (tori, grids, paths) never trigger the
budget and get the full geometric ladder ``W = 1, 2, 4, …``.
"""

from __future__ import annotations

import math
from array import array
from typing import TYPE_CHECKING

from ..core.params import default_k
from ..errors import ParameterError, SimulationError
from ..graphs import _kernel
from ..graphs._kernel import (
    as_long_array,
    flood,
    gather_frontier_rows,
    numpy_enabled,
    run_heads,
)
from ..graphs._kernel import bfs_levels as _kernel_bfs_levels
from ..graphs.graph import Graph
from ..rng import DEFAULT_SEED
from ..telemetry import maybe_span, measure_span, resolve
from .hierarchy import CoreLevel, base_level, coarsen_level, component_level
from .tables import DistanceOracle, ScaleTables

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry import Telemetry

__all__ = ["build_oracle", "compact_scale"]


def _cluster_bfs(graph, center, outside, dist, parent) -> int:
    """BFS from ``center`` over vertices with ``outside[v] == 0``.

    Fills ``dist``/``parent`` for every reached vertex, marks reached
    vertices in ``outside`` and returns the eccentricity.  Level-sorted
    like the traversal kernel, parents chosen by first (lowest-id)
    discoverer, so the routing tree is deterministic on every backend.
    """
    indptr, indices = graph.csr()
    outside[center] = 1
    dist[center] = 0
    parent[center] = -1
    level = [center]
    depth = 0
    while level:
        depth += 1
        frontier: list[int] = []
        append = frontier.append
        for u in level:
            for position in range(indptr[u], indptr[u + 1]):
                w = indices[position]
                if not outside[w]:
                    outside[w] = 1
                    dist[w] = depth
                    parent[w] = u
                    append(w)
        frontier.sort()
        level = frontier
    return depth - 1


def compact_scale(
    graph: Graph,
    level: CoreLevel,
    radius: int,
    min_distance: int,
    budget_entries: int | None,
) -> ScaleTables | None:
    """Materialise one scale's cover as columnar tables.

    Returns ``None`` when the cover's total membership would exceed
    ``budget_entries`` (never for a component level, whose cover is the
    partition itself and costs exactly ``n`` slots).
    """
    if numpy_enabled():
        return _compact_flood(graph, level, radius, min_distance, budget_entries)
    return _compact_bfs(graph, level, radius, min_distance, budget_entries)


def _compact_bfs(graph, level, radius, min_distance, budget_entries) -> ScaleTables | None:
    """The pure-Python compaction: one fringe BFS per core, one center BFS
    per cluster."""
    n = graph.num_vertices
    num_cores = level.num_cores
    core_of = level.core_of
    # Counting-sort vertices into per-core member lists (ascending).
    core_start = [0] * (num_cores + 1)
    for v in range(n):
        core_start[core_of[v] + 1] += 1
    for j in range(num_cores):
        core_start[j + 1] += core_start[j]
    core_members = [0] * n
    cursor = list(core_start[:num_cores])
    for v in range(n):
        j = core_of[v]
        core_members[cursor[j]] = v
        cursor[j] += 1
    # Canonical cluster ids: rank cores by their smallest member, so the
    # stored tables are independent of the carving's phase order (and
    # column-identical stalled scales deduplicate in the build loop).
    order = sorted(range(num_cores), key=lambda j: core_members[core_start[j]])

    fringe_scratch = bytearray(n)
    inside_scratch = bytearray(b"\x01") * n
    dist_scratch = [0] * n
    parent_scratch = [0] * n
    slots_of: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    ecc = array("l", bytes(array("l").itemsize * num_cores))
    centers = array("l", bytes(array("l").itemsize * num_cores))
    entries = 0
    fringe_radius = None if level.is_components else radius

    for rank, j in enumerate(order):
        core = core_members[core_start[j] : core_start[j + 1]]
        levels = _kernel_bfs_levels(graph, core, fringe_scratch, radius=fringe_radius)
        members: list[int] = []
        for lev in levels:
            members.extend(lev)
        for v in members:
            fringe_scratch[v] = 0
        entries += len(members)
        if budget_entries is not None and not level.is_components:
            if entries > budget_entries:
                return None
        for v in members:
            inside_scratch[v] = 0
        centers[rank] = level.centers[j]
        ecc[rank] = _cluster_bfs(
            graph, level.centers[j], inside_scratch, dist_scratch, parent_scratch
        )
        for v in members:
            if not inside_scratch[v]:  # pragma: no cover - structural invariant
                raise SimulationError(
                    f"cover cluster {rank} member {v} unreachable from its center"
                )
            slots_of[v].append((rank, dist_scratch[v], parent_scratch[v]))

    word = array("l").itemsize
    indptr = array("l", bytes(word * (n + 1)))
    member_cluster = array("l", bytes(word * entries))
    member_dist = array("l", bytes(word * entries))
    member_parent = array("l", bytes(word * entries))
    position = 0
    for v in range(n):
        for cluster, dist, parent in slots_of[v]:
            member_cluster[position] = cluster
            member_dist[position] = dist
            member_parent[position] = parent
            position += 1
        indptr[v + 1] = position
    return ScaleTables(
        radius=radius,
        min_distance=min_distance,
        is_components=level.is_components,
        centers=centers,
        ecc=ecc,
        indptr=indptr,
        member_cluster=member_cluster,
        member_dist=member_dist,
        member_parent=member_parent,
    )


def _compact_flood(graph, level, radius, min_distance, budget_entries) -> ScaleTables | None:
    """The numpy compaction: fringe growth and the center BFS as two
    multi-origin floods with one origin per cover cluster.

    A fringe round's arrivals are the next level of every core's
    multi-source BFS; the count of entries only grows, so the flood stops
    as soon as it passes the budget.  A center round's arrivals inside
    their cluster are the members at that distance from its center.
    """
    np = _kernel._np
    n = graph.num_vertices
    num_clusters = level.num_cores
    stride = max(num_clusters, 1)
    indptr, indices = graph._numpy_csr()
    core_of = np.asarray(level.core_of, dtype=np.int64)
    # Canonical cluster ids, as on the Python path: cores ranked by their
    # smallest member.
    first = np.full(num_clusters, n, dtype=np.int64)
    np.minimum.at(first, core_of, np.arange(n))
    order = first.argsort()
    rank = np.empty(num_clusters, dtype=np.int64)
    rank[order] = np.arange(num_clusters)

    budget = None if level.is_components else budget_entries
    if budget is not None and n > budget:
        return None
    fringe_radius = None if level.is_components else radius
    start = np.arange(n, dtype=np.int64) * stride + rank[core_of]
    grown = [start]
    entries = n

    def grow(keys, distance):
        nonlocal entries
        grown.append(keys)
        entries += len(keys)
        if budget is not None and entries > budget:
            return None
        return keys if fringe_radius is None or distance < fringe_radius else keys[:0]

    if fringe_radius is None or fringe_radius >= 1:
        if not flood(indptr, indices, None, start, stride, grow):
            return None
    members = np.concatenate(grown)
    members.sort()
    del grown

    centers = np.asarray(level.centers, dtype=np.int64)[order]
    roots = centers * stride + np.arange(num_clusters)
    roots.sort()
    dist = np.full(len(members), -1, dtype=np.int64)
    dist[members.searchsorted(roots)] = 0
    ecc = np.zeros(num_clusters, dtype=np.int64)

    def reach(keys, distance):
        at = members.searchsorted(keys)
        inside = members.take(at, mode="clip") == keys
        dist[at[inside]] = distance
        keys = keys[inside]
        ecc[keys % stride] = distance
        return keys

    flood(indptr, indices, None, roots, stride, reach)
    if (dist < 0).any():  # pragma: no cover - structural invariant
        v, cluster = divmod(int(members[(dist < 0).argmax()]), stride)
        raise SimulationError(
            f"cover cluster {cluster} member {v} unreachable from its center"
        )
    vertex, cluster = np.divmod(members, stride)
    parent = _center_parents(indptr, indices, members, vertex, cluster, dist, stride)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(vertex, minlength=n), out=offsets[1:])
    return ScaleTables(
        radius=radius,
        min_distance=min_distance,
        is_components=level.is_components,
        centers=as_long_array(centers),
        ecc=as_long_array(ecc),
        indptr=as_long_array(offsets),
        member_cluster=as_long_array(cluster),
        member_dist=as_long_array(dist),
        member_parent=as_long_array(parent),
    )


def _center_parents(indptr, indices, members, vertex, cluster, dist, stride):
    """Every member's routing parent: its lowest-id neighbour in the same
    cluster one hop closer to the center (``-1`` at the center) — the
    first discoverer of :func:`_cluster_bfs`, whose levels are sorted.

    Members are taken in slices whose rows hold about
    :data:`~repro.graphs._kernel._SPLIT_FANOUT` candidates, so memory stays
    bounded like the floods'.
    """
    np = _kernel._np
    parent = np.full(len(members), -1, dtype=np.int64)
    pending = np.flatnonzero(dist > 0)
    load = np.cumsum(indptr[vertex[pending] + 1] - indptr[vertex[pending]])
    low = 0
    while low < len(pending):
        done = load[low - 1] if low else 0
        high = max(int(load.searchsorted(done + _kernel._SPLIT_FANOUT, "right")), low + 1)
        chunk = pending[low:high]
        rows, counts = gather_frontier_rows(indptr, indices, vertex[chunk])
        candidates = rows * stride + np.repeat(cluster[chunk], counts)
        at = members.searchsorted(candidates)
        closer = members.take(at, mode="clip") == candidates
        closer &= dist.take(at, mode="clip") == np.repeat(dist[chunk] - 1, counts)
        # Rows are sorted, so each member's first closer neighbour is its
        # lowest-id one; every member past the center has one.
        owner = np.repeat(np.arange(len(chunk)), counts)[closer]
        parent[chunk] = rows[closer][run_heads(owner)]
        low = high
    return parent


def build_oracle(
    graph: Graph,
    k: float | None = None,
    c: float = 4.0,
    seed: int = DEFAULT_SEED,
    overlap_budget: float = 8.0,
    max_depth: int | None = None,
    telemetry: "Telemetry | None" = None,
) -> DistanceOracle:
    """Build the multi-scale distance/routing oracle of ``graph``.

    Parameters
    ----------
    graph:
        Host graph (need not be connected).
    k, c:
        Elkin–Neiman parameters for the level-0 decomposition
        (``k`` defaults to ``⌈ln n⌉``; quotient levels re-derive ``k``
        from their own size).
    seed:
        Root seed; every level draws from a derived stream, so builds
        are bit-reproducible.
    overlap_budget:
        Maximum mean overlap: a scale may store at most
        ``overlap_budget × n`` membership slots, else it is skipped
        (``≥ 1``; the component scale always fits).
    max_depth:
        Cap on coarsening rounds (default ``⌈log₂ n⌉ + 2``); reaching it
        forces the terminal component scale.
    telemetry:
        Explicit :class:`~repro.telemetry.Telemetry` collector, or
        ``None`` for the ambient one.  When enabled the build emits an
        ``oracle.build`` span with nested per-scale ``scale`` and
        carving ``carve`` spans.

    Returns
    -------
    DistanceOracle
        Fine-to-coarse scales, terminated by the component cover.
    """
    n = graph.num_vertices
    # Written so that NaN fails too; infinity would overflow the slot budget.
    if not 1 <= overlap_budget < math.inf:
        raise ParameterError(
            f"overlap_budget must be finite and >= 1, got {overlap_budget}"
        )
    if k is None:
        k = default_k(n)
    if max_depth is None:
        max_depth = max(2, math.ceil(math.log2(max(n, 2))) + 2)
    oracle = DistanceOracle(
        graph=graph,
        scales=[],
        k=k,
        c=c,
        seed=seed,
        overlap_budget=overlap_budget,
    )
    if n == 0:
        return oracle
    tel = resolve(telemetry)
    budget_entries = int(overlap_budget * n)
    with maybe_span(tel, "oracle.build", n=n, k=k, c=c, seed=seed) as build_span, \
            measure_span(build_span):
        with maybe_span(tel, "carve", depth=0):
            level = base_level(graph, k, c, seed)
        radius = 1
        depth = 0
        previous_stored = 0
        while True:
            if not level.is_components and depth >= max_depth:
                level = component_level(graph)
            min_distance = 2 if not oracle.scales else previous_stored + 1
            with maybe_span(tel, "scale", radius=radius) as scale_span:
                tables = compact_scale(
                    graph, level, radius, min_distance, budget_entries
                )
                if scale_span is not None:
                    if tables is None:
                        scale_span.annotate(skipped=True)
                    else:
                        scale_span.add("clusters", tables.num_clusters)
                        scale_span.add("entries", tables.entries)
            if tables is None:
                # Fringe volume outran the budget: skip every remaining
                # intermediate scale and finish with the exact component cover.
                oracle.skipped_radii.append(radius)
                level = component_level(graph)
                continue
            if oracle.scales and _same_cover(oracle.scales[-1], tables):
                # The fringe saturated: N_{2W}[core] == N_W[core] means every
                # cover cluster already fills its whole connected component,
                # so this cover resolves every same-component pair and any
                # coarser scale could never resolve anything new.  Relabel
                # the stored twin with the larger covering radius and stop.
                oracle.scales[-1].radius = radius
                oracle.scales[-1].is_components = True
                break
            oracle.scales.append(tables)
            previous_stored = radius
            if level.is_components:
                break
            depth += 1
            with maybe_span(tel, "carve", depth=depth):
                level = coarsen_level(graph, level, c, seed, depth)
            radius *= 2
        if build_span is not None:
            build_span.add("scales", len(oracle.scales))
            build_span.add(
                "entries", sum(s.entries for s in oracle.scales)
            )
    return oracle


def _same_cover(previous: ScaleTables, current: ScaleTables) -> bool:
    """Whether two scales store the exact same clusters and distances."""
    return (
        previous.centers == current.centers
        and previous.indptr == current.indptr
        and previous.member_cluster == current.member_cluster
        and previous.member_dist == current.member_dist
    )
