"""The batched query engine: approximate distances and routes.

The oracle's hot path is *query throughput*, not construction: a batch
of ``(s, t)`` pairs is answered in bulk over the flat columns of
:class:`~repro.oracle.tables.ScaleTables`.  Per pair:

1. ``s == t`` → 0 and adjacent pairs → 1, answered exactly (adjacency
   is one gather over the graph's CSR rows);
2. otherwise, every stored scale contributes the best shared-cluster
   estimate ``dist(c, s) + dist(c, t)`` over clusters ``c`` containing
   both endpoints, and the pair takes the minimum across scales (ties
   prefer the finer scale, then the smaller cluster id);
3. a pair sharing no cluster at any scale is in two different connected
   components (the terminal scale is the exact component cover) and
   reports :data:`~repro.oracle.tables.UNREACHABLE`.

Backend contract: the numpy path (ragged cross-join of the two
membership rows via the `gather_frontier_rows` repeat/arange idiom,
per-query ``minimum.reduceat``) and the pure-Python path (two-pointer
merge of the sorted membership rows) return **bit-identical** results —
both reduce the same integer key ``(dist_s + dist_t) · K + cluster``.
``REPRO_KERNEL=py`` forces the Python path, exactly as for the BFS
kernel and the batch engine's flood.

Routes are reconstructed from the stored BFS-parent columns by walking
``s → center → t`` inside the resolving cluster; the walk's hop count
always equals the returned estimate.
"""

from __future__ import annotations

from bisect import bisect_left
from time import perf_counter
from typing import TYPE_CHECKING, Sequence

from ..errors import GraphError
from ..graphs import _kernel
from ..graphs._kernel import _np as np
from ..graphs._kernel import gather_frontier_rows
from ..telemetry import maybe_span, resolve
from .tables import DistanceOracle, TRIVIAL_SCALE, UNREACHABLE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry import Telemetry

__all__ = ["query_distances", "query_details", "query_routes"]

#: Key/estimate sentinel: strictly above any real key
#: ``(dist_s + dist_t) · K + cluster`` (≤ ``2n·K + K ≪ 2⁶²``).
_NO_ESTIMATE = 1 << 62

#: Batch size at which the vectorised path starts to win (the library's
#: measured python→numpy crossover, see ``repro.graphs._kernel``).
_MIN_NUMPY_BATCH = _kernel._NUMPY_FRONTIER_THRESHOLD


def _split_pairs(
    oracle: DistanceOracle, pairs: Sequence[tuple[int, int]]
) -> tuple[list[int], list[int]]:
    graph = oracle.graph
    sources: list[int] = []
    targets: list[int] = []
    for s, t in pairs:
        graph._check_vertex(s)
        graph._check_vertex(t)
        sources.append(s)
        targets.append(t)
    return sources, targets


def query_distances(
    oracle: DistanceOracle,
    pairs: Sequence[tuple[int, int]],
    telemetry: "Telemetry | None" = None,
) -> list[int]:
    """Batched distance estimates; ``-1`` marks cross-component pairs."""
    estimates, _, _ = query_details(oracle, pairs, telemetry=telemetry)
    return estimates


def query_details(
    oracle: DistanceOracle,
    pairs: Sequence[tuple[int, int]],
    telemetry: "Telemetry | None" = None,
) -> tuple[list[int], list[int], list[int]]:
    """Batched ``(estimates, scales, clusters)`` columns.

    ``scales[q]`` is the index of the resolving scale,
    :data:`TRIVIAL_SCALE` for exact (self/adjacent) answers or
    :data:`UNREACHABLE` for cross-component pairs; ``clusters[q]`` is the
    resolving cluster id at that scale (``-1`` when not applicable).
    ``telemetry`` (or the ambient trace) records each batch as one
    ``oracle.query`` span with a ``pairs`` counter.
    """
    sources, targets = _split_pairs(oracle, pairs)
    if not sources:
        return [], [], []
    use_numpy = (
        _kernel.numpy_enabled()
        and len(sources) >= _MIN_NUMPY_BATCH
        and oracle.graph._numpy_csr() is not None
    )
    tel = resolve(telemetry)
    with maybe_span(
        tel, "oracle.query", backend="numpy" if use_numpy else "python"
    ) as span:
        if span is not None:
            span.add("pairs", len(sources))
            started = perf_counter()
        if use_numpy:
            details = _details_numpy(oracle, sources, targets)
        else:
            details = _details_python(oracle, sources, targets)
        if span is not None:
            # Per-batch latency feeds the trace's mergeable histogram so
            # sharded campaigns can combine query-latency quantiles.
            elapsed = perf_counter() - started
            span.annotate(batch_seconds=round(elapsed, 9))
            tel.histogram("oracle.query.batch_seconds").record(elapsed)
        return details


# ----------------------------------------------------------------------
# Pure-Python path (the semantics of record)
# ----------------------------------------------------------------------
def _details_python(oracle, sources, targets):
    graph = oracle.graph
    count = len(sources)
    estimates = [_NO_ESTIMATE] * count
    scales = [UNREACHABLE] * count
    clusters = [-1] * count
    for index, scale in enumerate(oracle.scales):
        indptr = scale.indptr
        owner = scale.member_cluster
        dist = scale.member_dist
        num_clusters = scale.num_clusters
        for q in range(count):
            i, i_end = indptr[sources[q]], indptr[sources[q] + 1]
            j, j_end = indptr[targets[q]], indptr[targets[q] + 1]
            best = _NO_ESTIMATE
            while i < i_end and j < j_end:
                ci, cj = owner[i], owner[j]
                if ci == cj:
                    key = (dist[i] + dist[j]) * num_clusters + ci
                    if key < best:
                        best = key
                    i += 1
                    j += 1
                elif ci < cj:
                    i += 1
                else:
                    j += 1
            if best < _NO_ESTIMATE:
                estimate = best // num_clusters
                if estimate < estimates[q]:
                    estimates[q] = estimate
                    scales[q] = index
                    clusters[q] = best % num_clusters
    for q in range(count):
        if sources[q] == targets[q]:
            estimates[q], scales[q], clusters[q] = 0, TRIVIAL_SCALE, -1
        elif graph.has_edge(sources[q], targets[q]):
            estimates[q], scales[q], clusters[q] = 1, TRIVIAL_SCALE, -1
        elif estimates[q] == _NO_ESTIMATE:
            estimates[q] = -1
    return estimates, scales, clusters


# ----------------------------------------------------------------------
# Vectorised path (bit-identical by the integer-key contract)
# ----------------------------------------------------------------------
def _details_numpy(oracle, sources, targets):
    graph = oracle.graph
    np_indptr, _ = graph._numpy_csr()
    S = np.asarray(sources, dtype=np_indptr.dtype)
    T = np.asarray(targets, dtype=np_indptr.dtype)
    count = len(sources)
    estimates = np.full(count, _NO_ESTIMATE, dtype=np.int64)
    scales = np.full(count, UNREACHABLE, dtype=np.int64)
    clusters = np.full(count, -1, dtype=np.int64)
    for index, scale in enumerate(oracle.scales):
        views = scale.numpy_views()
        if views is None:  # pragma: no cover - numpy vanished mid-run
            return _details_python(oracle, sources, targets)
        indptr, owner, dist = views
        num_clusters = scale.num_clusters
        source_offsets = indptr[S]
        source_counts = indptr[S + 1] - source_offsets
        target_offsets = indptr[T]
        target_counts = indptr[T + 1] - target_offsets
        pair_counts = source_counts * target_counts
        total = int(pair_counts.sum())
        if total == 0:
            continue
        # Ragged cross-join of the two membership rows of every query:
        # each source slot is repeated once per target slot of the same
        # query; target slots are tiled via an offset-and-modulo pass.
        slot_ends = np.cumsum(source_counts)
        source_slots = np.repeat(
            source_offsets - (slot_ends - source_counts), source_counts
        ) + np.arange(int(slot_ends[-1]), dtype=np.int64)
        source_index = np.repeat(
            source_slots, np.repeat(target_counts, source_counts)
        )
        pair_ends = np.cumsum(pair_counts)
        pair_starts = pair_ends - pair_counts
        query_of = np.repeat(np.arange(count, dtype=np.int64), pair_counts)
        local = np.arange(total, dtype=np.int64) - pair_starts[query_of]
        target_index = target_offsets[query_of] + local % target_counts[query_of]
        same = owner[source_index] == owner[target_index]
        key = np.where(
            same,
            (dist[source_index] + dist[target_index]) * np.int64(num_clusters)
            + owner[source_index],
            np.int64(_NO_ESTIMATE),
        )
        # Per-query minimum: pad with the sentinel so empty-query segment
        # starts stay valid, then overwrite the empties (never clamp the
        # reduceat starts — that steals the previous segment's minimum).
        best = np.minimum.reduceat(np.append(key, np.int64(_NO_ESTIMATE)), pair_starts)
        best[pair_counts == 0] = _NO_ESTIMATE
        found = best < _NO_ESTIMATE
        estimate = np.where(found, best // num_clusters, _NO_ESTIMATE)
        better = estimate < estimates
        estimates[better] = estimate[better]
        scales[better] = index
        clusters[better] = (best % num_clusters)[better]
    self_mask = S == T
    adjacent = _batch_has_edge(graph, S, T) & ~self_mask
    estimates[adjacent] = 1
    scales[adjacent] = TRIVIAL_SCALE
    clusters[adjacent] = -1
    estimates[self_mask] = 0
    scales[self_mask] = TRIVIAL_SCALE
    clusters[self_mask] = -1
    estimates[estimates == _NO_ESTIMATE] = -1
    return estimates.tolist(), scales.tolist(), clusters.tolist()


def _batch_has_edge(graph, S, T):
    """Boolean adjacency of each ``(S[q], T[q])`` pair, one CSR gather."""
    np_indptr, np_indices = graph._numpy_csr()
    neighbors, counts = gather_frontier_rows(np_indptr, np_indices, S)
    if neighbors is None:
        return np.zeros(len(S), dtype=bool)
    hits = (neighbors == np.repeat(T, counts)).astype(np.int64)
    segment_starts = np.cumsum(counts) - counts
    matched = np.add.reduceat(np.append(hits, np.int64(0)), segment_starts)
    matched[counts == 0] = 0
    return matched > 0


# ----------------------------------------------------------------------
# Route reconstruction (python-side walks over the stored parent trees)
# ----------------------------------------------------------------------
def _slot_of(scale, vertex: int, cluster: int) -> int:
    lo, hi = scale.indptr[vertex], scale.indptr[vertex + 1]
    slot = bisect_left(scale.member_cluster, cluster, lo, hi)
    if slot == hi or scale.member_cluster[slot] != cluster:
        raise GraphError(
            f"vertex {vertex} is not a member of cluster {cluster}"
        )  # pragma: no cover - structural invariant
    return slot


def _walk_to_center(scale, vertex: int, cluster: int) -> list[int]:
    path = [vertex]
    current = vertex
    while True:
        parent = scale.member_parent[_slot_of(scale, current, cluster)]
        if parent < 0:
            return path
        path.append(parent)
        current = parent


def query_routes(
    oracle: DistanceOracle, pairs: Sequence[tuple[int, int]]
) -> list[list[int] | None]:
    """Batched explicit routes ``s → center → t`` (``None`` = unreachable).

    Each route is a walk in the graph whose hop count equals the
    distance estimate returned by :func:`query_distances` for the same
    pair; self pairs give ``[s]`` and adjacent pairs ``[s, t]``.
    """
    estimates, scales, clusters = query_details(oracle, pairs)
    routes: list[list[int] | None] = []
    for q, (s, t) in enumerate(pairs):
        if estimates[q] < 0:
            routes.append(None)
        elif scales[q] == TRIVIAL_SCALE:
            routes.append([s] if s == t else [s, t])
        else:
            scale = oracle.scales[scales[q]]
            to_center = _walk_to_center(scale, s, clusters[q])
            from_center = _walk_to_center(scale, t, clusters[q])
            routes.append(to_center + from_center[-2::-1])
    return routes
