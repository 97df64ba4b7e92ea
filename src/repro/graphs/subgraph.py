"""Induced subgraphs and quotient (super)graphs.

The paper's central object, the supergraph :math:`G(P)` obtained by
contracting every cluster of a partition :math:`P` to a single supernode,
is built by :func:`quotient_graph`.  Two supernodes are adjacent iff some
original edge runs between their clusters (§1, definition of
:math:`\\mathcal{E}`).
"""

from __future__ import annotations

from typing import Collection, Mapping, Sequence

from ..errors import GraphError
from . import _kernel
from .graph import Graph, GraphBuilder

__all__ = ["induced_subgraph", "quotient_graph", "relabel"]


def induced_subgraph(
    graph: Graph, vertices: Collection[int]
) -> tuple[Graph, dict[int, int]]:
    """The subgraph induced by ``vertices``, relabelled to ``0..len-1``.

    Membership is tested against the relabelling dict while scanning the
    CSR rows of the selected vertices, so the cost is O(sum of their
    degrees), independent of the host graph's size.

    Returns
    -------
    (Graph, dict)
        The induced graph and the mapping ``original vertex -> new label``.
        Labels follow ascending vertex order, so results are deterministic.
    """
    ordered = sorted(set(vertices))
    for v in ordered:
        graph._check_vertex(v)
    to_new = {v: i for i, v in enumerate(ordered)}
    indptr, indices = graph.csr()
    builder = GraphBuilder(len(ordered))
    for v in ordered:
        for w in indices[indptr[v] : indptr[v + 1]]:
            if w > v and w in to_new:
                builder.add_edge(to_new[v], to_new[w])
    return builder.build(), to_new


def quotient_graph(
    graph: Graph,
    cluster_of: Mapping[int, int] | Sequence[int],
    num_clusters: int,
) -> Graph:
    """Contract clusters into supernodes: the paper's supergraph ``G(P)``.

    Parameters
    ----------
    graph:
        The host graph.
    cluster_of:
        The cluster index of every vertex, in ``range(num_clusters)``:
        a per-vertex sequence indexed by vertex (such as a
        :class:`~repro.oracle.hierarchy.CoreLevel`'s ``core_of`` column)
        or a total mapping ``vertex -> cluster index``.  Every vertex of
        ``graph`` must be mapped (the decomposition is a partition of
        ``V``).
    num_clusters:
        Number of supernodes of the result.

    Returns
    -------
    Graph
        Graph on ``num_clusters`` vertices with an edge between two
        clusters iff some original edge crosses them.  Intra-cluster edges
        vanish (no self loops).

    With numpy enabled (:func:`~repro.graphs._kernel.numpy_enabled`) the
    CSR entries are mapped to their endpoints' labels in bulk, and the
    crossing pairs sorted and deduplicated straight into the result's
    CSR buffers; the buffers and errors are the builder path's.
    """
    n = graph.num_vertices
    if len(cluster_of) != n:
        raise GraphError(f"cluster_of must map every vertex: got {len(cluster_of)} of {n}")
    if isinstance(cluster_of, Mapping):
        try:
            cluster_of = [cluster_of[v] for v in range(n)]
        except KeyError:
            missing = next(v for v in range(n) if v not in cluster_of)
            raise GraphError(f"cluster_of must map every vertex: {missing} is missing") from None
    if _kernel.numpy_enabled():
        return _quotient_numpy(graph, cluster_of, num_clusters)
    builder = GraphBuilder(num_clusters)
    for u, v in graph.edges():
        cu, cv = cluster_of[u], cluster_of[v]
        if not 0 <= cu < num_clusters or not 0 <= cv < num_clusters:
            raise GraphError(f"cluster index out of range on edge ({u}, {v})")
        if cu != cv:
            builder.add_edge(cu, cv)
    return builder.build()


def _quotient_numpy(graph: Graph, cluster_of: Sequence[int], num_clusters: int) -> Graph:
    """:func:`quotient_graph` over the CSR entries, sorted keys ``cu · C + cv``."""
    np = _kernel._np
    n = graph.num_vertices
    indptr, indices = graph._numpy_csr()
    labels = np.asarray(cluster_of, dtype=np.int64)
    degree = np.diff(indptr)
    invalid = (labels < 0) | (labels >= num_clusters)
    if invalid.any():
        # The first offending edge in graph.edges() order (u < v, CSR order).
        owner = np.repeat(np.arange(n), degree)
        offending = (invalid[owner] | invalid[indices]) & (owner < indices)
        if offending.any():
            at = int(offending.argmax())
            raise GraphError(
                f"cluster index out of range on edge ({int(owner[at])}, {int(indices[at])})"
            )
    cu, cv = np.repeat(labels, degree), labels[indices]
    stride = max(num_clusters, 1)
    crossing = cu != cv
    keys = cu[crossing] * stride + cv[crossing]
    keys.sort()
    keys = keys[_kernel.run_heads(keys)]
    heads, tails = np.divmod(keys, stride)
    offsets = np.zeros(num_clusters + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=num_clusters), out=offsets[1:])
    return Graph._from_csr(
        num_clusters,
        _kernel.as_long_array(offsets),
        _kernel.as_long_array(tails),
        len(keys) // 2,
    )


def relabel(graph: Graph, permutation: Sequence[int]) -> Graph:
    """Return a copy of ``graph`` with vertex ``v`` renamed ``permutation[v]``.

    ``permutation`` must be a permutation of ``range(n)``.  Useful for
    testing label-invariance of the algorithms (the paper's algorithm uses
    no IDs for clustering decisions, so its output distribution must be
    invariant under relabelling).
    """
    n = graph.num_vertices
    if sorted(permutation) != list(range(n)):
        raise GraphError("permutation must be a permutation of range(n)")
    builder = GraphBuilder(n)
    for u, v in graph.edges():
        builder.add_edge(permutation[u], permutation[v])
    return builder.build()
