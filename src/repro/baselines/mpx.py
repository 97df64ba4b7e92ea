"""Miller–Peng–Xu exponential-shift padded partition (technique origin).

Miller, Peng and Xu ("Parallel graph decompositions using random shifts",
SPAA 2013) introduced the shifted-shortest-path construction that the
Elkin–Neiman paper adapts: every vertex ``u`` draws ``δ_u ~ Exp(β)`` and
every vertex ``y`` is assigned to the center

.. math::  \\operatorname*{argmax}_u \\; (δ_u − d(y, u)).

This produces a *partition* (every vertex assigned, single shot, no
phases) with two guarantees:

* **strong diameter**: every cluster is connected with radius
  ``O(log n / β)`` w.h.p. — if ``y`` is assigned to ``u``, so is every
  vertex on a shortest ``u→y`` path (a strict inequality version of the
  paper's Claim 3);
* **padding**: each edge is cut (endpoints in different clusters) with
  probability ``O(β)``, so the expected cut fraction is ``O(β)``.

Unlike a network decomposition there is no colour bound — the point of
the Elkin–Neiman paper is precisely to convert this machinery into one.
Experiment E11 measures both guarantees.

The implementation runs one multi-source shifted BFS (a Dijkstra over
fractional keys ``d(y, u) − δ_u``), which is also the PRAM-style reference
the distributed version (:mod:`repro.baselines.distributed_mpx`) is
validated against.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from ..core.decomposition import Cluster, NetworkDecomposition
from ..errors import ParameterError
from ..graphs.graph import Graph
from ..rng import DEFAULT_SEED, prefix_uniforms

__all__ = ["MPXResult", "sample_shifts", "partition"]


@dataclass
class MPXResult:
    """Outcome of one MPX partition.

    Attributes
    ----------
    decomposition:
        The partition wrapped as a :class:`NetworkDecomposition` in which
        every cluster gets its own colour (MPX promises no colour bound).
    center_of:
        ``vertex -> center`` assignment.
    shifts:
        The exponential shifts ``δ_u`` used.
    cut_edges:
        Number of edges whose endpoints landed in different clusters.
    cut_fraction:
        ``cut_edges / m`` (0 when the graph has no edges) — the padding
        quantity bounded by ``O(β)``.
    """

    decomposition: NetworkDecomposition
    center_of: dict[int, int]
    shifts: dict[int, float]
    cut_edges: int
    cut_fraction: float


def sample_shifts(graph: Graph, beta: float, seed: int = DEFAULT_SEED) -> dict[int, float]:
    """Draw ``δ_u ~ Exp(beta)`` for every vertex, from named streams.

    Bit-identical to ``stream(seed, "mpx-shift", u).expovariate(beta)``
    per vertex (each node's own draw), with the streams drawn through
    :func:`repro.rng.prefix_uniforms` and
    :meth:`random.Random.expovariate` inlined.
    """
    if beta <= 0:
        raise ParameterError(f"beta must be positive, got {beta}")
    log = math.log
    uniforms = prefix_uniforms(seed, ("mpx-shift",), graph.vertices())
    return {u: -log(1.0 - x) / beta for u, x in uniforms}


def partition(
    graph: Graph,
    beta: float,
    seed: int = DEFAULT_SEED,
    shifts: dict[int, float] | None = None,
) -> MPXResult:
    """Compute the MPX partition of ``graph`` with rate ``beta``.

    Parameters
    ----------
    graph:
        Input graph (need not be connected; each component partitions
        independently).
    beta:
        Exponential rate; smaller β ⇒ fewer, larger clusters and fewer cut
        edges.  Must satisfy ``β > 0`` (the paper's regime is ``β ≤ 1/2``).
    seed:
        Seed for the shift streams (ignored when ``shifts`` is given).
    shifts:
        Optional pre-drawn shifts (used by tests and the distributed
        cross-check).

    Notes
    -----
    Assignment key is ``(d(y, u) − δ_u)`` minimised via a Dijkstra with
    fractional start keys ``−δ_u``; ties (measure zero) break toward the
    smaller center id, then smaller vertex id, so the result is fully
    deterministic given the shifts.
    """
    if shifts is None:
        shifts = sample_shifts(graph, beta, seed)
    # Dijkstra over keys d(y, u) - delta_u, all vertices start as sources.
    best_key: dict[int, float] = {}
    center_of: dict[int, int] = {}
    heap: list[tuple[float, int, int]] = []
    for u in graph.vertices():
        key = -shifts[u]
        best_key[u] = key
        center_of[u] = u
        heapq.heappush(heap, (key, u, u))
    settled: set[int] = set()
    while heap:
        key, center, y = heapq.heappop(heap)
        if y in settled:
            continue
        if key > best_key[y] or (key == best_key[y] and center > center_of[y]):
            continue
        settled.add(y)
        center_of[y] = center
        for w in graph.neighbors(y):
            if w in settled:
                continue
            candidate = key + 1.0
            if candidate < best_key[w] or (
                candidate == best_key[w] and center < center_of[w]
            ):
                best_key[w] = candidate
                center_of[w] = center
                heapq.heappush(heap, (candidate, center, w))
    # Group into clusters; each cluster gets its own colour.
    by_center: dict[int, list[int]] = {}
    for y, center in center_of.items():
        by_center.setdefault(center, []).append(y)
    clusters = [
        Cluster(index=i, color=i, vertices=frozenset(by_center[center]), center=center)
        for i, center in enumerate(sorted(by_center))
    ]
    decomposition = NetworkDecomposition(graph, clusters)
    cut = sum(1 for u, v in graph.edges() if center_of[u] != center_of[v])
    fraction = cut / graph.num_edges if graph.num_edges else 0.0
    return MPXResult(
        decomposition=decomposition,
        center_of=center_of,
        shifts=shifts,
        cut_edges=cut,
        cut_fraction=fraction,
    )
