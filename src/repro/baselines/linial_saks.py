"""The Linial–Saks weak-diameter network decomposition (baseline).

Linial and Saks ("Decomposing graphs into regions of small diameter",
Combinatorica 1993) gave the classic randomized distributed algorithm
computing a *weak* ``(O(log n), O(log n))`` decomposition in ``O(log² n)``
rounds — for 23 years the only polylogarithmic construction, and the one
whose strong-diameter analogue the Elkin–Neiman paper finally provides.

The construction, as summarised in §1.2 of the paper being reproduced:

* phases carve blocks out of the shrinking graph :math:`G_t`;
* in a phase every live vertex ``v`` draws an integer radius ``r_v`` from a
  capped geometric distribution (``Pr[r = j] = (1−p)pʲ`` for ``j < k``,
  remaining mass on ``k``) with ``p = n^{-1/k}``, and broadcasts its
  **ID** and ``r_v`` to distance ``r_v``;
* a vertex ``x`` considers the broadcasts that reached it
  (``d_{G_t}(x, v) ≤ r_v``) and selects the *minimum-ID* vertex ``v*``
  among them; ``x`` joins the block iff it is strictly inside the ball:
  ``d_{G_t}(x, v*) < r_{v*}``;
* the cluster of ``x`` is the set of vertices that selected the same
  center ``v*``.

Clusters have **weak** diameter ``≤ 2k−2`` (all members sit strictly
inside the center's radius-``≤ k`` ball *in* :math:`G_t`), but are frequently
*disconnected* as induced subgraphs — their strong diameter is unbounded
(infinite).  Experiment E10 measures exactly this.

Same-coloured clusters are never adjacent: if adjacent ``x, y`` joined the
same block with centers ``v_x ≠ v_y`` and ``v_x < v_y``, then ``v_x``'s
ball covers ``y`` too (``d(y, v_x) ≤ d(x, v_x) + 1 ≤ r_{v_x}``), so ``y``'s
minimum-ID selection would have been ``≤ v_x`` — contradiction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..core.decomposition import Cluster, NetworkDecomposition
from ..errors import ParameterError, SimulationError
from ..graphs.activeset import ActiveSet
from ..graphs.graph import Graph
from ..graphs.traversal import bfs_distances_bounded
from ..rng import DEFAULT_SEED, prefix_uniforms, stream

__all__ = ["LSTrace", "sample_ls_radius", "sample_ls_phase_radii", "ls_phase", "decompose"]


@dataclass
class LSTrace:
    """Run record of a Linial–Saks decomposition.

    ``nominal_phases`` is the ``O(n^{1/k}·log n)`` budget within which the
    graph empties in expectation; the driver continues past it if needed
    (``exhausted_within_nominal`` records whether it had to).
    """

    phases: int = 0
    nominal_phases: int = 0
    exhausted_within_nominal: bool = True
    survivors: list[int] = field(default_factory=list)
    block_sizes: list[int] = field(default_factory=list)
    max_radius_per_phase: list[int] = field(default_factory=list)


def sample_ls_radius(seed: int, phase: int, vertex: int, p: float, k: int) -> int:
    """Draw the capped geometric radius of ``vertex`` at ``phase``.

    ``Pr[r = j] = (1 − p)·pʲ`` for ``0 ≤ j < k`` and ``Pr[r = k] = pᵏ``
    (all remaining mass on the cap).  A block member sits strictly inside
    its center's ball, so its distance to the center is ``≤ k − 1`` and
    every cluster has weak diameter ``≤ 2k − 2`` — the same bound the
    paper's strong-diameter algorithm achieves, making the comparison in
    experiment E4 like-for-like.
    """
    _check_geometric(p, k)
    return _capped_geometric(stream(seed, "ls-radius", phase, vertex).random(), p, k)


def sample_ls_phase_radii(
    seed: int, phase: int, vertices: Iterable[int], p: float, k: int
) -> dict[int, int]:
    """Radii for all of ``vertices`` at ``phase`` (one independent draw each).

    Bit-identical to calling :func:`sample_ls_radius` per vertex; the
    ``(seed, "ls-radius", phase)`` streams are drawn through
    :func:`repro.rng.prefix_uniforms`, as
    :func:`repro.core.shifts.sample_phase_radii` draws its own.
    """
    _check_geometric(p, k)
    uniforms = prefix_uniforms(seed, ("ls-radius", phase), vertices)
    return {v: _capped_geometric(u, p, k) for v, u in uniforms}


def _check_geometric(p: float, k: int) -> None:
    if not 0.0 < p < 1.0:
        raise ParameterError(f"p must be in (0, 1), got {p}")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")


def _capped_geometric(u: float, p: float, k: int) -> int:
    """Invert the geometric CDF: the largest ``j ≤ k`` with ``u < pʲ``."""
    radius = 0
    survive = p  # Pr[r > radius] before the cap
    while radius < k and u < survive:
        radius += 1
        survive *= p
    return radius


def ls_phase(
    graph: Graph,
    active: "set[int] | ActiveSet",
    radii: Mapping[int, int],
) -> tuple[set[int], dict[int, int]]:
    """One Linial–Saks phase: block membership and chosen centers.

    Returns ``(block, center_of)`` where ``center_of[x]`` is ``x``'s
    minimum-ID reaching vertex ``v*`` for every ``x`` in the block.
    """
    best_center: dict[int, tuple[int, int]] = {}  # x -> (center id, distance)
    for v in sorted(radii):
        if v not in active:
            raise ParameterError(f"radius given for inactive vertex {v}")
        reach = radii[v]
        for x, distance in bfs_distances_bounded(graph, v, reach, active=active).items():
            # Minimum ID wins; sorted iteration means the first writer is
            # the smallest ID, so never overwrite.
            if x not in best_center:
                best_center[x] = (v, distance)
    block: set[int] = set()
    center_of: dict[int, int] = {}
    for x, (center, distance) in best_center.items():
        if distance < radii[center]:
            block.add(x)
            center_of[x] = center
    return block, center_of


def decompose(
    graph: Graph,
    k: int,
    seed: int = DEFAULT_SEED,
    p: float | None = None,
    max_phases: int | None = None,
) -> tuple[NetworkDecomposition, LSTrace]:
    """Compute a weak ``(2k−2, O(n^{1/k}·log n))`` decomposition (LS93).

    Parameters
    ----------
    graph:
        Input graph.
    k:
        Radius parameter (integer, ``k ≥ 1``); radii are capped at ``k``
        and members are strictly inside their center's ball, so every
        cluster has weak diameter at most ``2k − 2``.
    seed:
        Root seed for the per-``(phase, vertex)`` radius streams.
    p:
        Geometric parameter; defaults to ``n^{-1/k}``.
    max_phases:
        Hard safety cap; defaults to ``10 × nominal + 100``.

    Returns
    -------
    (NetworkDecomposition, LSTrace)
        Clusters are *center classes* (not connected components!) so the
        result faithfully exhibits the weak-diameter behaviour; colour =
        phase − 1.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    n = graph.num_vertices
    if p is None:
        p = float(max(n, 2)) ** (-1.0 / k)
    if not 0.0 < p < 1.0:
        raise ParameterError(f"p must be in (0, 1), got {p}")
    nominal = max(1, math.ceil(2.0 * max(n, 2) ** (1.0 / k) * math.log(max(n, 2)) / max(1.0 - p, 1e-9)))
    if max_phases is None:
        max_phases = 10 * nominal + 100
    active = ActiveSet.full(graph.num_vertices)
    trace = LSTrace(nominal_phases=nominal)
    clusters: list[Cluster] = []
    phase = 0
    while active:
        phase += 1
        if phase > max_phases:
            raise SimulationError(
                f"LS did not exhaust the graph within {max_phases} phases"
            )
        radii = sample_ls_phase_radii(seed, phase, active, p, k)
        block, center_of = ls_phase(graph, active, radii)
        by_center: dict[int, list[int]] = {}
        for x, center in center_of.items():
            by_center.setdefault(center, []).append(x)
        for center in sorted(by_center):
            clusters.append(
                Cluster(
                    index=len(clusters),
                    color=phase - 1,
                    vertices=frozenset(by_center[center]),
                    center=center,
                )
            )
        active -= block
        trace.survivors.append(len(active))
        trace.block_sizes.append(len(block))
        trace.max_radius_per_phase.append(max(radii.values(), default=0))
    trace.phases = phase
    trace.exhausted_within_nominal = phase <= nominal
    return NetworkDecomposition(graph, clusters), trace
