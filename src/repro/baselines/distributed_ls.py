"""Distributed Linial–Saks protocol on the synchronous simulator.

Message-passing implementation of the LS93 weak-diameter decomposition
(see :mod:`repro.baselines.linial_saks` for the algorithm).  The phase
structure mirrors the Elkin–Neiman protocol
(:mod:`repro.core.distributed_en`): ``B_t`` broadcast rounds, one decision
point, one announce round.  Differences:

* broadcasts carry ``(ID, radius, distance)`` and the *ID* is load-bearing
  (minimum-ID wins), unlike Elkin–Neiman where IDs only dedupe;
* radii are integers from the capped geometric distribution, so ``B_t``
  is at most ``k``;
* every newly heard value is forwarded (``full`` mode).  LS93's own
  CONGEST-ness relies on a counting argument we do not replicate; the
  measured per-edge bandwidth of this protocol versus Elkin–Neiman's
  top-two mode is part of experiment E8's story.

Runs are cross-validated against the centralized reference: both draw
radii from the same ``(seed, phase, vertex)`` streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.decomposition import Cluster, NetworkDecomposition
from ..distributed.metrics import NetworkStats
from ..distributed.phases import DriverRun, PhaseNode, PhaseProtocol
from ..errors import ParameterError
from ..graphs.graph import Graph
from ..rng import DEFAULT_SEED
from .linial_saks import sample_ls_phase_radii, sample_ls_radius

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry import Telemetry

__all__ = ["LSNodeAlgorithm", "DistributedLSResult", "decompose_distributed"]


class LSNodeAlgorithm(PhaseNode):
    """Node-local state machine of the Linial–Saks protocol."""

    def __init__(self, vertex: int, seed: int, p: float, k: int) -> None:
        super().__init__(vertex, seed)
        self.p = p
        self.k = k

    def begin_phase(self, phase: int, broadcast_rounds: int) -> None:
        """Arm the node for ``phase`` (control plane, see distributed_en)."""
        radius = sample_ls_radius(self.seed, phase, self.vertex, self.p, self.k)
        self.reset_phase(phase, radius, broadcast_rounds)

    def _decide(self) -> None:
        winner = min(self.entries)  # minimum ID among broadcasts that reached us
        radius, distance = self.entries[winner]
        if distance < radius:
            self.joined_phase = self.phase
            self.center = winner


@dataclass
class DistributedLSResult:
    """Outcome of a distributed Linial–Saks run."""

    decomposition: NetworkDecomposition
    stats: NetworkStats
    phases: int
    rounds_per_phase: list[int] = field(default_factory=list)

    @property
    def total_rounds(self) -> int:
        """Total communication rounds."""
        return sum(self.rounds_per_phase)


def decompose_distributed(
    graph: Graph,
    k: int,
    seed: int = DEFAULT_SEED,
    p: float | None = None,
    adaptive_phase_length: bool = True,
    word_budget: int | None = None,
    max_phases: int | None = None,
    backend: str = "sync",
    delivery: str = "fifo",
    faults: str | None = None,
    telemetry: "Telemetry | None" = None,
) -> DistributedLSResult:
    """Run the distributed LS protocol to completion.

    Parameters mirror :func:`repro.baselines.linial_saks.decompose`;
    ``adaptive_phase_length`` chooses ``B_t = max r_v`` (driver-computed)
    instead of the fixed worst case ``k``.  ``backend="batch"`` runs the
    identical protocol on the columnar round engine
    (:class:`repro.engine.ls.BatchLSPhases`) — bit-identical outputs and
    stats, engine-speed execution.  ``backend="async"`` steps the node
    algorithms on the α-synchronized asynchronous engine under a
    ``delivery`` schedule and optional ``faults`` plan (``docs/async.md``)
    — bit-identical to ``"sync"`` for fault-free FIFO runs.
    ``telemetry`` (or the ambient trace) enables phase spans and the
    ``ls.rounds`` metrics stream.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    n = graph.num_vertices
    if p is None:
        p = float(max(n, 2)) ** (-1.0 / k)
    if not 0.0 < p < 1.0:
        raise ParameterError(f"p must be in (0, 1), got {p}")
    nominal = max(
        1, math.ceil(2.0 * max(n, 2) ** (1.0 / k) * math.log(max(n, 2)) / max(1.0 - p, 1e-9))
    )

    def draw(phase, active):
        radii = sample_ls_phase_radii(seed, phase, active, p, k)
        return radii, max(radii.values(), default=0) if adaptive_phase_length else k

    def batch(rounds, causal):
        from ..engine.ls import BatchLSPhases

        return BatchLSPhases(graph, word_budget, rounds=rounds, causal=causal)

    run = DriverRun(
        "ls", graph, seed, word_budget, backend, delivery, faults, telemetry
    ).run_phases(
        PhaseProtocol(
            attrs={"n": n, "k": k},
            nominal_phases=nominal,
            draw=draw,
            node=lambda v: LSNodeAlgorithm(v, seed, p, k),
            arm=lambda node, phase, budget: node.begin_phase(phase, budget),
            batch=batch,
        ),
        max_phases,
    )
    clusters: list[Cluster] = []
    for color, joined in enumerate(run.joined):
        by_center: dict[int, list[int]] = {}
        for v, center in joined.items():
            by_center.setdefault(center, []).append(v)
        for center in sorted(by_center):
            clusters.append(
                Cluster(
                    index=len(clusters),
                    color=color,
                    vertices=frozenset(by_center[center]),
                    center=center,
                )
            )
    return DistributedLSResult(
        decomposition=NetworkDecomposition(graph, clusters),
        stats=run.stats,
        phases=len(run.joined),
        rounds_per_phase=run.rounds_per_phase,
    )
