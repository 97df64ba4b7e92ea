"""Distributed Miller–Peng–Xu partition on the synchronous simulator.

One-shot shifted-BFS competition: every vertex injects ``δ_v ~ Exp(β)``
and the network floods shifted values for ``B = max ⌊δ_v⌋`` rounds; each
vertex is assigned to the origin of the largest shifted value it heard
(its own included, so everyone is assigned).

Forwarding modes:

* ``full`` — forward every newly heard value;
* ``topone`` — forward only the current best value.  This suffices for
  assignment: if ``x`` suppresses origin ``o`` because it holds a larger
  shifted value ``m'``, then anything downstream of ``x`` would receive a
  value at least as large as ``o``'s via ``x``'s best, so ``o`` can never
  win downstream of ``x`` — the classical argument MPX's parallel
  implementation rests on.  Messages are then O(1) words per edge per
  round.

Cross-validated bit-for-bit against :func:`repro.baselines.mpx.partition`
(both draw shifts from the ``(seed, "mpx-shift", vertex)`` streams).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, Sequence

from ..core.decomposition import NetworkDecomposition
from ..distributed.message import Message
from ..distributed.metrics import NetworkStats
from ..distributed.node import Context
from ..distributed.phases import DriverRun, PhaseNode
from ..errors import ParameterError, SimulationError
from ..graphs.graph import Graph
from ..rng import DEFAULT_SEED, stream
from .mpx import center_partition, sample_shifts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry import Telemetry

__all__ = ["MPXNodeAlgorithm", "DistributedMPXResult", "partition_distributed"]


class MPXNodeAlgorithm(PhaseNode):
    """Node-local logic of the one-shot MPX competition.

    A single phase of the shared node state machine, without the announce
    round: the node decides — and halts — in network round ``B + 1``.
    """

    def __init__(
        self, vertex: int, seed: int, beta: float, mode: Literal["full", "topone"]
    ) -> None:
        if mode not in ("full", "topone"):
            raise ParameterError(f"mode must be 'full' or 'topone', got {mode!r}")
        super().__init__(vertex, seed)
        self.beta = beta
        self.mode = mode
        self.top = None if mode == "full" else 1
        self.shift = 0.0

    def configure(self, broadcast_rounds: int) -> None:
        """Set the flood length ``B`` (common-knowledge parameter)."""
        self.broadcast_rounds = broadcast_rounds

    def on_start(self, ctx: Context) -> None:
        super().on_start(ctx)
        self.shift = stream(self.seed, "mpx-shift", self.vertex).expovariate(self.beta)
        self.reset_phase(1, self.shift, self.broadcast_rounds)

    def on_round(self, ctx: Context, inbox: Sequence[Message]) -> None:
        self._merge(inbox)
        if ctx.round_number <= self.broadcast_rounds:
            self._forward(ctx)
        if ctx.round_number == self.broadcast_rounds + 1:
            self.center = min(self.entries, key=lambda o: (-self._shifted(o), o))
            ctx.halt()


@dataclass
class DistributedMPXResult:
    """Outcome of a distributed MPX run."""

    decomposition: NetworkDecomposition
    center_of: dict[int, int]
    stats: NetworkStats
    rounds: int
    cut_edges: int
    cut_fraction: float


def partition_distributed(
    graph: Graph,
    beta: float,
    seed: int = DEFAULT_SEED,
    mode: Literal["full", "topone"] = "topone",
    word_budget: int | None = None,
    backend: str = "sync",
    delivery: str = "fifo",
    faults: str | None = None,
    telemetry: "Telemetry | None" = None,
) -> DistributedMPXResult:
    """Run the distributed MPX partition on ``graph`` with rate ``beta``.

    The flood length ``B = max ⌊δ_v⌋`` is computed by the driver from the
    shared shift streams (the standard w.h.p. bound is
    ``O(log n / β)``); the run then takes ``B + 1`` rounds.
    ``backend="batch"`` runs the identical competition on the columnar
    round engine (:func:`repro.engine.mpx.run_mpx_batch`) — bit-identical
    assignment and stats.  ``backend="async"`` runs it on the
    α-synchronized asynchronous engine under a ``delivery`` schedule and
    optional ``faults`` plan (``docs/async.md``); note the one-shot
    competition requires every vertex to decide, so a fault plan that
    crashes a node through its decision round raises
    :class:`~repro.errors.SimulationError` naming the undecided vertices
    — use drop faults (a vertex always holds its own entry).
    ``telemetry`` (or the ambient trace) enables the run span and the
    ``mpx.rounds`` metrics stream.
    """
    if beta <= 0:
        raise ParameterError(f"beta must be positive, got {beta}")
    if mode not in ("full", "topone"):
        raise ParameterError(f"mode must be 'full' or 'topone', got {mode!r}")
    run = DriverRun(
        "mpx", graph, seed, word_budget, backend, delivery, faults, telemetry,
        mode=mode,
    )
    n = graph.num_vertices
    shifts = sample_shifts(graph, beta, seed)
    budget = max((math.floor(s) for s in shifts.values()), default=0)
    with run.span("partition", mode=mode, n=n) as run_span:
        if backend == "batch":
            from ..engine.mpx import run_mpx_batch

            center_of, stats = run_mpx_batch(
                graph, shifts, budget, mode, word_budget, rounds=run.rounds,
                causal=run.causal,
            )
        else:
            algorithms = [MPXNodeAlgorithm(v, seed, beta, mode) for v in range(n)]
            for algorithm in algorithms:
                algorithm.configure(budget)
            network = run.network(algorithms)
            network.start()
            network.run_rounds(budget + 1)
            network.finish_rounds()
            stats = network.stats
            undecided = [v for v in range(n) if algorithms[v].center is None]
            if undecided:
                raise SimulationError(
                    f"MPX vertices {undecided} never decided: every vertex must "
                    f"reach decision round {budget + 1}, but faults={faults!r} "
                    "crashed them through it"
                )
            center_of = {v: algorithms[v].center for v in range(n)}
        if run_span is not None:
            run_span.add("rounds", budget + 1)
    if run_span is not None:
        run.tel.histogram("mpx.partition_seconds").record(run_span.seconds)
    decomposition, cut, fraction = center_partition(graph, center_of)
    return DistributedMPXResult(
        decomposition=decomposition,
        center_of=center_of,
        stats=stats,
        rounds=budget + 1,
        cut_edges=cut,
        cut_fraction=fraction,
    )
