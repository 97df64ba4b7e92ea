"""The distributed Elkin–Neiman protocol on the synchronous simulator.

This is the paper's algorithm as an actual message-passing protocol.  Each
phase ``t`` has ``B_t + 2`` rounds:

* rounds ``1..B_t``: *broadcast* — every live vertex injects its radius
  ``r_v`` and forwards received radii one hop per round, carrying the
  origin's radius and the hop distance (``O(1)`` words);
* end of round ``B_t + 1``: every vertex has heard every broadcast within
  range (a distance-``d`` value arrives in round ``d + 1``) and applies the
  join rule ``m₁ − m₂ > 1`` locally;
* round ``B_t + 2``: joiners announce ``left`` to their neighbours and
  halt; survivors prune their neighbour lists and start phase ``t + 1``.

Two forwarding modes implement the paper's two message-size regimes:

* ``mode="full"`` forwards every newly arrived value — simple, but a
  vertex may relay many values in one round (LOCAL-style bandwidth);
* ``mode="toptwo"`` forwards only the two largest shifted values from its
  list, the paper's CONGEST optimisation (§2, end): "the third and onward
  values in v's list will not be used by any other vertex".  Messages are
  then ``O(1)`` words per edge per round.

Phase length ``B_t``:

* ``adaptive`` (default): ``B_t = max_v ⌊r_v⌋`` over live vertices,
  computed by the driver from the shared radius streams.  This reproduces
  the paper's idealised unbounded broadcast exactly, so the run is
  bit-identical to the centralized reference
  (:func:`repro.core.elkin_neiman.decompose` with ``use_range_cap=False``).
* ``fixed``: ``B_t = ⌊k⌋``, the budget Lemma 1 makes sufficient w.h.p.;
  broadcasts that would outrun it (probability ``≤ 2/c`` in total) are
  truncated.  Matches the centralized reference with ``use_range_cap=True``.

Radii are drawn from streams keyed by ``(seed, phase, vertex)`` — each node
derives its own radius from common knowledge (the seed) plus local identity,
with no communication.  The driver re-derives the same values for
bookkeeping (phase lengths, truncation events); it never tells the nodes
anything they could not know.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal

from ..distributed.metrics import NetworkStats
from ..distributed.phases import DriverRun, PhaseNode, PhaseProtocol
from ..errors import ParameterError
from ..graphs.graph import Graph
from ..rng import DEFAULT_SEED
from .decomposition import NetworkDecomposition
from .params import PhaseSchedule, Theorem1Schedule
from .shifts import TruncationEvent, find_truncation_events, sample_phase_radii, sample_radius

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry import Telemetry

__all__ = ["ENNodeAlgorithm", "DistributedRunResult", "decompose_distributed"]

ForwardMode = Literal["full", "toptwo"]


class ENNodeAlgorithm(PhaseNode):
    """Node-local state machine of the Elkin–Neiman protocol.

    The driver calls :meth:`begin_phase` between phases (phase boundaries
    are common knowledge in a synchronous network); everything else happens
    through messages.
    """

    def __init__(self, vertex: int, seed: int, mode: ForwardMode) -> None:
        if mode not in ("full", "toptwo"):
            raise ParameterError(f"mode must be 'full' or 'toptwo', got {mode!r}")
        super().__init__(vertex, seed)
        self.mode: ForwardMode = mode
        self.top = None if mode == "full" else 2

    def begin_phase(self, phase: int, beta: float, broadcast_rounds: int) -> None:
        """Arm the node for phase ``phase`` with rate ``beta``.

        ``broadcast_rounds`` is the phase's broadcast budget ``B_t``
        (``⌊k⌋`` in fixed mode; the global max range in adaptive mode).
        The node draws its radius from the shared stream — the same value
        the centralized reference uses.
        """
        radius = sample_radius(self.seed, phase, self.vertex, beta)
        self.reset_phase(phase, radius, broadcast_rounds)

    def _decide(self) -> None:
        best = -math.inf
        best_origin = -1
        second = -math.inf
        for origin, (radius, distance) in self.entries.items():
            value = radius - distance
            if value > best or (value == best and origin < best_origin):
                if best_origin != -1:
                    second = max(second, best)
                best, best_origin = value, origin
            else:
                second = max(second, value)
        if len(self.entries) == 1:
            second = 0.0
        if best - second > 1.0:
            self.joined_phase = self.phase
            self.center = best_origin


@dataclass
class DistributedRunResult:
    """Everything a distributed run produced.

    Attributes
    ----------
    decomposition:
        The strong-diameter network decomposition (colour = phase − 1).
    stats:
        Communication costs (rounds, messages, words, peak words per edge
        per round — the CONGEST figure of merit).
    phases:
        Number of phases executed.
    rounds_per_phase:
        ``B_t + 2`` for each phase.
    nominal_phases:
        The schedule's promised budget.
    exhausted_within_nominal:
        Whether the run finished within it (Corollary 7 event).
    truncation_events:
        Lemma-1 bad events observed (empty w.p. ``≥ 1 − 2/c``).
    """

    decomposition: NetworkDecomposition
    stats: NetworkStats
    phases: int
    rounds_per_phase: list[int]
    nominal_phases: int
    exhausted_within_nominal: bool
    truncation_events: list[TruncationEvent] = field(default_factory=list)

    @property
    def total_rounds(self) -> int:
        """Total communication rounds across all phases."""
        return sum(self.rounds_per_phase)


def decompose_distributed(
    graph: Graph,
    k: float | None = None,
    c: float = 4.0,
    schedule: PhaseSchedule | None = None,
    seed: int = DEFAULT_SEED,
    mode: ForwardMode = "toptwo",
    adaptive_phase_length: bool = True,
    word_budget: int | None = None,
    max_phases: int | None = None,
    backend: str = "sync",
    delivery: str = "fifo",
    faults: str | None = None,
    telemetry: "Telemetry | None" = None,
) -> DistributedRunResult:
    """Run the distributed protocol to completion on ``graph``.

    Parameters
    ----------
    graph:
        Communication topology (also the graph being decomposed).
    k, c:
        Theorem 1 parameters, used when ``schedule`` is not given.
    schedule:
        Explicit phase schedule (pass a
        :class:`~repro.core.params.Theorem2Schedule` /
        :class:`~repro.core.params.Theorem3Schedule` to run those variants
        distributedly).
    seed:
        Root seed shared by nodes and driver.
    mode:
        ``"toptwo"`` (paper's CONGEST optimisation, default) or ``"full"``.
    adaptive_phase_length:
        See the module docstring; ``True`` matches the uncapped centralized
        reference exactly, ``False`` uses the paper's fixed ``⌊k⌋`` budget.
    word_budget:
        Optional per-edge-per-round word cap; the engine raises
        :class:`~repro.errors.CongestViolation` when exceeded.
    max_phases:
        Hard safety cap (default ``10 × nominal + 100``).
    backend:
        ``"sync"`` (default) steps one :class:`ENNodeAlgorithm` per vertex
        through :class:`SyncNetwork` — the reference implementation.
        ``"batch"`` executes the identical protocol columnarly on the
        batch round engine (:class:`repro.engine.en.BatchENPhases`);
        outputs, round counts and stats are bit-identical, only the
        wall-clock differs (see ``benchmarks/bench_engine.py``).
        ``"async"`` steps the same node algorithms on the α-synchronized
        :class:`~repro.distributed.async_net.AsyncNetwork` — bit-identical
        to ``"sync"`` under the default FIFO delivery with no faults
        (``docs/async.md``).
    delivery:
        Delivery-schedule spec for ``backend="async"``
        (:mod:`repro.distributed.schedule`): ``"fifo"`` (default),
        ``"random:B"``, ``"latest:B"``, ``"starve:B[:F]"``.
    faults:
        Fault-plan spec for ``backend="async"``
        (:mod:`repro.distributed.faults`), e.g.
        ``"crash:3@2-6;drop:0.05"``; ``None`` for a fault-free run.
    telemetry:
        Explicit :class:`~repro.telemetry.Telemetry` collector, or
        ``None`` to use the ambient one (``--trace`` /
        ``REPRO_TELEMETRY``).  When enabled the run emits phase spans
        and the ``en.rounds`` per-round metrics stream — identically
        keyed on both backends.

    Returns
    -------
    DistributedRunResult
    """
    if mode not in ("full", "toptwo"):
        raise ParameterError(f"mode must be 'full' or 'toptwo', got {mode!r}")
    if schedule is None:
        if k is None:
            raise ParameterError("either k or an explicit schedule is required")
        schedule = Theorem1Schedule(n=max(graph.num_vertices, 1), k=k, c=c)
    truncations: list[TruncationEvent] = []

    def draw(phase, active):
        # Driver-side rederivation of the radii (control plane bookkeeping
        # only — each node draws its own value from the same stream; the
        # batch executor consumes these exact values).
        radii = sample_phase_radii(seed, phase, active, schedule.beta(phase))
        truncations.extend(
            find_truncation_events(radii, phase, getattr(schedule, "k", math.inf))
        )
        if adaptive_phase_length:
            return radii, max((math.floor(r) for r in radii.values()), default=0)
        return radii, schedule.range_cap(phase)

    def batch(rounds, causal):
        from ..engine.en import BatchENPhases

        return BatchENPhases(graph, mode, word_budget, rounds=rounds, causal=causal)

    run = DriverRun(
        "en", graph, seed, word_budget, backend, delivery, faults, telemetry,
        mode=mode,
    ).run_phases(
        PhaseProtocol(
            attrs={"mode": mode, "n": graph.num_vertices},
            nominal_phases=schedule.nominal_phases,
            draw=draw,
            node=lambda v: ENNodeAlgorithm(v, seed, mode),
            arm=lambda node, phase, budget: node.begin_phase(
                phase, schedule.beta(phase), budget
            ),
            batch=batch,
        ),
        max_phases,
    )
    centers = {v: center for joined in run.joined for v, center in joined.items()}
    blocks = [sorted(joined) for joined in run.joined]
    phases = len(run.joined)
    return DistributedRunResult(
        decomposition=NetworkDecomposition.from_blocks(graph, blocks, centers),
        stats=run.stats,
        phases=phases,
        rounds_per_phase=run.rounds_per_phase,
        nominal_phases=schedule.nominal_phases,
        exhausted_within_nominal=phases <= schedule.nominal_phases,
        truncation_events=truncations,
    )
