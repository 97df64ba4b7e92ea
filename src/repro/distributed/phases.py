"""The driver harness of the distributed decomposition protocols.

The paper's protocol (§2) and its Linial–Saks baseline share one phase
shape: ``B_t`` broadcast rounds, a local decision, then an announce
round in which joiners tell their neighbours and halt.  The
Miller–Peng–Xu partition is the one-shot case.  :class:`DriverRun` owns
what their drivers have in common: backend validation
(:func:`check_backend`), the node-algorithm engine
(:class:`~repro.distributed.network.SyncNetwork` or the α-synchronized
:class:`~repro.distributed.async_net.AsyncNetwork`), the
``<name>.rounds`` round stream and ``<name>.causal`` log, the root span
with the async replay key and adversary counters, and — for EN and LS —
the phase loop (:meth:`DriverRun.run_phases`).

A phase protocol supplies only its radius/budget draw, its node
algorithm — a :class:`PhaseNode` with its own radius and decision rule —
and its batch executor (:class:`PhaseProtocol`); its driver assembles
clusters from the per-phase joiners.  Every executor —
:class:`NodePhases`, :class:`~repro.engine.en.BatchENPhases` and
:class:`~repro.engine.ls.BatchLSPhases` — offers
``run_phase(phase, budget, radii) -> {joiner: center}``, ``stats`` and
``finish()``, so the loop never branches on the protocol it serves.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from ..errors import ParameterError, SimulationError
from ..graphs.activeset import ActiveSet
from ..graphs.graph import Graph
from ..telemetry import maybe_span, resolve
from .async_net import AsyncNetwork
from .message import Message
from .metrics import NetworkStats
from .network import SyncNetwork
from .node import Context, NodeAlgorithm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry import Telemetry

__all__ = [
    "DriverRun",
    "NodePhases",
    "PhaseNode",
    "PhaseProtocol",
    "PhaseRun",
    "check_backend",
]


def check_backend(backend: str, delivery, faults) -> None:
    """Reject an unknown ``backend``, or an adversary it cannot run.

    Delivery schedules and fault plans need the asynchronous engine;
    silently ignoring one would make a run look robust without testing
    anything.  ``delivery=None`` is the FIFO default on every backend.
    """
    if backend not in ("sync", "batch", "async"):
        raise ParameterError(
            f"backend must be 'sync', 'batch' or 'async', got {backend!r}"
        )
    if backend != "async" and (
        delivery not in (None, "fifo") or faults not in (None, "", "none")
    ):
        raise ParameterError(
            "delivery schedules and fault plans need backend='async' "
            f"(got backend={backend!r} with delivery={delivery!r}, faults={faults!r})"
        )


_BCAST = "b"
_LEFT = "left"


class PhaseNode(NodeAlgorithm):
    """Node side of the phase shape: broadcast, decide, announce.

    Each phase has ``B_t + 2`` rounds: ``B_t`` rounds forwarding
    ``(origin, radius, distance)`` values — a value may take a hop while
    ``distance + 1 <= ⌊radius⌋`` — a decision at the end of round
    ``B_t + 1``, and in round ``B_t + 2`` joiners tell their live
    neighbours they ``left`` and halt.  A subclass draws its radius and
    calls :meth:`reset_phase` in its ``begin_phase``, and implements
    :meth:`_decide`, which sets ``joined_phase`` and ``center`` when the
    node joins.  ``top`` is the forwarding policy: ``None`` forwards every
    newly improved entry, ``k`` only the ``k`` largest eligible shifted
    values (the paper's CONGEST rule is ``k = 2``).
    """

    top: "int | None" = None

    def __init__(self, vertex: int, seed: int) -> None:
        self.vertex = vertex
        self.seed = seed
        # Lifetime state.
        self.active_neighbors: set[int] | None = None
        self.joined_phase: int | None = None
        self.center: int | None = None
        # Per-phase state.
        self.phase = 0
        self.radius = 0.0
        self.broadcast_rounds = 0
        self.round_in_phase = 0
        self.entries: dict[int, tuple[float, int]] = {}  # origin -> (radius, dist)
        self._new_origins: list[int] = []
        self._sent_origins: set[int] = set()

    def reset_phase(self, phase: int, radius: float, broadcast_rounds: int) -> None:
        """Arm the node for ``phase`` with its own ``radius`` and budget ``B_t``."""
        self.phase = phase
        self.radius = radius
        self.broadcast_rounds = broadcast_rounds
        self.round_in_phase = 0
        self.entries = {self.vertex: (radius, 0)}
        self._new_origins = [self.vertex]
        self._sent_origins = set()

    def on_start(self, ctx: Context) -> None:
        self.active_neighbors = set(ctx.neighbors)

    def on_round(self, ctx: Context, inbox: Sequence[Message]) -> None:
        self.round_in_phase += 1
        self._merge(inbox)
        if self.round_in_phase <= self.broadcast_rounds:
            self._forward(ctx)
        if self.round_in_phase == self.broadcast_rounds + 1:
            self._decide()
        elif self.round_in_phase == self.broadcast_rounds + 2:
            if self.joined_phase == self.phase:
                for neighbor in sorted(self.active_neighbors):
                    ctx.send(neighbor, (_LEFT,))
                ctx.halt()

    def _merge(self, inbox: Sequence[Message]) -> None:
        """Keep each origin's shortest-distance entry; prune ``left`` senders."""
        assert self.active_neighbors is not None
        for message in inbox:
            payload = message.payload
            if payload[0] == _LEFT:
                self.active_neighbors.discard(message.sender)
                continue
            _tag, origin, radius, distance = payload
            known = self.entries.get(origin)
            if known is None or distance < known[1]:
                self.entries[origin] = (radius, distance)
                self._new_origins.append(origin)

    def _eligible(self, origin: int) -> bool:
        """Whether ``origin``'s value may travel one more hop."""
        radius, distance = self.entries[origin]
        return distance + 1 <= math.floor(radius)

    def _shifted(self, origin: int) -> float:
        radius, distance = self.entries[origin]
        return radius - distance

    def _forward(self, ctx: Context) -> None:
        assert self.active_neighbors is not None
        if self.top is None:
            outgoing = [o for o in self._new_origins if self._eligible(o)]
        else:
            eligible = [o for o in self.entries if self._eligible(o)]
            eligible.sort(key=lambda o: (-self._shifted(o), o))
            outgoing = [o for o in eligible[: self.top] if o not in self._sent_origins]
        self._new_origins = []
        for origin in outgoing:
            self._sent_origins.add(origin)
            radius, distance = self.entries[origin]
            for neighbor in sorted(self.active_neighbors):
                ctx.send(neighbor, (_BCAST, origin, radius, distance + 1))

    def _decide(self) -> None:
        raise NotImplementedError


class NodePhases:
    """Phase executor over one :class:`PhaseNode` per vertex.

    ``arm(node, phase, budget)`` prepares a node for a phase (its
    ``begin_phase``).
    """

    def __init__(self, network, arm: Callable) -> None:
        self.network = network
        self._arm = arm
        network.start()

    @property
    def stats(self) -> NetworkStats:
        return self.network.stats

    def finish(self) -> None:
        self.network.finish_rounds()

    def run_phase(self, phase: int, budget: int, radii: Mapping) -> dict[int, int]:
        """Run one phase (``budget + 2`` rounds); returns ``joiner -> center``.

        Nodes draw their own radii, so ``radii`` only names the live
        vertices here.
        """
        network = self.network
        for v in radii:
            self._arm(network.algorithm(v), phase, budget)
        network.run_rounds(budget + 2)
        joined: dict[int, int] = {}
        for v in radii:
            algorithm = network.algorithm(v)
            if algorithm.joined_phase == phase:
                joined[v] = algorithm.center
        return joined


@dataclass(frozen=True)
class PhaseProtocol:
    """What a phase-structured protocol supplies to :meth:`DriverRun.run_phases`."""

    attrs: dict  #: root-span attributes after ``backend``
    nominal_phases: int  #: the default guard is ``10 × nominal_phases + 100``
    #: ``(phase, active) -> (radii, budget)`` for the live vertices
    draw: "Callable[[int, ActiveSet], tuple[Mapping, int]]"
    node: "Callable[[int], PhaseNode]"  #: for the sync and async engines
    arm: Callable  #: ``(node, phase, budget) -> None``, see :class:`NodePhases`
    batch: Callable  #: ``(rounds, causal) -> executor`` for ``backend="batch"``


@dataclass
class PhaseRun:
    """What :meth:`DriverRun.run_phases` hands back to a driver."""

    joined: list[dict[int, int]]  #: per phase: ``joiner -> center``
    rounds_per_phase: list[int]
    stats: NetworkStats


class DriverRun:
    """One driver run: backend, engine and telemetry wiring.

    ``name`` prefixes the stream, log and span names (``en`` gives
    ``en.rounds``, ``en.causal``, ``en.decompose``, ``en.phase_seconds``);
    ``stream_attrs`` label the round stream after ``backend``.
    ``rounds`` and ``causal`` are ``None`` when no trace is active.
    """

    def __init__(
        self,
        name: str,
        graph: Graph,
        seed: int,
        word_budget: "int | None",
        backend: str,
        delivery,
        faults,
        telemetry: "Telemetry | None",
        **stream_attrs,
    ) -> None:
        check_backend(backend, delivery, faults)
        self.name, self.graph, self.seed = name, graph, seed
        self.word_budget, self.backend = word_budget, backend
        self.delivery, self.faults = delivery, faults
        self.tel = tel = resolve(telemetry)
        self.rounds = (
            tel.round_stream(f"{name}.rounds", backend=backend, **stream_attrs)
            if tel is not None
            else None
        )
        self.causal = tel.causal_log(f"{name}.causal") if tel is not None else None
        self._network = None

    def network(self, algorithms):
        """This run's ``"sync"`` or ``"async"`` engine, wired to its stream
        and log; ``algorithms`` is one node algorithm per vertex, or a
        factory."""
        common = dict(
            seed=self.seed, word_budget=self.word_budget,
            rounds=self.rounds, causal=self.causal,
        )
        if self.backend == "sync":
            self._network = SyncNetwork(self.graph, algorithms, **common)
        else:
            self._network = AsyncNetwork(
                self.graph, algorithms, delivery=self.delivery,
                faults=self.faults, **common,
            )
        return self._network

    @contextmanager
    def span(self, verb: str, **attrs):
        """The root span ``<name>.<verb>`` (yields ``None`` when untraced)."""
        attrs = {"backend": self.backend, **attrs}
        if self.backend == "async":
            # The replay key: (seed, delivery, faults) pins the adversary.
            attrs["delivery"] = self.delivery or "fifo"
            attrs["faults"] = self.faults or "none"
        with maybe_span(self.tel, f"{self.name}.{verb}", **attrs) as span:
            yield span
            async_stats = getattr(self._network, "async_stats", None)
            if span is not None and async_stats is not None:
                span.annotate(**async_stats.as_dict())

    def run_phases(self, protocol: PhaseProtocol, max_phases: "int | None") -> PhaseRun:
        """Run ``protocol`` phase by phase until every vertex has joined."""
        if max_phases is None:
            max_phases = 10 * protocol.nominal_phases + 100
        if self.backend == "batch":
            executor = protocol.batch(self.rounds, self.causal)
        else:
            executor = NodePhases(self.network(protocol.node), protocol.arm)
        tel = self.tel
        hist = tel.histogram(f"{self.name}.phase_seconds") if tel is not None else None
        active = ActiveSet.full(self.graph.num_vertices)
        joined_per_phase: list[dict[int, int]] = []
        rounds_per_phase: list[int] = []
        with self.span("decompose", **protocol.attrs) as root:
            while active:
                phase = len(joined_per_phase) + 1
                if phase > max_phases:
                    raise SimulationError(
                        f"{self.name} protocol: graph not exhausted after "
                        f"{max_phases} phases (nominal budget {protocol.nominal_phases})"
                    )
                with maybe_span(tel, "phase", phase=phase) as span:
                    radii, budget = protocol.draw(phase, active)
                    joined = executor.run_phase(phase, budget, radii)
                    if span is not None:
                        span.annotate(budget=budget)
                        span.add("joined", len(joined))
                if span is not None:
                    hist.record(span.seconds)
                rounds_per_phase.append(budget + 2)
                joined_per_phase.append(joined)
                active -= joined.keys()
            executor.finish()
            if root is not None:
                root.add("phases", len(joined_per_phase))
                root.add("rounds", sum(rounds_per_phase))
        return PhaseRun(joined_per_phase, rounds_per_phase, executor.stats)
