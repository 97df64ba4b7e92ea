"""The α-synchronizer: synchronous algorithms on an asynchronous network.

Awerbuch's α-synchronizer lets an unmodified synchronous algorithm run
on an asynchronous network: every message is tagged with its sender's
pulse number, each node acknowledges what it receives, and a node
generates pulse ``p + 1`` only once it is *safe* — all of its pulse-``p``
messages have been delivered and all neighbours report the same.  The
logical round structure is therefore preserved exactly; what asynchrony
moves is *physical time*: when each node's pulse fires, and in what
order a pulse's messages arrive.

:class:`AlphaSynchronizer` is that safety rule, centralised: it keeps
one virtual clock per node and computes, for each pulse, when every node
becomes safe —

``ready(v, p) = max(clock(v) + 1,  max over relevant neighbours u of
clock(u) + 1,  latest arrival among v's pulse-p messages)``

— the first term is v's own pulse turnaround, the second models the
one-hop *safe* notices of the neighbours (a node cannot outrun its
neighbourhood by more than the message-delay bound), the last waits for
the actual traffic the delivery :class:`~repro.distributed.schedule
.Schedule` delayed.  Nodes execute each pulse in ``(ready, id)`` order,
so a schedule visibly reorders execution, and the spread of ready times
is the pulse's clock *skew*.  Crashed or halted neighbours are exempt
from the safety wait: the engine plays the role of a perfect failure
detector (a real α-synchronizer would need one bolted on, or it
deadlocks — see ``docs/async.md``).

Under the FIFO schedule every delay is zero, all ready times coincide at
``p``, and the execution order degenerates to ascending node id — which
is why a fault-free FIFO :class:`~repro.distributed.async_net
.AsyncNetwork` run is bit-identical to
:class:`~repro.distributed.network.SyncNetwork` (the equivalence the
``tests/distributed/test_schedule_properties.py`` harness pins).

Drivers construct their engine through
:class:`repro.distributed.phases.DriverRun`, so ``backend="async"`` is
one keyword away from the reference simulator.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..graphs.graph import Graph

__all__ = ["AlphaSynchronizer"]


class AlphaSynchronizer:
    """Per-node virtual clocks + the pulse safety rule (module docstring)."""

    __slots__ = ("graph", "clocks", "max_skew")

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        #: Virtual time at which each node generated its latest pulse.
        self.clocks = [0.0] * graph.num_vertices
        #: Largest within-pulse spread of ready times seen so far.
        self.max_skew = 0.0

    def ready_times(
        self,
        pulse: int,
        executing: Sequence[int],
        arrivals: "dict[int, float]",
        waived: Callable[[int], bool],
    ) -> list[tuple[float, int]]:
        """``(ready, v)`` for every executing node, sorted (execution order).

        ``arrivals`` maps each node to the latest arrival time among its
        pulse-``pulse`` messages; ``waived(u)`` is true for neighbours
        whose safe notice is not awaited (halted or crashed — the
        perfect-failure-detector exemption).  Updates the clocks and the
        skew high-water mark as a side effect.
        """
        order: list[tuple[float, int]] = []
        clocks = self.clocks
        for v in executing:
            ready = clocks[v] + 1.0
            for u in self.graph.neighbors(v):
                if not waived(u):
                    safe = clocks[u] + 1.0
                    if safe > ready:
                        ready = safe
            arrived = arrivals.get(v)
            if arrived is not None and arrived > ready:
                ready = arrived
            order.append((ready, v))
        order.sort()
        for ready, v in order:
            clocks[v] = ready
        if order:
            skew = order[-1][0] - order[0][0]
            if skew > self.max_skew:
                self.max_skew = skew
        return order

    def clock(self, v: int) -> float:
        """Node ``v``'s virtual clock (time of its latest pulse)."""
        return self.clocks[v]

