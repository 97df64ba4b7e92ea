"""Node-side API of the synchronous message-passing simulator.

A distributed algorithm is written by subclassing :class:`NodeAlgorithm`
and implementing two callbacks:

* :meth:`NodeAlgorithm.on_start` — called once before the first round;
* :meth:`NodeAlgorithm.on_round` — called every round with the messages
  delivered this round (those sent by neighbours in the previous round).

Both receive a :class:`Context`, the node's only handle on the world: its
id, its neighbour list, a private random stream, and ``send`` /
``broadcast`` / ``halt`` operations.  The context deliberately exposes *no*
global information (no graph object, no other nodes' state): any knowledge
an algorithm uses beyond this interface would be cheating the distributed
model.  The number of vertices ``n`` is exposed because both the LOCAL and
CONGEST models assume it is common knowledge (it parameterises the word
size).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Sequence

from ..errors import SimulationError
from .message import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .network import NodeNetwork

__all__ = ["Context", "NodeAlgorithm"]


class Context:
    """A node's handle on the simulated network.

    Instances are created by the engine running the node — a
    :class:`~repro.distributed.network.SyncNetwork` or an
    :class:`~repro.distributed.async_net.AsyncNetwork`, both built on
    :class:`~repro.distributed.network.NodeNetwork` — algorithms never
    construct one.
    """

    __slots__ = ("_network", "_node_id", "_neighbors", "_rng", "_halted")

    def __init__(
        self,
        network: "NodeNetwork",
        node_id: int,
        neighbors: tuple[int, ...],
        rng: random.Random,
    ) -> None:
        self._network = network
        self._node_id = node_id
        self._neighbors = neighbors
        self._rng = rng
        self._halted = False

    # ------------------------------------------------------------------
    # Local knowledge
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> int:
        """This node's identifier (``0..n-1``)."""
        return self._node_id

    @property
    def neighbors(self) -> tuple[int, ...]:
        """Sorted ids of this node's neighbours."""
        return self._neighbors

    @property
    def degree(self) -> int:
        """Number of neighbours."""
        return len(self._neighbors)

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n`` (common knowledge in LOCAL/CONGEST)."""
        return self._network.graph.num_vertices

    @property
    def round_number(self) -> int:
        """Current round (0 during :meth:`NodeAlgorithm.on_start`)."""
        return self._network.current_round

    @property
    def rng(self) -> random.Random:
        """This node's private deterministic random stream."""
        return self._rng

    @property
    def halted(self) -> bool:
        """Whether this node has halted."""
        return self._halted

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    def send(self, to: int, payload: Any) -> None:
        """Send ``payload`` to the neighbour ``to`` (delivered next round)."""
        if self._halted:
            raise SimulationError(f"node {self._node_id} sent after halting")
        if to not in self._neighbors:
            raise SimulationError(
                f"node {self._node_id} tried to send to non-neighbour {to}"
            )
        self._network._enqueue(
            Message.make(self._node_id, to, payload, self.round_number)
        )

    def broadcast(self, payload: Any) -> None:
        """Send ``payload`` to every neighbour."""
        for to in self._neighbors:
            self.send(to, payload)

    def halt(self) -> None:
        """Stop participating: no further callbacks, sends or receives.

        Halting models a vertex leaving the computation — in the paper, a
        vertex that has been carved into a block stops relaying broadcasts
        of later phases.  Messages already in flight *to* a halted node are
        dropped (and counted as sent but not delivered).
        """
        self._halted = True


class NodeAlgorithm:
    """Base class for node-local distributed algorithms.

    Subclasses override :meth:`on_start` and :meth:`on_round`.  The default
    implementations do nothing, so passive relay-only nodes can override
    just one of them.
    """

    def on_start(self, ctx: Context) -> None:
        """Called once, before round 1.  Messages sent here arrive in round 1."""

    def on_round(self, ctx: Context, inbox: Sequence[Message]) -> None:
        """Called each round with the messages delivered this round.

        ``inbox`` is sorted by sender id, so processing order — and hence
        any state the algorithm builds — is deterministic.
        """
