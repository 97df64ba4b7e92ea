"""The paper's literal naive algorithm: collect / solve / disseminate.

§1.1 narrates the application recipe as: *"The naive algorithm collects
the entire cluster's topology into a central vertex, solves the problem
locally, and disseminates the solution to all vertices of the given
cluster."*  This module implements that exact protocol (the flooding
scheduler in :mod:`repro.applications.scheduling` is the symmetric
variant), as a second independent implementation to cross-validate:

Per colour phase, with diameter bound ``D`` (common knowledge):

* step 1 — boundary exchange: every vertex announces its decision state;
* steps 2..D+2 — the cluster leader floods a BFS-tree token through the
  cluster; members record parent and depth;
* steps D+3..2D+2 — convergecast: a member at depth ``δ`` sends its
  aggregated records to its parent at step ``D+3+(D−δ)``, so parents
  always hear all children first;
* step 2D+3 — the leader solves the cluster subproblem canonically;
* steps 2D+4..3D+3 — the solution is disseminated down the tree.

Total: ``χ·(3D+4)`` rounds — the same ``O(D·χ)`` as the paper claims,
with a ~3× constant against the flooding scheduler (measured in the E9
benchmark family).  Requires connected clusters (strong diameter): the
whole point of the paper.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from ..core.decomposition import NetworkDecomposition
from ..distributed.message import Message
from ..distributed.network import SyncNetwork
from ..distributed.node import Context, NodeAlgorithm
from ..errors import DecompositionError, ParameterError
from ..graphs.graph import Graph
from ..rng import DEFAULT_SEED
from .scheduling import AppRunResult, ClusterTask

__all__ = ["LeaderCollectNode", "run_leader_collect_app"]

_HELLO = "hello"
_STATE = "state"
_TREE = "tree"
_UP = "up"
_DOWN = "down"


class LeaderCollectNode(NodeAlgorithm):
    """One vertex of the collect-at-leader protocol."""

    def __init__(
        self,
        vertex: int,
        cluster_index: int,
        color: int,
        is_leader: bool,
        task: ClusterTask,
        color_order: Sequence[int],
        diameter: int,
    ) -> None:
        if diameter < 0:
            raise ParameterError(f"diameter must be >= 0, got {diameter}")
        self.vertex = vertex
        self.cluster_index = cluster_index
        self.color = color
        self.is_leader = is_leader
        self.task = task
        self.color_order = list(color_order)
        self.diameter = diameter
        self.phase_length = 3 * diameter + 4
        self.decision: Any = None
        self.decided = False
        self.neighbor_cluster: dict[int, int] = {}
        self.cluster_neighbors: tuple[int, ...] = ()
        # Per-phase protocol state.
        self._neighbor_states: dict[int, Any] = {}
        self._parent: int | None = None
        self._depth: int | None = None
        self._records: dict[int, tuple[tuple[int, ...], Any]] = {}
        self._sent_up = False

    # ------------------------------------------------------------------
    def on_start(self, ctx: Context) -> None:
        ctx.broadcast((_HELLO, self.cluster_index, self.color))

    def on_round(self, ctx: Context, inbox: Sequence[Message]) -> None:
        phase_index = (ctx.round_number - 1) // self.phase_length
        step = (ctx.round_number - 1) % self.phase_length + 1
        if phase_index >= len(self.color_order):
            return
        mine = self.color == self.color_order[phase_index] and not self.decided
        tree_arrivals: list[tuple[int, int]] = []
        down_decisions: dict[int, Any] | None = None
        for message in inbox:
            payload = message.payload
            tag = payload[0]
            if tag == _HELLO:
                self.neighbor_cluster[message.sender] = payload[1]
            elif tag == _STATE:
                self._neighbor_states[message.sender] = payload[1]
            elif tag == _TREE and mine and payload[1] == self.cluster_index:
                tree_arrivals.append((message.sender, payload[2]))
            elif tag == _UP and mine and payload[1] == self.cluster_index:
                for vertex, nbrs, summary in payload[2]:
                    self._records[vertex] = (tuple(nbrs), summary)
            elif tag == _DOWN and mine and payload[1] == self.cluster_index:
                if message.sender == self._parent:
                    down_decisions = dict(payload[2])

        if step == 1:
            self._begin_phase()
            ctx.broadcast((_STATE, self.task.boundary_payload(self.decision)))
            return
        if not mine:
            return
        if step == 2:
            if not self.cluster_neighbors and self.neighbor_cluster:
                self.cluster_neighbors = tuple(
                    sorted(
                        w
                        for w, cluster in self.neighbor_cluster.items()
                        if cluster == self.cluster_index
                    )
                )
            summary = self.task.boundary_summary(self._neighbor_states)
            self._records[self.vertex] = (self.cluster_neighbors, summary)
            if self.is_leader:
                self._parent = -1
                self._depth = 0
                for neighbor in self.cluster_neighbors:
                    ctx.send(neighbor, (_TREE, self.cluster_index, 1))
            return
        if step <= self.diameter + 2:
            if self._parent is None and tree_arrivals:
                sender, depth = min(tree_arrivals, key=lambda pair: pair[0])
                self._parent = sender
                self._depth = depth
                for neighbor in self.cluster_neighbors:
                    if neighbor != sender:
                        ctx.send(neighbor, (_TREE, self.cluster_index, depth + 1))
        # Convergecast: depth delta sends at step D+3+(D-delta).
        if (
            not self._sent_up
            and not self.is_leader
            and self._parent is not None
            and self._depth is not None
            and step == self.diameter + 3 + (self.diameter - self._depth)
        ):
            self._sent_up = True
            bundle = tuple(
                (vertex, record[0], record[1])
                for vertex, record in sorted(self._records.items())
            )
            ctx.send(self._parent, (_UP, self.cluster_index, bundle))
        if self.is_leader and step == 2 * self.diameter + 3:
            decisions = self.task.solve(self._records)
            self.decision = decisions.get(self.vertex)
            self.decided = True
            payload = (_DOWN, self.cluster_index, tuple(sorted(decisions.items())))
            for neighbor in self.cluster_neighbors:
                ctx.send(neighbor, payload)
        if down_decisions is not None and not self.decided:
            self.decision = down_decisions.get(self.vertex)
            self.decided = True
            payload = (_DOWN, self.cluster_index, tuple(sorted(down_decisions.items())))
            for neighbor in self.cluster_neighbors:
                if neighbor != self._parent:
                    ctx.send(neighbor, payload)

    # ------------------------------------------------------------------
    def _begin_phase(self) -> None:
        self._neighbor_states = {}
        self._parent = None
        self._depth = None
        self._records = {}
        self._sent_up = False


def run_leader_collect_app(
    graph: Graph,
    decomposition: NetworkDecomposition,
    task_factory,
    seed: int = DEFAULT_SEED,
    diameter_override: int | None = None,
) -> AppRunResult:
    """Run a :class:`ClusterTask` with the paper's collect-at-leader recipe.

    Same contract as :func:`repro.applications.scheduling.run_scheduled_app`
    but leader-based and strong-diameter-only; runs exactly
    ``χ·(3D + 4)`` rounds.
    """
    if diameter_override is not None:
        diameter = float(diameter_override)
    else:
        diameter = decomposition.max_strong_diameter()
    if math.isinf(diameter):
        raise DecompositionError(
            "leader-collect needs connected clusters (strong diameter)"
        )
    diameter_int = int(diameter)
    color_order = decomposition.colors
    algorithms = []
    for v in graph.vertices():
        cluster = decomposition.cluster_of(v)
        algorithms.append(
            LeaderCollectNode(
                vertex=v,
                cluster_index=cluster.index,
                color=cluster.color,
                is_leader=(v == cluster.leader),
                task=task_factory(),
                color_order=color_order,
                diameter=diameter_int,
            )
        )
    network = SyncNetwork(graph, algorithms, seed=seed)
    network.start()
    phase_length = 3 * diameter_int + 4
    total_rounds = len(color_order) * phase_length
    network.run_rounds(total_rounds)
    decisions: dict[int, Any] = {}
    for v in graph.vertices():
        algorithm = network.algorithm(v)
        assert isinstance(algorithm, LeaderCollectNode)
        if not algorithm.decided:
            raise DecompositionError(f"vertex {v} never decided (protocol bug?)")
        decisions[v] = algorithm.decision
    return AppRunResult(
        decisions=decisions,
        rounds=total_rounds,
        stats=network.stats,
        phase_length=phase_length,
        num_color_phases=len(color_order),
        diameter_used=diameter_int,
        relay_messages_nonmember=0,
    )
