"""Textbook distributed primitives that drive the simulators under test.

Standard building blocks of LOCAL/CONGEST algorithmics, implemented as
:class:`~repro.distributed.node.NodeAlgorithm` subclasses with driver
helpers.  No library code calls them — the decomposition protocols in
:mod:`repro.core` run their own phase machines — so they live with the
tests, whose independent answers (BFS distances, sums, minimum ids) keep
the sync and async engines honest.

* :class:`FloodNode` / :func:`run_flood` — broadcast a token from a root;
  every vertex learns it in ``ecc(root)`` rounds.
* :class:`BFSTreeNode` / :func:`run_bfs_tree` — parent/depth layers of a
  BFS tree rooted anywhere.
* :class:`ConvergecastSumNode` / :func:`run_convergecast_sum` — aggregate
  a per-vertex value up a BFS tree to the root (here: sum).
* :class:`LeaderElectionNode` / :func:`run_leader_election` — minimum-id
  election by iterative neighbourhood minima; stabilises in ``diameter``
  rounds per component.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from repro.distributed import Context, Message, NodeAlgorithm, SyncNetwork
from repro.errors import SimulationError
from repro.graphs import Graph

__all__ = [
    "FloodNode",
    "BFSTreeNode",
    "ConvergecastSumNode",
    "LeaderElectionNode",
    "run_flood",
    "run_bfs_tree",
    "run_convergecast_sum",
    "run_leader_election",
]


class FloodNode(NodeAlgorithm):
    """Flood a token from ``root``; record the arrival round."""

    def __init__(self, vertex: int, root: int) -> None:
        self.vertex = vertex
        self.root = root
        self.token: Any = None
        self.heard_at: int | None = None

    def on_start(self, ctx: Context) -> None:
        if self.vertex == self.root:
            self.token = ("flood", self.root)
            self.heard_at = 0
            ctx.broadcast(self.token)

    def on_round(self, ctx: Context, inbox: Sequence[Message]) -> None:
        if self.heard_at is None and inbox:
            self.token = inbox[0].payload
            self.heard_at = ctx.round_number
            ctx.broadcast(self.token)


def run_flood(graph: Graph, root: int, max_rounds: int | None = None) -> dict[int, int]:
    """Flood from ``root``; return ``vertex -> arrival round`` (= distance)."""
    network = SyncNetwork(graph, lambda v: FloodNode(v, root))
    network.run_until_quiet(max_rounds or graph.num_vertices + 1)
    result: dict[int, int] = {}
    for v in graph.vertices():
        node = network.algorithm(v)
        assert isinstance(node, FloodNode)
        if node.heard_at is not None:
            result[v] = node.heard_at
    return result


class BFSTreeNode(NodeAlgorithm):
    """Adopt the first announcer as BFS parent; announce once."""

    def __init__(self, vertex: int, root: int) -> None:
        self.vertex = vertex
        self.root = root
        self.parent: int | None = None
        self.depth: int | None = None
        self.children: list[int] = []

    def on_start(self, ctx: Context) -> None:
        if self.vertex == self.root:
            self.parent = -1
            self.depth = 0
            ctx.broadcast(("bfs", 1))

    def on_round(self, ctx: Context, inbox: Sequence[Message]) -> None:
        for message in inbox:
            tag = message.payload[0]
            if tag == "bfs" and self.depth is None:
                self.parent = message.sender
                self.depth = message.payload[1]
                ctx.send(self.parent, ("child",))
                for neighbor in ctx.neighbors:
                    if neighbor != self.parent:
                        ctx.send(neighbor, ("bfs", self.depth + 1))
            elif tag == "child":
                self.children.append(message.sender)


def run_bfs_tree(
    graph: Graph, root: int, max_rounds: int | None = None
) -> tuple[dict[int, int], dict[int, int]]:
    """Build a BFS tree; return ``(parent_of, depth_of)`` for reached vertices."""
    network = SyncNetwork(graph, lambda v: BFSTreeNode(v, root))
    network.run_until_quiet(max_rounds or graph.num_vertices + 2)
    parents: dict[int, int] = {}
    depths: dict[int, int] = {}
    for v in graph.vertices():
        node = network.algorithm(v)
        assert isinstance(node, BFSTreeNode)
        if node.depth is not None:
            parents[v] = node.parent if node.parent is not None else -1
            depths[v] = node.depth
    return parents, depths


class ConvergecastSumNode(NodeAlgorithm):
    """Sum per-vertex values up a precomputed BFS tree.

    A vertex sends its subtree sum to its parent once all children have
    reported; leaves report immediately.  The root's ``total`` is the
    global sum.
    """

    def __init__(
        self, vertex: int, value: float, parent: int | None, children: Sequence[int]
    ) -> None:
        self.vertex = vertex
        self.value = value
        self.parent = parent
        self.children = list(children)
        self._pending = set(self.children)
        self.total = value
        self.reported = False

    def _maybe_report(self, ctx: Context) -> None:
        if not self._pending and not self.reported:
            self.reported = True
            if self.parent is not None and self.parent >= 0:
                ctx.send(self.parent, ("sum", self.total))
                ctx.halt()

    def on_start(self, ctx: Context) -> None:
        self._maybe_report(ctx)

    def on_round(self, ctx: Context, inbox: Sequence[Message]) -> None:
        for message in inbox:
            if message.payload[0] == "sum":
                self.total += message.payload[1]
                self._pending.discard(message.sender)
        self._maybe_report(ctx)


def run_convergecast_sum(
    graph: Graph, root: int, values: dict[int, float]
) -> float:
    """Sum ``values`` over ``root``'s component via BFS tree + convergecast."""
    parents, depths = run_bfs_tree(graph, root)
    children: dict[int, list[int]] = {v: [] for v in parents}
    for v, parent in parents.items():
        if parent >= 0:
            children[parent].append(v)
    network = SyncNetwork(
        graph,
        lambda v: ConvergecastSumNode(
            v,
            values.get(v, 0.0) if v in parents else 0.0,
            parents.get(v),
            children.get(v, ()),
        ),
    )
    network.run_until_quiet(2 * graph.num_vertices + 4)
    node = network.algorithm(root)
    assert isinstance(node, ConvergecastSumNode)
    if node._pending:
        raise SimulationError("convergecast did not complete")
    return node.total


class LeaderElectionNode(NodeAlgorithm):
    """Minimum-id election by repeated neighbourhood minima."""

    def __init__(self, vertex: int) -> None:
        self.vertex = vertex
        self.leader = vertex

    def on_start(self, ctx: Context) -> None:
        ctx.broadcast(("min", self.leader))

    def on_round(self, ctx: Context, inbox: Sequence[Message]) -> None:
        best = min(
            (message.payload[1] for message in inbox), default=self.leader
        )
        if best < self.leader:
            self.leader = best
            ctx.broadcast(("min", self.leader))


def run_leader_election(graph: Graph, max_rounds: int | None = None) -> dict[int, int]:
    """Elect the minimum id per component; return ``vertex -> leader``."""
    network = SyncNetwork(graph, lambda v: LeaderElectionNode(v))
    network.run_until_quiet(max_rounds or graph.num_vertices + 2)
    result = {}
    for v in graph.vertices():
        node = network.algorithm(v)
        assert isinstance(node, LeaderElectionNode)
        result[v] = node.leader
    return result
