"""CONGEST enforcement and causal tracing, across engines (satellite coverage).

Two simulator-level guarantees:

* a ``word_budget`` violation raises :class:`CongestViolation` in the
  **exact** round the offending flush happens — not a round late, not at
  the end of the run — and :class:`SyncNetwork`, the FIFO
  :class:`AsyncNetwork` and the batch engine report the identical round
  (in fact the identical message, offending edge included);
* an attached causal log sees a consistent stream: delivered-message
  counts match ``messages_delivered`` one-for-one, every edge goes
  forward in time within the run's bounds, halt rows match the halted
  set — and the FIFO async engine logs the *same* rows as the reference.
"""

from __future__ import annotations

import re

import pytest

from repro.core.distributed_en import decompose_distributed
from repro.distributed import AsyncNetwork, Context, NodeAlgorithm, SyncNetwork
from repro.errors import CongestViolation
from repro.graphs import erdos_renyi, path_graph, random_connected, star_graph
from repro.telemetry import Telemetry
from tests.distributed.protocols import (
    BFSTreeNode,
    ConvergecastSumNode,
    FloodNode,
    LeaderElectionNode,
    run_bfs_tree,
)


def _violation_message(fn) -> str | None:
    try:
        fn()
    except CongestViolation as exc:
        return str(exc)
    return None


def _violation_round(message: str) -> int:
    match = re.search(r"in round (\d+)", message)
    assert match, message
    return int(match.group(1))


class TestExactViolationRound:
    def test_sync_network_reports_the_offending_round(self):
        """A node that widens its sends each round must trip the budget in
        exactly the first round its traffic exceeds it."""

        class Widening(NodeAlgorithm):
            def on_round(self, ctx: Context, inbox) -> None:
                # round r sends r one-word messages across each edge
                for _ in range(ctx.round_number):
                    ctx.broadcast(1)

        network = SyncNetwork(path_graph(2), lambda v: Widening(), word_budget=3)
        message = _violation_message(lambda: network.run_rounds(10))
        assert message is not None
        assert _violation_round(message) == 4  # 4 words first exceeds budget 3

    @pytest.mark.parametrize("mode,budget", [("full", 7), ("full", 4), ("toptwo", 7)])
    def test_en_backends_raise_in_the_same_round(self, mode, budget):
        graph = erdos_renyi(60, 0.08, seed=5)
        for seed in (1, 2, 3):
            sync_message = _violation_message(
                lambda: decompose_distributed(
                    graph, k=5, c=8.0, seed=seed, mode=mode, word_budget=budget
                )
            )
            batch_message = _violation_message(
                lambda: decompose_distributed(
                    graph,
                    k=5,
                    c=8.0,
                    seed=seed,
                    mode=mode,
                    word_budget=budget,
                    backend="batch",
                )
            )
            # Not merely the same round: the identical message, offending
            # edge and word count included.
            assert sync_message == batch_message
        assert sync_message is not None
        assert _violation_round(sync_message) >= 2  # a mid-run flush, not round 1

    def test_flood_violates_at_round_zero_on_both_engines(self):
        graph = star_graph(5)

        def run(engine):
            network = engine(graph, lambda v: FloodNode(v, 0), word_budget=1)
            network.run_until_quiet(10)

        sync_message = _violation_message(lambda: run(SyncNetwork))
        async_message = _violation_message(lambda: run(AsyncNetwork))
        assert sync_message == async_message
        assert _violation_round(sync_message) == 0

    def test_leader_election_within_budget_runs_clean(self):
        graph = random_connected(30, 0.08, seed=2)
        for engine in (SyncNetwork, AsyncNetwork):
            # exactly one 2-word message per edge per round
            network = engine(graph, lambda v: LeaderElectionNode(v), word_budget=2)
            network.run_until_quiet(graph.num_vertices + 2)
            assert {network.algorithm(v).leader for v in graph.vertices()} == {0}
            assert network.stats.max_words_per_edge_round == 2


def _causal_run(engine, graph, factory, max_rounds, telemetry=None):
    telemetry = telemetry if telemetry is not None else Telemetry()
    network = engine(graph, factory, causal=telemetry.causal_log("t.causal"))
    network.run_until_quiet(max_rounds)
    return telemetry, network


class TestTraceInvariants:
    GRAPH = random_connected(36, 0.06, seed=4)

    def _traces(self, factory, max_rounds):
        """The causal rows of the sync reference and the FIFO async engine,
        checked against each other and against the reference's stats."""
        reference, network = _causal_run(SyncNetwork, self.GRAPH, factory, max_rounds)
        replica, _ = _causal_run(AsyncNetwork, self.GRAPH, factory, max_rounds)
        assert replica.causal == reference.causal
        stats = network.stats
        messages = [row for row in reference.causal if row["edge"] == "msg"]
        assert sum(row["count"] for row in messages) == stats.messages_delivered
        assert all(
            0 <= row["send_round"] < row["recv_round"] <= stats.rounds
            for row in messages
        )
        halts = sorted(row["node"] for row in reference.causal if row["edge"] == "halt")
        assert halts == [v for v in self.GRAPH.vertices() if network.halted(v)]
        return reference.causal

    def test_flood_trace_identical(self):
        rows = self._traces(lambda v: FloodNode(v, 0), self.GRAPH.num_vertices + 1)
        # the token reaches every vertex of the connected graph along logged edges
        receivers = {row["recv"] for row in rows if row["edge"] == "msg"}
        assert receivers >= set(self.GRAPH.vertices()) - {0}

    def test_bfs_tree_trace_identical(self):
        self._traces(lambda v: BFSTreeNode(v, 0), self.GRAPH.num_vertices + 2)

    def test_leader_trace_identical(self):
        self._traces(lambda v: LeaderElectionNode(v), self.GRAPH.num_vertices + 2)

    def test_convergecast_trace_identical_including_halts(self):
        graph = self.GRAPH
        values = {v: float(v) for v in graph.vertices()}
        parents, _ = run_bfs_tree(graph, 0)
        children = {v: [] for v in parents}
        for v, parent in parents.items():
            if parent >= 0:
                children[parent].append(v)
        rows = self._traces(
            lambda v: ConvergecastSumNode(
                v,
                values.get(v, 0.0) if v in parents else 0.0,
                parents.get(v),
                children.get(v, ()),
            ),
            2 * graph.num_vertices + 4,
        )
        halts = [row["node"] for row in rows if row["edge"] == "halt"]
        # every tree vertex except the root halts, exactly once
        assert sorted(halts) == sorted(
            v for v, parent in parents.items() if parent >= 0
        )

    def test_trace_limit_respected_by_batch_engine(self):
        telemetry = Telemetry(limit=5)
        traced = decompose_distributed(
            self.GRAPH, k=3, seed=2, backend="batch", telemetry=telemetry
        )
        assert len(telemetry.causal) == 5
        assert telemetry.truncated
        untraced = decompose_distributed(self.GRAPH, k=3, seed=2, backend="batch")
        assert traced.stats == untraced.stats
        assert (
            traced.decomposition.cluster_index_map()
            == untraced.decomposition.cluster_index_map()
        )
