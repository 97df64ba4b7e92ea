"""The round books every engine shares.

``SyncNetwork``, ``AsyncNetwork`` and ``BatchEngine`` all extend
:class:`~repro.distributed.metrics.RoundBooks`, which accepts ``None`` or
an ``int >= 1`` as the CONGEST word budget and rejects anything else at
construction — a NaN or infinite budget would otherwise switch policing
off silently, and a string would fail only inside the first flush.  The
node-algorithm engines book halts from their pruned live list, once per
node, in ascending order, including halts in ``on_start``.
"""

from __future__ import annotations

import pytest

from repro.core.distributed_en import decompose_distributed
from repro.distributed import AsyncNetwork, NodeAlgorithm, SyncNetwork
from repro.distributed.metrics import RoundBooks
from repro.engine import BatchEngine
from repro.errors import CongestViolation, ParameterError
from repro.graphs import cycle_graph, erdos_renyi, path_graph
from repro.telemetry import Telemetry

BAD_BUDGETS = [float("nan"), float("inf"), "3", 0, -1, 2.5, True, False, 4.0]

ENGINES = {
    "sync": lambda graph, budget: SyncNetwork(
        graph, lambda v: NodeAlgorithm(), word_budget=budget
    ),
    "async": lambda graph, budget: AsyncNetwork(
        graph, lambda v: NodeAlgorithm(), word_budget=budget
    ),
    "batch": lambda graph, budget: BatchEngine(graph, word_budget=budget),
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("budget", BAD_BUDGETS, ids=repr)
def test_constructors_reject_bad_budgets(engine, budget):
    with pytest.raises(ParameterError, match="word_budget"):
        ENGINES[engine](path_graph(3), budget)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("budget", [None, 1, 4])
def test_constructors_accept_none_and_positive_ints(engine, budget):
    assert ENGINES[engine](path_graph(3), budget).word_budget == budget


@pytest.mark.parametrize("backend", ["sync", "batch", "async"])
@pytest.mark.parametrize("budget", [float("nan"), float("inf"), "3", 0])
def test_driver_rejects_bad_budget_on_every_backend(backend, budget):
    graph = erdos_renyi(60, 0.1, seed=1)
    with pytest.raises(ParameterError, match="word_budget"):
        decompose_distributed(graph, k=3, seed=2, word_budget=budget, backend=backend)


def test_budget_check_counts_traffic_before_raising():
    books = RoundBooks(path_graph(3), word_budget=4)
    books.begin_round()
    with pytest.raises(CongestViolation) as info:
        books.account_sends(3, 12, 8, (0, 1), senders=2)
    assert str(info.value) == "edge (0, 1) carried 8 words in round 1, budget is 4"
    assert (books.stats.messages_sent, books.stats.words_sent) == (3, 12)
    assert books.stats.max_words_per_edge_round == 8


class Staggered(NodeAlgorithm):
    """Node 4 halts in ``on_start``; odd nodes halt in round 1, even in 2."""

    def __init__(self, vertex: int) -> None:
        self.vertex = vertex

    def on_start(self, ctx) -> None:
        if self.vertex == 4:
            ctx.halt()
        else:
            ctx.broadcast(self.vertex)

    def on_round(self, ctx, inbox) -> None:
        if ctx.round_number == 2 - self.vertex % 2:
            ctx.halt()
        else:
            ctx.broadcast(self.vertex)


@pytest.mark.parametrize("engine", [SyncNetwork, AsyncNetwork])
def test_halts_booked_once_in_ascending_order(engine):
    telemetry = Telemetry()
    network = engine(
        cycle_graph(6),
        Staggered,
        rounds=telemetry.round_stream("net.rounds"),
        causal=telemetry.causal_log("net.causal"),
    )
    network.run_rounds(3)
    halts = [(r["round"], r["node"]) for r in telemetry.causal if r["edge"] == "halt"]
    assert halts == [(0, 4), (1, 1), (1, 3), (1, 5), (2, 0), (2, 2)]
    assert [(r["round"], r["halts"], r["live"]) for r in telemetry.rounds] == [
        (0, 1, 5), (1, 3, 2), (2, 2, 0), (3, 0, 0),
    ]
    assert network.all_halted
