"""Schedule-equivalence properties of the asynchronous engine.

Three contracts, asserted for EN/LS/MPX across seeded schedules
(``docs/async.md``):

(a) **sync equivalence** — a fault-free FIFO async run is bit-identical
    to the synchronous reference: same decomposition, same
    ``NetworkStats``, same phase/round structure;
(b) **replay determinism** — rerunning the same
    ``(seed, delivery, faults)`` triple reproduces the run byte for
    byte, including the adversary counters and the fault event log;
(c) **order-obliviousness** — permuting delivery within the delay bound
    (any schedule, fault-free) never changes the decomposition: the
    protocols' per-round merges are commutative, so the α-synchronizer's
    logical rounds fully determine the outcome.

The causal log (:mod:`repro.telemetry.causality`) extends (b) and (c):
replaying a ``(seed, spec)`` pair reproduces the causal provenance
byte for byte, and the Lamport timestamps — a pure function of the
logical dependency structure — are invariant under every fault-free
delivery permutation.
"""

from __future__ import annotations

import pytest

from repro.baselines import distributed_ls, distributed_mpx
from repro.core.distributed_en import decompose_distributed
from repro.distributed import AsyncNetwork, SyncNetwork
from repro.graphs import erdos_renyi
from repro.telemetry import Telemetry, lamport_timestamps
from tests.distributed.protocols import FloodNode

SEEDS = (3, 11, 29)
SCHEDULES = ("fifo", "random:3", "random:2:geom", "latest:3", "starve:2:0.5")
ALGOS = ("en", "ls", "mpx")


def _run(algo: str, graph, seed: int, **kwargs):
    """``(cluster map, stats, structure)`` for one driver run."""
    if algo == "en":
        result = decompose_distributed(graph, k=3, seed=seed, **kwargs)
        structure = (result.phases, tuple(result.rounds_per_phase))
    elif algo == "ls":
        result = distributed_ls.decompose_distributed(graph, k=3, seed=seed, **kwargs)
        structure = (result.phases, tuple(result.rounds_per_phase))
    else:
        result = distributed_mpx.partition_distributed(
            graph, beta=0.4, seed=seed, **kwargs
        )
        structure = (result.rounds,)
    return result.decomposition.cluster_index_map(), result.stats, structure


@pytest.fixture(params=SEEDS, ids=lambda s: f"seed{s}")
def seeded_graph(request):
    return request.param, erdos_renyi(32, 0.15, seed=request.param)


@pytest.mark.parametrize("algo", ALGOS)
def test_fault_free_fifo_matches_sync_bit_for_bit(algo, seeded_graph):
    seed, graph = seeded_graph
    reference = _run(algo, graph, seed)
    fifo = _run(algo, graph, seed, backend="async")
    assert fifo == reference  # decomposition, NetworkStats, structure


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("delivery", SCHEDULES[1:])
def test_delivery_permutation_never_changes_decomposition(
    algo, delivery, seeded_graph
):
    seed, graph = seeded_graph
    reference_map, _, _ = _run(algo, graph, seed)
    adversarial_map, _, _ = _run(
        algo, graph, seed, backend="async", delivery=delivery
    )
    assert adversarial_map == reference_map


@pytest.mark.parametrize(
    "delivery,faults",
    [
        ("random:3", None),
        ("latest:2", "drop:0.05"),
        ("random:2", "crash:4@2-7;redeliver"),
        ("starve:2:0.5", "drop:0.03;crash:2@3-6"),
    ],
)
def test_replay_of_same_seed_and_spec_is_byte_identical(delivery, faults):
    graph = erdos_renyi(32, 0.15, seed=7)

    def run_once():
        telemetry = Telemetry()
        result = decompose_distributed(
            graph,
            k=3,
            seed=11,
            backend="async",
            delivery=delivery,
            faults=faults,
            telemetry=telemetry,
        )
        span = next(s for s in telemetry.spans if s["name"] == "en.decompose")
        return (
            result.decomposition.cluster_index_map(),
            result.stats,
            result.phases,
            tuple(result.rounds_per_phase),
            span["attrs"],
        )

    assert run_once() == run_once()


def test_replay_reproduces_fault_log_event_for_event():
    graph = erdos_renyi(24, 0.2, seed=5)

    def run_once():
        net = AsyncNetwork(
            graph,
            lambda v: FloodNode(v, 0),
            seed=13,
            delivery="random:2",
            faults="drop:0.1;crash:3@2-5;redeliver",
        )
        net.run_rounds(8)
        net.close()  # flooding may leave re-broadcasts in flight
        return net.fault_plan.log, net.async_stats

    log_a, stats_a = run_once()
    log_b, stats_b = run_once()
    assert log_a == log_b
    assert stats_a == stats_b
    assert log_a  # the plan actually fired


@pytest.mark.parametrize("delivery", SCHEDULES)
def test_round_streams_identical_to_sync_on_fifo_only(delivery):
    """FIFO async round streams are row-identical to sync (modulo the
    ``backend`` attribute); adversarial runs add the extras columns."""
    graph = erdos_renyi(32, 0.15, seed=3)

    def rows(backend, **kwargs):
        telemetry = Telemetry()
        decompose_distributed(
            graph, k=3, seed=3, backend=backend, telemetry=telemetry, **kwargs
        )
        stripped = []
        for record in telemetry.rounds:
            record = dict(record)
            record.pop("backend", None)
            stripped.append(record)
        return stripped

    async_rows = rows("async", delivery=delivery)
    if delivery == "fifo":
        assert async_rows == rows("sync")
    else:
        assert all("delayed" in record for record in async_rows)
        assert sum(record["delayed"] for record in async_rows) > 0


def _causal_log(algo: str, graph, seed: int, **kwargs) -> list[dict]:
    telemetry = Telemetry()
    _run(algo, graph, seed, telemetry=telemetry, **kwargs)
    return telemetry.causal


@pytest.mark.parametrize(
    "delivery,faults",
    [
        ("random:3", None),
        ("latest:2", "drop:0.05"),
        ("random:2", "crash:4@2-7;redeliver"),
        ("starve:2:0.5", "drop:0.03;crash:2@3-6"),
    ],
)
def test_causal_log_replay_is_byte_identical(delivery, faults):
    graph = erdos_renyi(32, 0.15, seed=7)
    first = _causal_log(
        "en", graph, 11, backend="async", delivery=delivery, faults=faults
    )
    second = _causal_log(
        "en", graph, 11, backend="async", delivery=delivery, faults=faults
    )
    assert first  # the run actually recorded provenance
    assert first == second


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("delivery", SCHEDULES)
def test_lamport_order_invariant_under_delivery_permutation(
    algo, delivery, seeded_graph
):
    """The Lamport clocks are a pure function of the logical dependency
    structure, so every fault-free schedule — which only permutes
    physical delivery within the α-synchronizer's logical rounds —
    yields the same timestamps as the synchronous reference."""
    seed, graph = seeded_graph
    reference = lamport_timestamps(_causal_log(algo, graph, seed))
    permuted = lamport_timestamps(
        _causal_log(algo, graph, seed, backend="async", delivery=delivery)
    )
    assert reference  # non-empty: every node has at least a halt event
    assert permuted == reference


def test_fifo_causal_log_identical_to_sync():
    graph = erdos_renyi(24, 0.2, seed=9)
    logs = []
    for engine in (SyncNetwork, AsyncNetwork):
        telemetry = Telemetry()
        net = engine(
            graph,
            lambda v: FloodNode(v, 0),
            seed=4,
            causal=telemetry.causal_log("flood.causal"),
        )
        net.run_until_quiet()
        logs.append(telemetry.causal)
    assert logs[0]  # the flood actually recorded provenance
    assert logs[0] == logs[1]
