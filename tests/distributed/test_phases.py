"""The driver harness shared by the distributed EN / LS / MPX protocols.

Covers :mod:`repro.distributed.phases` directly — the one backend check,
the :class:`PhaseNode` broadcast/decide/announce state machine and its
:class:`NodePhases` executor — and through the three drivers: the phase
loop's spans, histogram and guard, the root-span attributes, and that a
full trace collector never changes a run.
"""

from __future__ import annotations

import pytest

from repro.baselines.distributed_ls import decompose_distributed as ls_decompose
from repro.baselines.distributed_mpx import partition_distributed
from repro.core.distributed_en import decompose_distributed as en_decompose
from repro.distributed import SyncNetwork
from repro.distributed.async_net import live_networks
from repro.distributed.phases import NodePhases, PhaseNode, check_backend
from repro.errors import ParameterError, SimulationError
from repro.graphs import erdos_renyi, path_graph, star_graph
from repro.telemetry import Telemetry

DRIVERS = {
    "en": lambda graph, **kwargs: en_decompose(graph, k=3, **kwargs),
    "ls": lambda graph, **kwargs: ls_decompose(graph, k=3, **kwargs),
    "mpx": lambda graph, **kwargs: partition_distributed(graph, beta=0.5, **kwargs),
}

GRAPH = erdos_renyi(24, 0.2, seed=5)
BACKENDS = ("sync", "batch", "async")
PHASED = ("en", "ls")  # the drivers that run the phase loop
ROOT_SPAN = {"en": "en.decompose", "ls": "ls.decompose", "mpx": "mpx.partition"}


def _outcome(run):
    return run.decomposition.cluster_index_map(), run.stats


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "delivery,faults",
    [(None, None), ("fifo", None), (None, ""), ("fifo", "none")],
    ids=["defaults", "fifo", "empty-faults", "none-faults"],
)
def test_every_spelling_of_no_adversary_is_accepted(backend, delivery, faults):
    check_backend(backend, delivery, faults)


@pytest.mark.parametrize("backend", ["gpu", "Sync", "", "async "])
def test_check_backend_rejects_unknown_backends(backend):
    with pytest.raises(ParameterError, match="backend must be"):
        check_backend(backend, None, None)


def test_check_backend_leaves_adversary_specs_to_the_async_engine():
    # The async engine parses (and rejects) its own specs.
    check_backend("async", "random:2", "crash:1@2-4;drop:0.1")


@pytest.mark.parametrize("algo", sorted(DRIVERS))
def test_every_driver_rejects_an_unknown_backend(algo):
    with pytest.raises(ParameterError, match="backend must be"):
        DRIVERS[algo](GRAPH, backend="gpu")


@pytest.mark.parametrize("algo", sorted(DRIVERS))
@pytest.mark.parametrize("backend", ["sync", "batch"])
@pytest.mark.parametrize(
    "adversary",
    [{"delivery": "random:2"}, {"faults": "drop:0.1"}, {"faults": "crash:1@2-4"}],
    ids=["delivery", "drop", "crash"],
)
def test_adversaries_need_the_async_backend(algo, backend, adversary):
    with pytest.raises(ParameterError, match="need backend='async'"):
        DRIVERS[algo](GRAPH, backend=backend, **adversary)


@pytest.mark.parametrize("algo", sorted(DRIVERS))
def test_no_delivery_spec_means_fifo_on_every_backend(algo):
    reference = DRIVERS[algo](GRAPH, seed=2)
    for backend in ("sync", "batch", "async"):
        run = DRIVERS[algo](GRAPH, seed=2, backend=backend, delivery=None)
        assert run.stats == reference.stats
        assert (
            run.decomposition.cluster_index_map()
            == reference.decomposition.cluster_index_map()
        )


def test_mpx_crash_through_the_decision_round_is_a_typed_error():
    with pytest.raises(SimulationError, match=r"vertices \[3\].*crash:3@1-"):
        partition_distributed(
            GRAPH, beta=0.4, seed=3, backend="async", faults="crash:3@1-"
        )


def test_mpx_crash_before_the_decision_round_still_assigns_everyone():
    result = partition_distributed(
        GRAPH, beta=0.4, seed=3, backend="async", faults="crash:3@1-2"
    )
    assert sorted(result.center_of) == list(range(GRAPH.num_vertices))


class _Fixed(PhaseNode):
    """A phase node with preset radii that joins its best shifted origin."""

    def __init__(self, vertex, radii, top=None, joiners=None):
        super().__init__(vertex, seed=0)
        self.radii, self.top, self.joiners = radii, top, joiners

    def _decide(self):
        if self.joiners is None or self.vertex in self.joiners:
            self.joined_phase = self.phase
            self.center = max(self.entries, key=lambda o: (self._shifted(o), -o))


def _arm(node, phase, budget):
    node.reset_phase(phase, node.radii[node.vertex], budget)


def _executor(graph, radii, **kwargs):
    network = SyncNetwork(graph, lambda v: _Fixed(v, radii, **kwargs))
    return network, NodePhases(network, _arm)


class TestPhaseNode:
    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.7, 4.0, 5.9])
    def test_a_value_travels_floor_radius_hops(self, radius):
        graph = path_graph(7)
        radii = {v: 0.1 for v in graph.vertices()}  # too short to leave home
        radii[0] = radius
        network, executor = _executor(graph, radii)
        executor.run_phase(1, 5, radii)
        reach = int(radius)
        for v in graph.vertices():
            entries = network.algorithm(v).entries
            if 0 < v <= reach:
                assert entries[0] == (radius, v)
            elif v > reach:
                assert 0 not in entries

    @pytest.mark.parametrize("top", [1, 2, 3, None])
    def test_top_k_forwarding_relays_only_the_k_largest_values(self, top):
        graph = star_graph(6)  # hub 0, leaves 1..5
        radii = {0: 0.1, 1: 2.1, 2: 2.2, 3: 2.3, 4: 2.4, 5: 2.5}
        network, executor = _executor(graph, radii, top=top)
        executor.run_phase(1, 2, radii)
        relayed = sorted(range(1, 6), key=lambda v: -radii[v])[: top or 5]
        for leaf in range(1, 6):
            heard = set(network.algorithm(leaf).entries) - {leaf}
            assert heard == set(relayed) - {leaf}
        # one own value per leaf, the relays, then one `left` per edge end
        assert executor.stats.messages_sent == 5 + 5 * len(relayed) + 10

    def test_only_this_phases_joiners_are_returned_and_they_halt(self):
        graph = path_graph(6)
        radii = {v: 1.5 for v in graph.vertices()}
        first = {0, 2, 5}
        network, executor = _executor(graph, radii, joiners=first)
        assert set(executor.run_phase(1, 1, radii)) == first
        assert [network.halted(v) for v in graph.vertices()] == [
            v in first for v in graph.vertices()
        ]
        survivors = {v: radii[v] for v in graph.vertices() if v not in first}
        for v in survivors:
            network.algorithm(v).joiners = None
        assert set(executor.run_phase(2, 1, survivors)) == set(survivors)
        # the joiners' `left` announcements pruned them from their
        # neighbours' lists at the start of phase 2
        for v in survivors:
            assert network.algorithm(v).active_neighbors.isdisjoint(first)

    def test_a_phase_takes_budget_plus_two_rounds(self):
        graph = path_graph(4)
        radii = {v: 3.0 for v in graph.vertices()}
        network, executor = _executor(graph, radii, joiners=set())
        for phase, budget in enumerate((3, 0, 2), start=1):
            assert executor.run_phase(phase, budget, radii) == {}
        assert network.stats.rounds == (3 + 2) + (0 + 2) + (2 + 2)


@pytest.mark.parametrize("algo", PHASED)
@pytest.mark.parametrize("backend", BACKENDS)
def test_phase_loop_spans_and_histogram(algo, backend):
    telemetry = Telemetry()
    run = DRIVERS[algo](GRAPH, seed=4, backend=backend, telemetry=telemetry)
    root = next(s for s in telemetry.spans if s["name"] == ROOT_SPAN[algo])
    phases = [s for s in telemetry.spans if s["name"] == "phase"]
    assert [s["path"] for s in phases] == [f"{ROOT_SPAN[algo]}/phase"] * run.phases
    assert [s["attrs"]["phase"] for s in phases] == list(range(1, run.phases + 1))
    assert [s["attrs"]["budget"] + 2 for s in phases] == run.rounds_per_phase
    assert sum(s["counters"]["joined"] for s in phases) == GRAPH.num_vertices
    assert root["counters"] == {"phases": run.phases, "rounds": run.total_rounds}
    assert telemetry.hists[f"{algo}.phase_seconds"].count == run.phases


@pytest.mark.parametrize("algo", PHASED)
@pytest.mark.parametrize("backend", BACKENDS)
def test_max_phases_guard(algo, backend):
    assert DRIVERS[algo](GRAPH, seed=4, backend=backend).phases > 1
    telemetry = Telemetry()
    with pytest.raises(SimulationError, match="not exhausted after 1 phases"):
        DRIVERS[algo](GRAPH, seed=4, backend=backend, max_phases=1, telemetry=telemetry)
    for network in live_networks():
        network.close()  # abandoned by the guard with `left` messages in flight
    root = next(s for s in telemetry.spans if s["name"] == ROOT_SPAN[algo])
    assert root["status"] == "error"


@pytest.mark.parametrize("algo", sorted(DRIVERS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_root_span_and_stream_wiring(algo, backend):
    telemetry = Telemetry()
    DRIVERS[algo](GRAPH, seed=4, backend=backend, telemetry=telemetry)
    (root,) = [s for s in telemetry.spans if s["depth"] == 0]
    assert root["name"] == ROOT_SPAN[algo]
    assert root["attrs"]["backend"] == backend
    if backend == "async":
        # the replay key and the adversary counters
        assert root["attrs"]["delivery"] == "fifo"
        assert root["attrs"]["faults"] == "none"
        assert root["attrs"]["delayed"] == 0
    else:
        assert "delivery" not in root["attrs"] and "delayed" not in root["attrs"]
    assert telemetry.rounds
    assert {(r["stream"], r["backend"]) for r in telemetry.rounds} == {
        (f"{algo}.rounds", backend)
    }
    assert {r["stream"] for r in telemetry.causal} == {f"{algo}.causal"}


@pytest.mark.parametrize("algo", sorted(DRIVERS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_a_full_trace_collector_never_changes_the_run(algo, backend):
    telemetry = Telemetry(limit=1)
    traced = DRIVERS[algo](GRAPH, seed=6, backend=backend, telemetry=telemetry)
    assert telemetry.truncated
    assert _outcome(traced) == _outcome(DRIVERS[algo](GRAPH, seed=6, backend=backend))
