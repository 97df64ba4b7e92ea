"""The batch engine's two flood epochs and the reference engine, compared.

``backend="batch"`` runs :class:`~repro.engine.numpy_flood.NumpyFlood`
when the numpy kernel is enabled and
:class:`~repro.engine.broadcast.ShiftedFlood` under ``REPRO_KERNEL=py``.
On random small graphs — isolated vertices, a trailing isolated vertex
and disconnected graphs included — both epochs and ``backend="sync"``
must give the same cluster maps, per-phase round counts and
:class:`NetworkStats`, or the same :class:`CongestViolation` text under a
random ``word_budget`` — and so must ``backend="async"`` under the FIFO
schedule with no faults; traced, the two epochs must emit the same
round-stream rows and causal log.  Run directly on tied values, the two
epochs must leave the same decision summaries.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import distributed_ls, distributed_mpx
from repro.core.distributed_en import decompose_distributed
from repro.engine.broadcast import LiveTopology, ShiftedFlood, flood_epoch
from repro.engine.core import BatchEngine
from repro.engine.numpy_flood import NumpyFlood
from repro.errors import CongestViolation
from repro.graphs import Graph, _kernel, gnp_fast
from repro.telemetry import Telemetry
from tests.core.test_properties import graphs

pytestmark = pytest.mark.skipif(
    not _kernel.numpy_enabled(), reason="numpy kernel inactive"
)

#: ``(protocol, forwarding mode, adaptive phase length)``.
PROTOCOLS = [
    ("en", "toptwo", True),
    ("en", "toptwo", False),
    ("en", "full", True),
    ("en", "full", False),
    ("ls", "full", True),
    ("ls", "full", False),
    ("mpx", "topone", None),
    ("mpx", "full", None),
]


@contextmanager
def _kernel_numpy(enabled: bool):
    saved = _kernel.USE_NUMPY
    _kernel.USE_NUMPY = enabled
    try:
        assert flood_epoch() is (NumpyFlood if enabled else ShiftedFlood)
        yield
    finally:
        _kernel.USE_NUMPY = saved


def _run(protocol, graph, seed, backend, word_budget=None, telemetry=None):
    name, mode, adaptive = protocol
    common = dict(seed=seed, backend=backend, word_budget=word_budget, telemetry=telemetry)
    if name == "en":
        result = decompose_distributed(
            graph, k=3, mode=mode, adaptive_phase_length=adaptive, **common
        )
    elif name == "ls":
        result = distributed_ls.decompose_distributed(
            graph, k=3, adaptive_phase_length=adaptive, **common
        )
    else:
        result = distributed_mpx.partition_distributed(
            graph, beta=0.4, mode=mode, **common
        )
        return result.center_of, [result.rounds], result.stats
    return (
        result.decomposition.cluster_index_map(),
        result.rounds_per_phase,
        result.stats,
    )


def _outcome(protocol, graph, seed, backend, word_budget):
    try:
        return _run(protocol, graph, seed, backend, word_budget)
    except CongestViolation as exc:
        return f"CongestViolation: {exc}"


@pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: "-".join(map(str, p)))
@given(
    graph=graphs(),
    seed=st.integers(min_value=0, max_value=10_000),
    word_budget=st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
)
@example(graph=Graph(5, [(1, 2), (3, 4)]), seed=1, word_budget=None)
@example(graph=Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)]), seed=2, word_budget=None)
@example(graph=Graph(4, [(0, 1), (1, 2), (0, 2)]), seed=3, word_budget=4)
@settings(max_examples=40, deadline=None)
def test_epochs_match_each_other_and_sync(protocol, graph, seed, word_budget):
    with _kernel_numpy(True):
        vectorised = _outcome(protocol, graph, seed, "batch", word_budget)
    with _kernel_numpy(False):
        python = _outcome(protocol, graph, seed, "batch", word_budget)
    reference = _outcome(protocol, graph, seed, "sync", word_budget)
    assert vectorised == python == reference
    # FIFO async, no faults: the shared books keep the same accounts.
    assert _outcome(protocol, graph, seed, "async", word_budget) == reference


def _epoch_outcome(epoch, graph, values, caps, policy, budget, word_budget):
    engine = BatchEngine(graph, word_budget)
    flood = epoch(engine, LiveTopology(graph), values, caps, policy)
    try:
        flood.run(budget)
    except CongestViolation as exc:
        return f"CongestViolation: {exc}"
    entries = flood.num_entries
    return (
        flood.best_value,
        flood.best_origin,
        flood.second_value,
        flood.min_origin,
        flood.min_shifted,
        entries if policy == "full" else [min(count, 2) for count in entries],
        engine.stats,
    )


@pytest.mark.parametrize("policy", ["full", 1, 2])
@given(graph=graphs(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_epochs_match_on_tied_values(policy, graph, data):
    """Integer-valued radii make exact ties in the shifted values, which
    the protocols' continuous draws almost never do: every tie-break of
    the merge, the slots and the peak sender must agree."""
    values = {
        v: float(data.draw(st.integers(min_value=0, max_value=4)))
        for v in range(graph.num_vertices)
    }
    caps = {v: int(value) for v, value in values.items()}
    budget = data.draw(st.integers(min_value=0, max_value=4))
    word_budget = data.draw(st.one_of(st.none(), st.integers(min_value=1, max_value=12)))
    assert _epoch_outcome(
        NumpyFlood, graph, values, caps, policy, budget, word_budget
    ) == _epoch_outcome(ShiftedFlood, graph, values, caps, policy, budget, word_budget)


@pytest.mark.parametrize("protocol", PROTOCOLS[::2], ids=lambda p: "-".join(map(str, p)))
def test_traced_rows_identical_across_epochs(protocol):
    # A trailing isolated vertex keeps the empty-row paths honest.
    graph = gnp_fast(60, 0.05, seed=8)
    assert graph.degree(graph.num_vertices - 1) == 0
    traces = []
    for enabled in (True, False):
        telemetry = Telemetry()
        with _kernel_numpy(enabled):
            _run(protocol, graph, 7, "batch", telemetry=telemetry)
        traces.append((telemetry.rounds, telemetry.causal))
    assert traces[0][0] and traces[0][1]  # rows and provenance were recorded
    assert traces[0] == traces[1]
