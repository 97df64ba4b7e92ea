"""Permutation-invariance of the columnar broadcast merge.

``ShiftedFlood._deliver`` promises (its docstring) that its streaming
merges are commutative — any permutation of one round's broadcast
records leaves the decision arrays identical.  ``NumpyFlood._deliver``
promises the same of its sort-based merge.  That property is what
the asynchronous engine's adversarial schedules lean on, so it gets a
direct property test here, for both epochs, rather than only an
end-to-end one.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.broadcast import LiveTopology, ShiftedFlood
from repro.engine.core import BatchEngine
from repro.engine.numpy_flood import NumpyFlood
from repro.graphs import _kernel, erdos_renyi
from repro.rng import stream

EPOCHS = [
    ShiftedFlood,
    pytest.param(
        NumpyFlood,
        marks=pytest.mark.skipif(
            not _kernel.numpy_enabled(), reason="numpy kernel inactive"
        ),
    ),
]


def _memory(flood):
    """What the epoch keeps to recognise repeat arrivals."""
    if isinstance(flood, ShiftedFlood):
        return dict(flood.entries)
    if flood.policy == "full":
        return [keys.tolist() for keys in flood._recent]
    return [slot.tolist() for slot in flood._slot_origin + flood._slot_value]


def _decision_state(flood):
    return (
        list(flood.best_value),
        list(flood.best_origin),
        list(flood.second_value),
        list(flood.num_entries),
        list(flood.min_origin),
        list(flood.min_shifted),
        _memory(flood),
    )


def _fresh_flood(graph, policy, epoch=ShiftedFlood):
    rng = stream(42, "broadcast-order", policy if policy == "full" else policy)
    values = {v: 1.0 + 3.0 * rng.random() for v in range(graph.num_vertices)}
    caps = {v: int(values[v]) for v in values}
    engine = BatchEngine(graph)
    flood = epoch(engine, LiveTopology(graph), values, caps, policy)
    return flood


def _deliver(flood, outgoing):
    """Deliver one round of ``(sender, origin, distance)`` records.

    A :class:`NumpyFlood` round is a ``(senders, origins)`` column whose
    records share one distance; what it returns — the entries it
    forwards next — comes back as a set of ``(vertex, origin)`` pairs.
    """
    if isinstance(flood, ShiftedFlood):
        return flood._deliver(outgoing)
    np = _kernel._np
    (distance,) = {d for _sender, _origin, d in outgoing}
    column = (
        np.array([sender for sender, _o, _d in outgoing], dtype=np.int64),
        np.array([origin for _s, origin, _d in outgoing], dtype=np.int64),
    )
    forwarded = flood._deliver(column, distance + 1)
    return set(zip(*(side.tolist() for side in forwarded)))


@pytest.mark.parametrize("epoch", EPOCHS)
@pytest.mark.parametrize("policy", ["full", 1, 2])
@pytest.mark.parametrize("permutation_seed", [1, 2, 3])
def test_deliver_is_permutation_invariant(epoch, policy, permutation_seed):
    graph = erdos_renyi(30, 0.2, seed=6)
    # One realistic round of traffic: every vertex broadcasts its own
    # value at distance 0 (the epoch's round-1 sends).
    outgoing = [(v, v, 0) for v in range(graph.num_vertices)]
    shuffled = list(outgoing)
    random.Random(permutation_seed).shuffle(shuffled)

    reference = _fresh_flood(graph, policy, epoch)
    reference._pending_count = 0
    reference_updated = _deliver(reference, outgoing)

    permuted = _fresh_flood(graph, policy, epoch)
    permuted._pending_count = 0
    permuted_updated = _deliver(permuted, shuffled)

    assert _decision_state(reference) == _decision_state(permuted)
    if policy == "full":
        # The frontier is an ordered record list; only its *content* is
        # order-defined.
        assert sorted(reference_updated) == sorted(permuted_updated)
    else:
        assert reference_updated == permuted_updated  # a set


@pytest.mark.parametrize("epoch", EPOCHS)
@pytest.mark.parametrize("policy", ["full", 2])
def test_two_round_epoch_state_permutation_invariant(epoch, policy):
    """Permute the *second* round's records too — distances now vary
    (for :class:`ShiftedFlood`; a :class:`NumpyFlood` round carries one
    distance, so it gets the distance-1 records)."""
    graph = erdos_renyi(30, 0.2, seed=6)
    round_one = [(v, v, 0) for v in range(graph.num_vertices)]
    # Second-round traffic: forward every eligible entry (superset of
    # what either policy would send — a harder permutation test).
    twin = _fresh_flood(graph, policy)
    twin._pending_count = 0
    twin._deliver(round_one)
    n = graph.num_vertices
    second_round = [
        (v, key % n, dist)
        for key, dist in sorted(twin.entries.items())
        for v in [key // n]
        if dist + 1 <= twin.caps[key % n] and (epoch is ShiftedFlood or dist == 1)
    ]

    def run(perm_seed):
        flood = _fresh_flood(graph, policy, epoch)
        flood._pending_count = 0
        _deliver(flood, round_one)
        second = list(second_round)
        if perm_seed:
            random.Random(perm_seed).shuffle(second)
        _deliver(flood, second)
        return _decision_state(flood)

    assert run(0) == run(9) == run(23)

