"""Hypothesis property tests for the decomposition algorithms.

These assert the paper's invariants on arbitrary random graphs and seeds:
partition-ness, proper supergraph colouring, strong-diameter bounds
(conditioned on no truncation event, exactly as the paper states them),
distributed/centralized agreement, and the numpy carve's agreement with
the BFS carve.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import linial_saks
from repro.core import elkin_neiman
from repro.core.carving import carve_block
from repro.core.distributed_en import decompose_distributed
from repro.graphs import (
    ActiveSet,
    GraphBuilder,
    _kernel,
    connected_components,
    strong_diameter,
)


@st.composite
def graphs(draw, max_n: int = 16, max_extra_edges: int = 24):
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = (
        draw(st.lists(st.sampled_from(possible), max_size=max_extra_edges))
        if possible
        else []
    )
    builder = GraphBuilder(n)
    for u, v in edges:
        builder.add_edge(u, v)
    return builder.build()


seeds = st.integers(min_value=0, max_value=10_000)
ks = st.integers(min_value=2, max_value=4)


@given(graphs(), seeds, ks)
@settings(max_examples=60, deadline=None)
def test_en_always_valid_decomposition(g, seed, k):
    decomposition, trace = elkin_neiman.decompose(g, k=k, seed=seed)
    decomposition.validate()
    if not trace.had_truncation_event:
        assert decomposition.max_strong_diameter() <= 2 * k - 2


@given(graphs(), seeds, ks)
@settings(max_examples=60, deadline=None)
def test_en_clusters_always_connected(g, seed, k):
    decomposition, _ = elkin_neiman.decompose(g, k=k, seed=seed)
    for cluster in decomposition.clusters:
        assert not math.isinf(strong_diameter(g, cluster.vertices))


@given(graphs(max_n=12), seeds)
@settings(max_examples=30, deadline=None)
def test_distributed_equals_centralized(g, seed):
    central, _ = elkin_neiman.decompose(g, k=3, seed=seed)
    distributed = decompose_distributed(g, k=3, seed=seed, mode="toptwo")
    assert central.cluster_index_map() == distributed.decomposition.cluster_index_map()


@given(graphs(max_n=12), seeds)
@settings(max_examples=30, deadline=None)
def test_toptwo_equals_full(g, seed):
    full = decompose_distributed(g, k=3, seed=seed, mode="full")
    toptwo = decompose_distributed(g, k=3, seed=seed, mode="toptwo")
    assert (
        full.decomposition.cluster_index_map()
        == toptwo.decomposition.cluster_index_map()
    )


@given(graphs(), seeds)
@settings(max_examples=40, deadline=None)
def test_ls_always_valid_weak_decomposition(g, seed):
    decomposition, _ = linial_saks.decompose(g, k=3, seed=seed)
    decomposition.validate(max_diameter=2 * 3 - 2, strong=False)


@given(
    graphs(),
    st.dictionaries(
        st.integers(min_value=0, max_value=15),
        st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    ),
)
@settings(max_examples=60, deadline=None)
def test_carve_block_invariants(g, raw_radii):
    radii = {v: r for v, r in raw_radii.items() if v < g.num_vertices}
    for v in g.vertices():
        radii.setdefault(v, 0.0)
    outcome = carve_block(g, set(g.vertices()), radii)
    # Joiners have centers; non-joiners don't.
    assert set(outcome.center_of) == outcome.block
    # Adjacent joiners share a center (Lemma 4's key step).
    for u, v in g.edges():
        if u in outcome.block and v in outcome.block:
            assert outcome.center_of[u] == outcome.center_of[v]
    # Every component of the block is center-pure and contains its center.
    for component in connected_components(g, active=outcome.block, universe=sorted(outcome.block)):
        centers = {outcome.center_of[x] for x in component}
        assert len(centers) == 1


needs_numpy = pytest.mark.skipif(_kernel._np is None, reason="numpy not installed")


def _on_kernel(numpy: bool, run, *args, **kwargs):
    """``run(*args, **kwargs)`` with the kernel switch set to ``numpy``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "USE_NUMPY", numpy)
        return run(*args, **kwargs)


def _assert_same_carve(flood, bfs):
    assert flood.block == bfs.block
    assert list(flood.center_of.items()) == list(bfs.center_of.items())
    assert list(flood.top_two.items()) == list(bfs.top_two.items())


@st.composite
def carve_inputs(draw):
    """A graph, an active subset (a set or an ActiveSet) and radii on it:
    random floats or integer values, which tie."""
    g = draw(graphs())
    members = sorted(draw(st.sets(st.integers(0, g.num_vertices - 1))))
    radius = st.one_of(
        st.floats(min_value=0.0, max_value=6.0),
        st.integers(min_value=0, max_value=5).map(float),
    )
    radii = {v: draw(radius) for v in members}
    if draw(st.booleans()):
        return g, ActiveSet.from_iterable(g.num_vertices, members), radii
    return g, set(members), radii


@needs_numpy
@given(
    carve_inputs(),
    st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
    st.sampled_from([0.25, 1.0, 1.75]),
)
@settings(max_examples=300, deadline=None)
def test_carve_kernels_agree(inputs, range_cap, gap_threshold):
    g, active, radii = inputs
    args = (g, active, radii, range_cap, gap_threshold)
    _assert_same_carve(
        _on_kernel(True, carve_block, *args), _on_kernel(False, carve_block, *args)
    )


@needs_numpy
@given(graphs(), seeds, ks)
@settings(max_examples=60, deadline=None)
def test_en_kernels_agree(g, seed, k):
    for capped in (False, True):
        runs = [
            _on_kernel(numpy, elkin_neiman.decompose, g, k=k, seed=seed, use_range_cap=capped)
            for numpy in (True, False)
        ]
        (flood, flood_trace), (bfs, bfs_trace) = runs
        assert flood.cluster_index_map() == bfs.cluster_index_map()
        assert flood_trace == bfs_trace


@needs_numpy
@given(carve_inputs(), st.integers(min_value=0, max_value=40))
@settings(max_examples=200, deadline=None)
def test_carve_origin_split_exact(inputs, split_fanout):
    """Splitting the flood's wide columns by origin range, at whatever
    round they grow wide, changes nothing: floods of different origins
    never interact."""
    g, active, radii = inputs
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "_SPLIT_FANOUT", split_fanout)
        split = _on_kernel(True, carve_block, g, active, radii)
    _assert_same_carve(split, _on_kernel(False, carve_block, g, active, radii))


@given(graphs(max_n=14), seeds, ks)
@settings(max_examples=30, deadline=None)
def test_en_label_independence_of_guarantees(g, seed, k):
    """Relabelling vertices cannot break any guarantee (no IDs are used
    in clustering decisions; the specific partition may differ because
    the radius streams are keyed by vertex id)."""
    from repro.graphs import relabel

    perm = list(reversed(range(g.num_vertices)))
    h = relabel(g, perm)
    decomposition, trace = elkin_neiman.decompose(h, k=k, seed=seed)
    decomposition.validate()
    if not trace.had_truncation_event:
        assert decomposition.max_strong_diameter() <= 2 * k - 2
