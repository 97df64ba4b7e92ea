"""Cross-kernel properties of the oracle build: numpy == pure Python.

``compact_scale`` and ``quotient_graph`` each have a numpy path (floods
and sorted keys) and a pure-Python reference (per-cluster BFS, the graph
builder); flipping ``repro.graphs._kernel.USE_NUMPY`` must not change a
single byte of their output, nor the text of their errors.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs import _kernel
from repro.graphs.subgraph import quotient_graph
from repro.oracle.build import compact_scale
from repro.oracle.hierarchy import base_level, coarsen_level, component_level
from tests.core.test_properties import graphs

needs_numpy = pytest.mark.skipif(_kernel._np is None, reason="numpy not installed")


def _on_kernel(numpy: bool, run, *args):
    """``run(*args)`` with the kernel switch set to ``numpy``; an error is
    returned as its type and text."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "USE_NUMPY", numpy)
        try:
            return run(*args)
        except GraphError as error:
            return type(error), str(error)


@st.composite
def scales(draw):
    """A graph, one of its core levels (base, coarsened once or twice, or
    the components), a cover radius and an entry budget: unlimited, any
    count down to below ``n``, or one off the cover's exact size."""
    g = draw(graphs())
    seed = draw(st.integers(min_value=0, max_value=10_000))
    coarsenings = draw(st.integers(min_value=-1, max_value=2))
    if coarsenings < 0:
        level = component_level(g)
    else:
        level = base_level(g, 2, 4.0, seed)
        for depth in range(1, coarsenings + 1):
            if not level.is_components:
                level = coarsen_level(g, level, 4.0, seed, depth)
    radius = draw(st.integers(min_value=0, max_value=4))
    n = g.num_vertices
    budget = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=6 * n)))
    if budget is not None and draw(st.booleans()):
        exact = _on_kernel(False, _compact, g, level, radius, None).entries
        budget = exact + draw(st.integers(min_value=-1, max_value=1))
    return g, level, radius, budget


def _compact(g, level, radius, budget):
    return compact_scale(g, level, radius, 2, budget)


@needs_numpy
@given(scales())
@settings(max_examples=200, deadline=None)
def test_compact_scale_kernels_agree(scale):
    assert _on_kernel(True, _compact, *scale) == _on_kernel(False, _compact, *scale)


@needs_numpy
@given(scales(), st.integers(min_value=0, max_value=40))
@settings(max_examples=200, deadline=None)
def test_compact_scale_origin_split_exact(scale, split_fanout):
    """Splitting the floods' wide rounds by cluster range, and slicing the
    parent pass as finely, changes nothing."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "_SPLIT_FANOUT", split_fanout)
        split = _on_kernel(True, _compact, *scale)
    assert split == _on_kernel(False, _compact, *scale)


@st.composite
def labellings(draw):
    """A graph and random cluster labels, now and then out of range, one
    short, or (as a mapping) with a non-vertex key in place of a vertex's."""
    g = draw(graphs())
    num_clusters = draw(st.integers(min_value=0, max_value=6))
    label = st.integers(min_value=-1, max_value=num_clusters)
    if draw(st.integers(min_value=0, max_value=3)):
        label = st.integers(min_value=0, max_value=max(num_clusters - 1, 0))
    size = g.num_vertices - (draw(st.integers(min_value=0, max_value=9)) == 0)
    labels = draw(st.lists(label, min_size=size, max_size=size))
    if not draw(st.booleans()):
        return g, labels, num_clusters
    mapping = dict(enumerate(labels))
    if mapping and draw(st.integers(min_value=0, max_value=4)) == 0:
        vertex = draw(st.sampled_from(sorted(mapping)))
        mapping[g.num_vertices + draw(st.integers(min_value=0, max_value=3))] = mapping.pop(vertex)
    return g, mapping, num_clusters


def _quotient(g, labels, num_clusters):
    q = quotient_graph(g, labels, num_clusters)
    indptr, indices = q.csr()
    return q.num_vertices, q.num_edges, indptr, indices


@needs_numpy
@given(labellings())
@settings(max_examples=300, deadline=None)
def test_quotient_graph_kernels_agree(labelling):
    assert _on_kernel(True, _quotient, *labelling) == _on_kernel(False, _quotient, *labelling)
