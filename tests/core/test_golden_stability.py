"""Golden-decomposition stability: fixed seeds must reproduce exactly.

The fixtures in ``tests/data/golden_decompositions.json`` were captured
from the pre-CSR kernel; every algorithm must keep producing identical
clusters (indices, colours, members, centers), traces and message counts
for the same seeds.  This is the regression net for the determinism
contract: "identical decompositions for identical seeds, before and after
any kernel change".
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.baselines import ball_carving, distributed_ls, distributed_mpx, linial_saks, mpx
from repro.core import elkin_neiman, high_radius, staged
from repro.core.distributed_en import decompose_distributed
from repro.graphs import parse_graph_spec

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent.parent / "data" / "golden_decompositions.json")
    .read_text(encoding="utf8")
)

CASES = [
    ("er:120:0.05", 3, 7),
    ("er:200:0.02", 4, 20160217),
    ("grid:12:12", 4, 11),
    ("conn:150:0.02", 3, 99),
    ("tree:2:7", 3, 5),
]


def cluster_map(decomposition):
    return [
        [cl.index, cl.color, sorted(cl.vertices), cl.center]
        for cl in decomposition.clusters
    ]


@pytest.mark.parametrize("spec,k,seed", CASES)
def test_elkin_neiman_golden(spec, k, seed):
    want = GOLDEN[f"{spec}|k={k}|seed={seed}"]
    graph = parse_graph_spec(spec, seed=seed)
    decomposition, trace = elkin_neiman.decompose(graph, k=k, seed=seed)
    assert cluster_map(decomposition) == want["en"]
    assert trace.total_phases == want["en_phases"]
    assert trace.survivors == want["en_survivors"]


@pytest.mark.parametrize("spec,k,seed", CASES)
def test_linial_saks_golden(spec, k, seed):
    want = GOLDEN[f"{spec}|k={k}|seed={seed}"]
    graph = parse_graph_spec(spec, seed=seed)
    decomposition, _ = linial_saks.decompose(graph, k=k, seed=seed)
    assert cluster_map(decomposition) == want["ls"]


@pytest.mark.parametrize("backend", ["sync", "batch"])
@pytest.mark.parametrize("spec,k,seed", CASES[:2])
def test_distributed_linial_saks_golden(spec, k, seed, backend):
    want = GOLDEN[f"{spec}|k={k}|seed={seed}"]
    graph = parse_graph_spec(spec, seed=seed)
    result = distributed_ls.decompose_distributed(graph, k=k, seed=seed, backend=backend)
    assert cluster_map(result.decomposition) == want["ls"]


MPX_CASES = [("grid:12:12", 0.5, 11), ("tree:2:7", 0.5, 5)]


@pytest.mark.parametrize("backend", [None, "sync", "batch"])
@pytest.mark.parametrize("spec,beta,seed", MPX_CASES)
def test_mpx_golden(spec, beta, seed, backend):
    """Centralized MPX (``backend=None``) and the distributed partition
    on both backends reproduce the pinned clusters and cut."""
    want = GOLDEN[f"mpx|{spec}|beta={beta}|seed={seed}"]
    graph = parse_graph_spec(spec, seed=seed)
    if backend is None:
        result = mpx.partition(graph, beta=beta, seed=seed)
    else:
        result = distributed_mpx.partition_distributed(
            graph, beta=beta, seed=seed, backend=backend
        )
    assert cluster_map(result.decomposition) == want["mpx"]
    assert result.cut_edges == want["cut_edges"]


@pytest.mark.parametrize("spec,k,seed", CASES)
def test_ball_carving_golden(spec, k, seed):
    want = GOLDEN[f"{spec}|k={k}|seed={seed}"]
    graph = parse_graph_spec(spec, seed=seed)
    decomposition, _ = ball_carving.decompose(graph, k=k)
    assert cluster_map(decomposition) == want["ball"]


def test_distributed_golden():
    want = GOLDEN["distributed|conn:80:0.04|k=3|seed=3"]
    graph = parse_graph_spec("conn:80:0.04", seed=3)
    result = decompose_distributed(graph, k=3, seed=3)
    assert cluster_map(result.decomposition) == want["dist"]
    assert result.rounds_per_phase == want["rounds"]
    assert result.stats.messages_sent == want["messages"]


def test_variants_golden():
    want = GOLDEN["variants|er:100:0.05|seed=13"]
    graph = parse_graph_spec("er:100:0.05", seed=13)
    st, _ = staged.decompose(graph, k=3, c=6.0, seed=13)
    hr, _ = high_radius.decompose(graph, lam=3, seed=13)
    assert cluster_map(st) == want["staged"]
    assert cluster_map(hr) == want["high_radius"]
