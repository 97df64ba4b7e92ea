"""``decompose-gnp``: Theorem 1 on an expander, four ways.

Input: ``gnp_fast`` G(n, 6/n).  On an expander balls grow geometrically,
so the shifted flood (``carve_block`` centrally, ``ShiftedFlood`` on the
batch engine) does most of the work.  It is the only workload that runs
the batch engine and the three phase-loop drivers.

A run makes ``GRAPHS`` seeded graphs and measures whole passes of the
four decompositions over all of them, so every run covers the same
inputs.  The work a graph takes varies widely between seeds (it is
heavy-tailed in the sampled radii), so many graphs are measured: an op
metric is the median over the graphs of each graph's median time.
"""

from __future__ import annotations

import hashlib
import math
from array import array

from repro.baselines import distributed_ls, distributed_mpx
from repro.core import distributed_en, elkin_neiman
from repro.graphs.generators import gnp_fast

import layers
from common import median_of_medians, median, peak_rss_mb

N = 5000
DEGREE = 6.0
C = 4.0
MPX_BETA = 0.3
GRAPHS = 24

#: The op slots of the end-to-end metrics, in order (``op1_ms`` first).
OPS = ("en_central", "en_batch", "ls_batch", "mpx_batch")

OPERATIONS = {
    "en_central": lambda g, k, s: elkin_neiman.decompose(g, k=k, c=C, seed=s),
    "en_batch": lambda g, k, s: distributed_en.decompose_distributed(
        g, k=k, c=C, seed=s, backend="batch"
    ),
    "ls_batch": lambda g, k, s: distributed_ls.decompose_distributed(
        g, k=k, seed=s, backend="batch"
    ),
    "mpx_batch": lambda g, k, s: distributed_mpx.partition_distributed(
        g, beta=MPX_BETA, seed=s, backend="batch"
    ),
}


def _map_digest(decomposition) -> str:
    mapping = decomposition.cluster_index_map()
    cells = array("l", (mapping[v] for v in range(decomposition.graph.num_vertices)))
    return hashlib.sha256(cells.tobytes()).hexdigest()[:16]


def _counts(outputs) -> dict:
    """The counts of one graph's four decompositions that the seed fixes."""
    decomposition, trace = outputs["en_central"]
    counts = {
        "en_central": {
            "phases": trace.total_phases,
            "colors": decomposition.num_colors,
            "clusters": decomposition.num_clusters,
            "truncations": len(trace.truncation_events),
            "map": _map_digest(decomposition),
        }
    }
    for op in ("en_batch", "ls_batch", "mpx_batch"):
        result = outputs[op]
        stats = result.stats
        counts[op] = {
            "phases": getattr(result, "phases", 1),
            "rounds": stats.rounds,
            "messages": stats.messages_sent,
            "words": stats.words_sent,
            "peak_edge_words": stats.max_words_per_edge_round,
            "colors": result.decomposition.num_colors,
            "clusters": result.decomposition.num_clusters,
            "map": _map_digest(result.decomposition),
        }
    return counts


def _gates(run, label, k, outputs, strong_diameter: bool) -> None:
    central, trace = outputs["en_central"]
    run.check(
        central.cluster_index_map() == outputs["en_batch"].decomposition.cluster_index_map(),
        f"{label}: centralized and batch EN cluster maps differ",
    )
    for op in OPS:
        result = outputs[op]
        decomposition = result[0] if op == "en_central" else result.decomposition
        run.check(decomposition.is_partition(), f"{label}: {op} is not a partition")
        run.check(
            decomposition.is_proper_coloring(), f"{label}: {op} colouring is not proper"
        )
    if strong_diameter and not trace.had_truncation_event:
        worst = central.max_strong_diameter()
        run.check(
            worst <= 2 * k - 2,
            f"{label}: EN strong diameter {worst} exceeds 2k-2 = {2 * k - 2} "
            "without a Lemma-1 truncation event",
        )


def _measure(run, graphs, k, seeds, seconds) -> tuple[dict, int]:
    """Whole passes of the four ops over every graph; returns per-op,
    per-graph samples and the number of passes."""
    samples = {op: [[] for _ in graphs] for op in OPS}

    def one_pass() -> bool:
        for i, graph in enumerate(graphs):
            label = f"graph{i}"
            outputs = {}
            for op in OPS:
                elapsed, result = run.timed(op, label, OPERATIONS[op], graph, k, seeds[i])
                if result is None:
                    return False
                samples[op][i].append(elapsed)
                outputs[op] = result
            first_visit = label not in run.fingerprints
            run.fingerprint(label, _counts(outputs))
            if first_visit:
                # Later passes are pinned to this one by the fingerprint,
                # which includes each output's cluster-map digest.
                _gates(run, label, k, outputs, strong_diameter=run.traced and i == 0)
        return True

    return samples, run.passes(seconds, one_pass)


def run_workload(run) -> None:
    run.layers["memory.import_mb"] = peak_rss_mb()
    n = run.size(N, 60)
    k = math.ceil(math.log(n))
    setup = []
    graphs = []
    for i in range(GRAPHS):
        elapsed, graph = run.timed(
            "setup", f"graph{i}", gnp_fast, n, DEGREE / n, seed=run.sub_seed("graph", i)
        )
        if graph is None:
            return
        setup.append(elapsed)
        graphs.append(graph)
    seeds = [run.sub_seed("algorithm", i) for i in range(GRAPHS)]
    run.end_to_end["setup_s"] = median(setup)

    share = run.seconds / 2 if run.traced else run.seconds
    samples, passes = _measure(run, graphs, k, seeds, share)
    for slot, op in enumerate(OPS, start=1):
        run.end_to_end[f"op{slot}_ms"] = median_of_medians(samples[op]) * 1e3
    run.end_to_end["peak_rss_mb"] = peak_rss_mb()
    run.notes["ops"] = "op1..op4 = " + ", ".join(OPS) + " (ms per decomposition)"
    run.notes["input"] = (
        f"gnp_fast G({n}, {DEGREE:g}/n) x {GRAPHS} graphs, k={k}, c={C:g}; {passes} passes"
    )
    if not run.traced:
        return

    with run.tracing():
        traced, traced_passes = _measure(run, graphs, k, seeds, share)
    run.layers.update(layers.metrics(run.recorder, traced_passes * GRAPHS, OPS))
    run.layers["graphs.generate_s"] = median(setup)
    run.layers["graphs.vertices"] = n
    run.layers["graphs.edges"] = sum(g.num_edges for g in graphs) / len(graphs)
    for slot, op in enumerate(OPS, start=1):
        untraced = run.end_to_end[f"op{slot}_ms"]
        run.layers[f"trace.overhead.op{slot}_ms"] = (
            median_of_medians(traced[op]) * 1e3 / untraced
        )
