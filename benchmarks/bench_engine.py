"""E17 — batch round-engine vs the object-per-message SyncNetwork.

Races the columnar engine (:mod:`repro.engine`) against the reference
simulator on the workload it was built for: the distributed
Elkin–Neiman protocol end-to-end (``backend="batch"`` vs
``backend="sync"``).  Every race first asserts bit-identical results —
outputs *and* :class:`~repro.distributed.metrics.NetworkStats` — so the
table can only ever show a speedup on equal work.

Two modes:

* ``pytest benchmarks/bench_engine.py -s`` — a CI-sized workload
  (torus 16 × 16), asserts equivalence and emits the table; no
  wall-clock gate (shared runners are too noisy);
* ``python benchmarks/bench_engine.py`` — the full sweep behind the
  PR-acceptance numbers: the n ≈ 10⁵ EN race (gate: ≥ 5x) plus a
  million-node batch-only EN run that must complete (exit code covers
  both).  Set ``BENCH_ENGINE_SKIP_MILLION=1`` to skip the n ≈ 10⁶ leg.
"""

from __future__ import annotations

import math
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core.distributed_en import decompose_distributed
from repro.graphs import Graph, torus_graph
from repro.graphs._kernel import backend_name

from _common import emit, median_time, strip_private

SEED = 20160217
#: EN protocol timing reps (end-to-end runs are seconds-long; medians of
#: many reps would make the full sweep take an hour).
EN_REPS = 1


def _row(workload, op, n, sync_t, batch_t):
    return {
        "workload": workload,
        "op": op,
        "n": n,
        "sync s": round(sync_t, 2),
        "batch s": round(batch_t, 2),
        "speedup": round(sync_t / max(batch_t, 1e-9), 2),
        "_raw_speedup": sync_t / max(batch_t, 1e-9),
    }


# The race asserts bit-identical results before its timing counts.
def race_en(name: str, graph: Graph, k: float, reps: int = EN_REPS):
    sync_t, sync_r = median_time(
        lambda: decompose_distributed(graph, k=k, seed=SEED, backend="sync"), reps
    )
    batch_t, batch_r = median_time(
        lambda: decompose_distributed(graph, k=k, seed=SEED, backend="batch"), reps
    )
    assert sync_r.stats == batch_r.stats, f"{name}: stats diverge"
    assert (
        sync_r.decomposition.cluster_index_map()
        == batch_r.decomposition.cluster_index_map()
    ), f"{name}: decompositions diverge"
    assert sync_r.rounds_per_phase == batch_r.rounds_per_phase
    return _row(name, "distributed-en", graph.num_vertices, sync_t, batch_t)


def run_sweep(full_scale: bool):
    if full_scale:
        return [race_en("torus:316:316", torus_graph(316, 316), k=12)]
    return [race_en("torus:16:16", torus_graph(16, 16), k=6, reps=1)]


def million_node_run():
    """The scale leg: distributed EN at n = 10⁶, batch engine only."""
    graph = torus_graph(1000, 1000)
    k = max(2, math.ceil(math.log(graph.num_vertices)))
    t0 = time.perf_counter()
    result = decompose_distributed(graph, k=k, seed=1, backend="batch")
    elapsed = time.perf_counter() - t0
    return {
        "workload": "torus:1000:1000",
        "op": "distributed-en (batch only)",
        "n": graph.num_vertices,
        "batch s": round(elapsed, 1),
        "phases": result.phases,
        "rounds": result.total_rounds,
        "messages": result.stats.messages_sent,
        "colors": result.decomposition.num_colors,
        "in_budget": result.exhausted_within_nominal,
    }


def test_engine_bench():
    """CI-sized race: equivalence asserted, table emitted, no timing gate."""
    rows = run_sweep(full_scale=False)
    table = emit(
        f"E17: batch engine vs SyncNetwork (CI scale, backend={backend_name()})",
        strip_private(rows),
        "e17_engine_small.txt",
    )
    assert table
    print(f"EN speedup (informational): {rows[0]['_raw_speedup']:.2f}x")


def main() -> int:
    rows = run_sweep(full_scale=True)
    en_speedup = rows[0]["_raw_speedup"]
    emit(
        f"E17: batch engine vs SyncNetwork (n~1e5, backend={backend_name()})",
        strip_private(rows),
        "e17_engine_full.txt",
    )
    print(f"distributed-EN speedup at n~1e5: {en_speedup:.2f}x  [acceptance: >= 5x]")
    ok = en_speedup >= 5.0
    if os.environ.get("BENCH_ENGINE_SKIP_MILLION", "") not in ("1", "true", "yes"):
        row = million_node_run()
        emit("E17b: million-node distributed EN (batch engine)", [row], "e17_engine_million.txt")
        print(f"n=1e6 completed in {row['batch s']}s: {row['messages']} messages, "
              f"{row['rounds']} rounds, {row['colors']} colors")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
