"""Algorithm adapters: turn a :class:`TrialSpec` into one flat record.

Each adapter builds the trial's graph, runs one algorithm (or a paired
comparison), and returns a flat, JSON-serialisable dict of measurements.
Adapters are **pure functions of the trial spec** — no wall-clock, no
global state — which is what makes records cacheable and makes parallel
execution bit-identical to serial execution.

The :data:`ALGORITHMS` table is the extension point: registering a new
name here makes it available to every scenario and to the ``bench`` CLI.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict

from ..analysis.quality import report
from ..applications import run_mis
from ..applications.verify import is_maximal_independent_set
from ..baselines import distributed_ls, distributed_mpx, linial_saks
from ..core import default_k, elkin_neiman, high_radius, staged, theorem1_bounds
from ..core.distributed_en import decompose_distributed
from ..errors import ParameterError
from ..graphs import (
    ActiveSet,
    Graph,
    bfs_distances,
    bfs_distances_bounded,
    connected_components,
    multi_source_bfs,
    parse_graph_spec,
)
from ..oracle import build_oracle, estimates_checksum, validate_sample
from ..rng import stream
from ..telemetry import Telemetry, critical_path
from .spec import TrialSpec

__all__ = ["ALGORITHMS", "Adapter", "algorithm_names", "run_trial"]

Record = Dict[str, Any]
Adapter = Callable[[Graph, TrialSpec], Record]


def _json_safe(value: float) -> float | None:
    """Map non-finite diameters to ``None`` so records survive strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _quality_fields(decomposition) -> Record:
    quality = report(decomposition)
    return {
        "clusters": quality.num_clusters,
        "colors": quality.num_colors,
        "strong_diameter": _json_safe(quality.max_strong_diameter),
        "weak_diameter": quality.max_weak_diameter,
        "disconnected": quality.num_disconnected_clusters,
    }


def _trace_fields(trace) -> Record:
    return {
        "phases": trace.total_phases,
        "nominal_phases": trace.nominal_phases,
        "in_budget": trace.exhausted_within_nominal,
        "truncation_events": len(trace.truncation_events),
    }


def _default_k(graph: Graph, params: Record) -> float:
    k = params.get("k")
    return default_k(graph.num_vertices) if k is None else k


def _cluster_checksum(decomposition) -> int:
    """Deterministic checksum of a cluster assignment, pinning cached
    records to the exact decomposition across backends and adapters."""
    return (
        sum(
            (v + 1) * (cluster + 3)
            for v, cluster in decomposition.cluster_index_map().items()
        )
        % 1_000_003
    )


def _adapt_elkin_neiman(graph: Graph, trial: TrialSpec) -> Record:
    """Theorem 1 — centralized strong-diameter decomposition."""
    params = trial.param_dict()
    k = _default_k(graph, params)
    c = params.get("c", 4.0)
    decomposition, trace = elkin_neiman.decompose(graph, k=k, c=c, seed=trial.seed)
    decomposition.validate()
    bounds = theorem1_bounds(graph.num_vertices, k, c)
    record: Record = {"n": graph.num_vertices, "m": graph.num_edges, "k": k, "c": c}
    record.update(_quality_fields(decomposition))
    record.update(_trace_fields(trace))
    record["diameter_bound"] = bounds.diameter
    record["color_bound"] = round(bounds.colors, 2)
    return record


def _adapt_staged(graph: Graph, trial: TrialSpec) -> Record:
    """Theorem 2 — the staged ``O(log n)``-colour variant."""
    params = trial.param_dict()
    k = _default_k(graph, params)
    c = max(params.get("c", 6.0), 6.0)
    decomposition, trace = staged.decompose(graph, k=k, c=c, seed=trial.seed)
    decomposition.validate()
    record: Record = {"n": graph.num_vertices, "m": graph.num_edges, "k": k, "c": c}
    record.update(_quality_fields(decomposition))
    record.update(_trace_fields(trace))
    return record


def _adapt_high_radius(graph: Graph, trial: TrialSpec) -> Record:
    """Theorem 3 — few colours, larger radius."""
    params = trial.param_dict()
    lam = int(params.get("lam", 3))
    c = params.get("c", 4.0)
    decomposition, trace = high_radius.decompose(graph, lam=lam, c=c, seed=trial.seed)
    decomposition.validate()
    record: Record = {"n": graph.num_vertices, "m": graph.num_edges, "lam": lam, "c": c}
    record.update(_quality_fields(decomposition))
    record.update(_trace_fields(trace))
    record["within_lambda"] = decomposition.num_colors <= lam
    return record


def _adapt_linial_saks(graph: Graph, trial: TrialSpec) -> Record:
    """LS93 baseline — weak diameter, clusters may disconnect."""
    params = trial.param_dict()
    k = int(_default_k(graph, params))
    decomposition, _ = linial_saks.decompose(graph, k=k, seed=trial.seed)
    record: Record = {"n": graph.num_vertices, "m": graph.num_edges, "k": k}
    record.update(_quality_fields(decomposition))
    record["weak_bound"] = 2 * k - 2
    return record


def _adapt_congest(graph: Graph, trial: TrialSpec) -> Record:
    """Distributed EN protocol vs the centralized reference on one graph.

    The paper's E12 story: measured CONGEST rounds against ``ln²(cn)``,
    plus an exact cross-validation that the message-passing protocol
    reproduces the centralized decomposition bit-for-bit.
    """
    params = trial.param_dict()
    k = _default_k(graph, params)
    c = params.get("c", 4.0)
    result = decompose_distributed(graph, k=k, c=c, seed=trial.seed)
    central, _ = elkin_neiman.decompose(graph, k=k, c=c, seed=trial.seed)
    log2 = math.log(c * graph.num_vertices) ** 2
    return {
        "n": graph.num_vertices,
        "m": graph.num_edges,
        "k": k,
        "c": c,
        "rounds": result.total_rounds,
        "ln2_cn": round(log2, 2),
        "rounds_per_ln2": round(result.total_rounds / log2, 4),
        "phases": result.phases,
        "colors": result.decomposition.num_colors,
        "messages": result.stats.messages_sent,
        "matches_centralized": (
            central.cluster_index_map() == result.decomposition.cluster_index_map()
        ),
    }


def _adapt_survival(graph: Graph, trial: TrialSpec) -> Record:
    """Claim 6 / Corollary 7 — the per-phase survivor curve of one run."""
    params = trial.param_dict()
    k = _default_k(graph, params)
    c = params.get("c", 4.0)
    _, trace = elkin_neiman.decompose(graph, k=k, c=c, seed=trial.seed)
    return {
        "n": graph.num_vertices,
        "k": k,
        "c": c,
        "phases": trace.total_phases,
        "nominal_phases": trace.nominal_phases,
        "in_budget": trace.exhausted_within_nominal,
        "survivors": list(trace.survivors),
    }


def _adapt_strong_vs_weak(graph: Graph, trial: TrialSpec) -> Record:
    """EN16 vs LS93 on identical inputs, plus MIS relay overhead.

    The paper's §1.1 motivation quantified: LS clusters can disconnect
    (strong diameter ∞), forcing applications into the weak relay mode
    whose non-member message load is pure overhead; EN runs strong-mode
    with zero relays.
    """
    params = trial.param_dict()
    k = int(_default_k(graph, params))
    en, _ = elkin_neiman.decompose(graph, k=k, seed=trial.seed)
    ls, _ = linial_saks.decompose(graph, k=k, seed=trial.seed)
    en_mis = run_mis(graph, en, relay_mode="strong", seed=trial.seed)
    ls_mis = run_mis(graph, ls, relay_mode="weak", seed=trial.seed)
    return {
        "n": graph.num_vertices,
        "k": k,
        "en_disconnected": len(en.disconnected_clusters()),
        "ls_disconnected": len(ls.disconnected_clusters()),
        "en_strong_diameter": _json_safe(en.max_strong_diameter()),
        "ls_strong_diameter": _json_safe(ls.max_strong_diameter()),
        "weak_bound": 2 * k - 2,
        "en_relays": en_mis.app.relay_messages_nonmember,
        "ls_relays": ls_mis.app.relay_messages_nonmember,
        "en_mis_verified": is_maximal_independent_set(graph, en_mis.independent_set),
        "ls_mis_verified": is_maximal_independent_set(graph, ls_mis.independent_set),
    }


def _adapt_kernel(graph: Graph, trial: TrialSpec) -> Record:
    """Traversal-kernel workload: BFS-dominated, structurally checksummed.

    Exercises every traversal primitive the CSR kernel serves — full BFS,
    multi-source BFS, bounded BFS over a shrinking active set, connected
    components — and records *structural invariants* (reach, depth,
    distance checksums) rather than wall-clock times or environment
    facts, so records are pure functions of the trial spec and
    cache/parallelise byte-identically.  (The active kernel backend is
    deliberately absent: cached records outlive backend switches.)
    Wall-clock speedups over the legacy kernel are measured by
    ``benchmarks/bench_kernel.py``.
    """
    params = trial.param_dict()
    n = graph.num_vertices
    if n == 0:
        return {"n": 0, "m": 0}
    full = bfs_distances(graph, 0)
    components = connected_components(graph)
    num_sources = int(params.get("sources", 16))
    step = max(1, n // max(num_sources, 1))
    near = multi_source_bfs(graph, range(0, n, step))
    # Shrinking-graph simulation: keep the half-depth ball around the
    # source active and rerun a bounded broadcast over it (the carving
    # access pattern: bounded BFS over a strict subset of the graph).
    depth = max(full.values(), default=0)
    active = ActiveSet.from_iterable(
        n, (v for v, d in full.items() if 2 * d <= depth)
    )
    start = active.first()
    bounded = (
        bfs_distances_bounded(graph, start, radius=int(params.get("radius", 4)), active=active)
        if start is not None
        else {}
    )
    return {
        "n": n,
        "m": graph.num_edges,
        "reached": len(full),
        "depth": depth,
        "components": len(components),
        "multi_sources": len(range(0, n, step)),
        "multi_depth": max(near.values(), default=0),
        "active_size": len(active),
        "bounded_reached": len(bounded),
        "checksum": sum(full.values()) % 1_000_003,
    }


def _adapt_engine(graph: Graph, trial: TrialSpec) -> Record:
    """Batch round-engine workload: distributed EN on ``backend="batch"``.

    Records the protocol's cost profile (rounds, messages, words, peak
    per-edge bandwidth) plus a deterministic checksum of the resulting
    decomposition, so cached records pin the engine's behaviour exactly.
    With ``compare="sync"`` the same trial also runs on the reference
    :class:`~repro.distributed.network.SyncNetwork` backend and records
    whether outputs and stats match bit-for-bit (used at the small
    points of the ``engine-scaling`` scenario; the batch leg alone runs
    at the scale points).  Wall-clock racing lives in
    ``benchmarks/bench_engine.py``.
    """
    params = trial.param_dict()
    k = _default_k(graph, params)
    c = params.get("c", 4.0)
    mode = params.get("mode", "toptwo")
    result = decompose_distributed(
        graph, k=k, c=c, seed=trial.seed, mode=mode, backend="batch"
    )
    cluster_map = result.decomposition.cluster_index_map()
    checksum = _cluster_checksum(result.decomposition)
    record: Record = {
        "n": graph.num_vertices,
        "m": graph.num_edges,
        "k": k,
        "mode": mode,
        "phases": result.phases,
        "rounds": result.total_rounds,
        "colors": result.decomposition.num_colors,
        "clusters": result.decomposition.num_clusters,
        "messages": result.stats.messages_sent,
        "words": result.stats.words_sent,
        "max_words_edge_round": result.stats.max_words_per_edge_round,
        "checksum": checksum,
    }
    if params.get("compare") == "sync":
        reference = decompose_distributed(
            graph, k=k, c=c, seed=trial.seed, mode=mode, backend="sync"
        )
        record["matches_sync"] = (
            reference.decomposition.cluster_index_map() == cluster_map
            and reference.stats == result.stats
            and reference.rounds_per_phase == result.rounds_per_phase
        )
    return record


def _adapt_oracle(graph: Graph, trial: TrialSpec) -> Record:
    """Distance-oracle workload: build the hierarchy, serve a query batch.

    Builds the multi-scale cover oracle, answers a seeded batch of
    random pairs and validates the first ``check`` answers against exact
    BFS (lower bound, and the advertised stretch bound).  Records are
    pure functions of the trial spec: query pairs come from a derived
    stream, estimates are bit-identical on both query backends by
    contract, and the checksum pins them — so a cached numpy record
    validates a later ``REPRO_KERNEL=py`` run and vice versa.
    Wall-clock throughput lives in ``benchmarks/bench_oracle.py``.
    """
    params = trial.param_dict()
    k = params.get("k")
    c = params.get("c", 4.0)
    budget = params.get("budget", 8.0)
    queries = int(params.get("queries", 2048))
    check = int(params.get("check", 64))
    oracle = build_oracle(
        graph, k=k, c=c, seed=trial.seed, overlap_budget=budget
    )
    n = graph.num_vertices
    rng = stream(trial.seed, "oracle", "queries")
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(queries)] if n else []
    estimates = oracle.distances(pairs)
    validation = validate_sample(oracle, pairs, estimates, check)
    return {
        "n": n,
        "m": graph.num_edges,
        "scales": oracle.num_scales,
        "skipped": len(oracle.skipped_radii),
        "clusters": sum(s.num_clusters for s in oracle.scales),
        "entries": sum(s.entries for s in oracle.scales),
        "max_overlap": max((s.max_overlap for s in oracle.scales), default=0),
        "stretch_bound": round(oracle.stretch_bound, 2),
        "queries": len(pairs),
        "unreachable": sum(1 for e in estimates if e == -1),
        "checked": validation["checked"],
        "stretch_ok": validation["violations"] == 0,
        "worst_stretch": validation["worst_stretch"],
        "checksum": estimates_checksum(estimates),
    }


def _run_protocol(graph: Graph, params: Record, seed: int, adapter: str, **engine):
    """Run the EN, LS or MPX driver ``params["algo"]`` names, with the
    ``engine`` keywords (backend, delivery, faults, telemetry); return
    ``(result, rounds, phases)``.  ``adapter`` names the caller in errors."""
    algo = params.get("algo", "en")
    if algo == "en":
        result = decompose_distributed(
            graph,
            k=_default_k(graph, params),
            c=params.get("c", 4.0),
            seed=seed,
            mode=params.get("mode", "toptwo"),
            **engine,
        )
        return result, result.total_rounds, result.phases
    if algo == "ls":
        result = distributed_ls.decompose_distributed(
            graph, k=int(_default_k(graph, params)), seed=seed, **engine
        )
        return result, result.total_rounds, result.phases
    if algo == "mpx":
        result = distributed_mpx.partition_distributed(
            graph,
            beta=params.get("beta", 0.3),
            seed=seed,
            mode=params.get("mode", "topone"),
            **engine,
        )
        return result, result.rounds, 1
    raise ParameterError(
        f"{adapter} algo must be 'en', 'ls' or 'mpx', got {algo!r}"
    )


def _adapt_shootout(graph: Graph, trial: TrialSpec) -> Record:
    """Protocol race leg: one of EN/LS/MPX on one backend, one graph.

    The ``shootout`` campaign's unit of work.  ``algo`` selects the
    distributed driver (``en``/``ls``/``mpx``) and ``backend`` the
    execution engine (``sync`` reference simulator or the columnar
    ``batch`` engine — bit-identical by contract, so the record schema
    is backend-independent and the perf gate can diff them).  Recorded
    metrics are the CONGEST model's own cost currency — rounds,
    messages, words, peak per-edge bandwidth — plus decomposition shape
    and a deterministic checksum of the cluster assignment; wall-clock
    lives in ``benchmarks/bench_engine.py`` and the artifact envelope,
    never in cached records.
    """
    params = trial.param_dict()
    algo = params.get("algo", "en")
    backend = params.get("backend", "batch")
    result, rounds, phases = _run_protocol(
        graph, params, trial.seed, "shootout", backend=backend
    )
    decomposition, stats = result.decomposition, result.stats
    record: Record = {
        "n": graph.num_vertices,
        "m": graph.num_edges,
        "algo": algo,
        "backend": backend,
        "rounds": rounds,
        "phases": phases,
        "colors": decomposition.num_colors,
        "clusters": decomposition.num_clusters,
        "messages": stats.messages_sent,
        "words": stats.words_sent,
        "max_words_edge_round": stats.max_words_per_edge_round,
        "checksum": _cluster_checksum(decomposition),
    }
    if algo == "mpx":
        record["cut_fraction"] = round(result.cut_fraction, 4)
    return record


#: Adversary counters the async engine annotates on its run span, lifted
#: verbatim into robustness records (zero on fault-free FIFO runs).
_ASYNC_COUNTER_KEYS = (
    "delayed",
    "reordered",
    "dropped",
    "redelivered",
    "crashes",
    "recoveries",
    "max_skew",
)


def _adapt_robustness(graph: Graph, trial: TrialSpec) -> Record:
    """Adversarial-execution leg: one protocol on ``backend="async"``.

    Runs one of EN/LS/MPX on the α-synchronized asynchronous engine
    under a ``delivery`` schedule and optional ``faults`` plan, next to
    the synchronous reference on the *same* seed, and records whether
    the decompositions agree (``matches_sync``) together with the
    engine's adversary counters.  Fault-free runs must always match —
    delay-only schedules exercise the order-obliviousness the
    α-synchronizer guarantees — while faulted runs measure how far the
    output drifts.  ``faults="none"`` is the explicit no-faults
    sentinel so the parameter grids stay JSON-flat.  Records are pure
    functions of the trial spec: the async engine is replay-
    deterministic from ``(seed, delivery, faults)`` by contract
    (``docs/async.md``), and the local telemetry object exists only to
    read the deterministic counters off the run span.
    """
    params = trial.param_dict()
    algo = params.get("algo", "en")
    delivery = str(params.get("delivery", "fifo"))
    faults = str(params.get("faults", "none"))
    fault_arg = None if faults in ("", "none") else faults
    tel = Telemetry()
    # The one-shot MPX competition needs every vertex to decide, so
    # robustness grids give MPX drop faults only (see the
    # `partition_distributed` docstring); a crash through the decision
    # round raises SimulationError.
    run, rounds, phases = _run_protocol(
        graph, params, trial.seed, "robustness",
        backend="async", delivery=delivery, faults=fault_arg, telemetry=tel,
    )
    ref, _, _ = _run_protocol(graph, params, trial.seed, "robustness")
    attrs = next(s for s in tel.spans if s["depth"] == 0)["attrs"]
    decomposition = run.decomposition
    record: Record = {
        "n": graph.num_vertices,
        "m": graph.num_edges,
        "algo": algo,
        "delivery": delivery,
        "faults": faults,
        "rounds": rounds,
        "phases": phases,
        "colors": decomposition.num_colors,
        "clusters": decomposition.num_clusters,
        "disconnected": report(decomposition).num_disconnected_clusters,
        "checksum": _cluster_checksum(decomposition),
        "matches_sync": (
            decomposition.cluster_index_map()
            == ref.decomposition.cluster_index_map()
        ),
    }
    for key in _ASYNC_COUNTER_KEYS:
        record[key] = attrs.get(key, 0)
    # Critical-path figures off the run's causal log (the local
    # telemetry records it alongside the counters): on fault-free FIFO
    # legs the path length equals `rounds` and the drift is zero — the
    # invariant the CI smoke pins — while adversarial legs report how
    # much schedule inflation the binding dependency chain absorbed.
    path = critical_path(tel.causal)
    record["critical_path_rounds"] = path["rounds"]
    record["critical_path_time"] = path["time"]
    record["critical_path_drift"] = path["drift"]
    return record


def _adapt_serving(graph: Graph, trial: TrialSpec) -> Record:
    """Serving-daemon loopback leg: one daemon, one sequential client.

    Builds the oracle, hosts it in an in-process :class:`ServerThread`
    (``workers=0`` — the deterministic in-loop answer path) and drives
    it with a single sequential client, so every counter the record
    carries is a pure function of the trial spec: ``queries`` pairs at
    ``max_batch`` yield an exact batch count, the ``repeat`` replay hits
    the cache (or misses it, capacity permitting) identically every
    run, and the served answers are asserted row-identical to direct
    ``oracle.query`` calls (``matches_direct`` / ``routes_match``).
    Latency and saturation throughput live in
    ``benchmarks/bench_serving.py``, never in cached records.
    """
    from ..serving import ServeClient, ServerConfig, ServerThread

    params = trial.param_dict()
    k = params.get("k")
    c = params.get("c", 4.0)
    budget = params.get("budget", 8.0)
    queries = int(params.get("queries", 256))
    max_batch = int(params.get("max_batch", 32))
    cache = int(params.get("cache", 256))
    repeat = int(params.get("repeat", min(64, queries)))
    oracle = build_oracle(
        graph, k=k, c=c, seed=trial.seed, overlap_budget=budget
    )
    n = graph.num_vertices
    rng = stream(trial.seed, "serving", "queries")
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(queries)] if n else []
    direct_d = oracle.distances(pairs)
    direct_r = oracle.routes(pairs[:repeat])
    config = ServerConfig(
        max_batch=max_batch, max_wait_us=200, cache_size=cache, workers=0
    )
    with ServerThread(oracle, config) as server:
        host, port = server.address
        with ServeClient(host, port) as client:
            served_d = client.distances(pairs)
            replay_d = client.distances(pairs[:repeat])
            served_r = client.routes(pairs[:repeat])
            stats = client.stats()
            client.shutdown()
    return {
        "n": n,
        "m": graph.num_edges,
        "scales": oracle.num_scales,
        "stretch_bound": round(oracle.stretch_bound, 2),
        "queries": len(pairs),
        "max_batch": max_batch,
        "cache": cache,
        "matches_direct": served_d == direct_d,
        "repeat_matches": replay_d == direct_d[:repeat],
        "routes_match": served_r == direct_r,
        "requests": stats["requests"],
        "batches": stats["batches"],
        "batched_pairs": stats["batched_pairs"],
        "largest_batch": stats["largest_batch"],
        "cache_hits": stats["cache"]["hits"],
        "cache_misses": stats["cache"]["misses"],
        "cache_evictions": stats["cache"]["evictions"],
        "errors": stats["errors"],
        "checksum": estimates_checksum(served_d),
    }


#: Algorithm name → adapter.  Registering here exposes the algorithm to
#: every scenario and to ``python -m repro bench``.
ALGORITHMS: Dict[str, Adapter] = {
    "en": _adapt_elkin_neiman,
    "staged": _adapt_staged,
    "high-radius": _adapt_high_radius,
    "linial-saks": _adapt_linial_saks,
    "congest": _adapt_congest,
    "survival": _adapt_survival,
    "strong-vs-weak": _adapt_strong_vs_weak,
    "kernel": _adapt_kernel,
    "engine": _adapt_engine,
    "oracle": _adapt_oracle,
    "shootout": _adapt_shootout,
    "robustness": _adapt_robustness,
    "serving": _adapt_serving,
}


def algorithm_names() -> list[str]:
    """Registered adapter names, sorted."""
    return sorted(ALGORITHMS)


def run_trial(trial: TrialSpec) -> Record:
    """Execute one trial: build its graph, run its adapter, return the record."""
    try:
        adapter = ALGORITHMS[trial.algorithm]
    except KeyError:
        raise ParameterError(
            f"unknown algorithm {trial.algorithm!r} (try one of {algorithm_names()})"
        ) from None
    graph = parse_graph_spec(trial.graph, seed=trial.graph_seed)
    return adapter(graph, trial)
