"""``oracle-torus``: the distance oracle on a high-diameter graph.

Input: ``torus_graph(SIDE, SIDE)``.  A high-diameter graph gets the full
scale ladder (covers at W = 1, 2, 4, ...) and its balls are tiny, so
radius sampling and table compaction outweigh carving: a flood-kernel
change should barely move this workload.  It never runs the batch engine
or the daemon.

A run measures whole passes over ``BUILD_SEEDS`` build seeds, so every
run covers the same inputs.  Each build is followed by three query ops:
``distances`` in 64-pair calls (the numpy path that the daemon's full
batches take), one ``routes`` call, and ``distances`` in 8-pair calls
(the pure-Python path that its small batches take).  The scale ladder,
and so the build's work, varies with the build seed, so the build metric
is the median over the seeds of each seed's median time.  Query cost
differs by up to 2x between ladders, so, as in ``serve-gnp``, the query
ops run against fixed tables (the CLI's default seed) with pairs derived
from ``--seed``.
"""

from __future__ import annotations

import random

from repro.graphs.generators import torus_graph
from repro.oracle import build, estimates_checksum, validate_sample
from repro.rng import DEFAULT_SEED

import layers
from common import median_of_medians, median, peak_rss_mb

SIDE = 60
BUILD_SEEDS = 24
SETUPS = 9
QUERY_PAIRS = 8000
QUERY_BATCH = 64
ROUTE_PAIRS = 2000
SMALL_BATCH = 8
SMALL_PAIRS = 8000
CHECK_PAIRS = 8
CHECK_ROUTES = 200
TABLES_SEED = DEFAULT_SEED

#: The op slots of the end-to-end metrics, in order (``op1_ms`` first).
OPS = ("build", "distances", "routes", "distances_small")


def _in_batches(oracle, pairs, size):
    answers = []
    for start in range(0, len(pairs), size):
        answers.extend(oracle.distances(pairs[start : start + size]))
    return answers


def _route_ok(graph, pair, route, estimate) -> bool:
    s, t = pair
    return (
        route is not None
        and route[0] == s
        and route[-1] == t
        and len(route) - 1 == estimate
        and all(graph.has_edge(u, w) for u, w in zip(route, route[1:]))
    )


def _check(run, label, oracle, pairs, estimates, routes) -> float:
    """Stretch of a sample against exact BFS, and routes that are graph
    paths of the estimated length; returns the worst checked stretch."""
    sample = validate_sample(oracle, pairs, estimates, CHECK_PAIRS)
    run.check(
        sample["violations"] == 0,
        f"{label}: {sample['violations']} of {sample['checked']} estimates outside "
        f"[d, {oracle.stretch_bound:g} d]",
    )
    bad_routes = sum(
        not _route_ok(oracle.graph, pair, route, estimate)
        for pair, route, estimate in zip(pairs, routes, estimates)
    )
    run.check(bad_routes == 0, f"{label}: {bad_routes} routes are not graph paths of the estimated length")
    return sample["worst_stretch"]


def _measure(run, graph, tables, pairs, seeds, seconds):
    """Whole passes over the build seeds, each build followed by the three
    query ops on ``tables``; returns per-op samples grouped by build seed,
    each seed's scale ladder, the worst checked stretch and the number of
    passes."""
    queries = {
        "distances": (_in_batches, tables, pairs, QUERY_BATCH),
        "routes": (tables.routes, pairs[:ROUTE_PAIRS]),
        "distances_small": (_in_batches, tables, pairs[:SMALL_PAIRS], SMALL_BATCH),
    }
    samples = {op: [[] for _ in seeds] for op in OPS}
    ladders = {}
    worst = 0.0

    def one_pass() -> bool:
        nonlocal worst
        for i, seed in enumerate(seeds):
            label = f"build{i}"
            elapsed, oracle = run.timed("build", label, build.build_oracle, graph, seed=seed)
            if oracle is None:
                return False
            samples["build"][i].append(elapsed)
            outputs = {}
            for op, (function, *args) in queries.items():
                elapsed, outputs[op] = run.timed(op, "tables", function, *args)
                if outputs[op] is None:
                    return False
                samples[op][i].append(elapsed)
            sample = pairs[:CHECK_ROUTES]
            estimates = oracle.distances(sample)
            ladder = {
                "scales": [(s.radius, s.num_clusters, s.entries) for s in oracle.scales],
                "skipped": list(oracle.skipped_radii),
                "checksum": estimates_checksum(estimates),
            }
            if label not in run.fingerprints:
                worst = max(worst, _check(run, label, oracle, sample, estimates, oracle.routes(sample)))
            run.fingerprint(label, ladder)
            estimates = outputs["distances"]
            if "tables" not in run.fingerprints:
                worst = max(worst, _check(run, "tables", tables, pairs, estimates, outputs["routes"]))
                run.check(
                    outputs["distances_small"] == estimates[:SMALL_PAIRS],
                    "tables: 8-pair calls disagree with the batched call",
                )
            run.fingerprint("tables", {
                "checksum": estimates_checksum(estimates),
                "small_checksum": estimates_checksum(outputs["distances_small"]),
                "route_hops": sum(len(route) - 1 for route in outputs["routes"]),
            })
            ladders[i] = ladder
        return True

    passes = run.passes(seconds, one_pass)
    return samples, list(ladders.values()), worst, passes


def run_workload(run) -> None:
    run.layers["memory.import_mb"] = peak_rss_mb()
    side = run.size(SIDE, 8)
    setup = []
    for i in range(SETUPS):
        elapsed, graph = run.timed("setup", f"torus{i}", torus_graph, side, side)
        if graph is None:
            return
        setup.append(elapsed)
    run.end_to_end["setup_s"] = median(setup)
    n = graph.num_vertices
    rng = random.Random(run.sub_seed("pairs"))
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(QUERY_PAIRS)]
    seeds = [run.sub_seed("build", i) for i in range(BUILD_SEEDS)]
    tables = build.build_oracle(graph, seed=TABLES_SEED)

    share = run.seconds / 2 if run.traced else run.seconds
    samples, _, worst, passes = _measure(run, graph, tables, pairs, seeds, share)
    for slot, op in enumerate(OPS, start=1):
        run.end_to_end[f"op{slot}_ms"] = median_of_medians(samples[op]) * 1e3
    run.end_to_end["peak_rss_mb"] = peak_rss_mb()
    run.notes["ops"] = (
        f"op1..op4 = build_oracle, distances on {QUERY_PAIRS} pairs in "
        f"{QUERY_BATCH}-pair calls, routes on "
        f"{ROUTE_PAIRS} pairs, distances on {SMALL_PAIRS} pairs in {SMALL_BATCH}-pair calls (ms)"
    )
    run.notes["input"] = (
        f"torus_graph({side}, {side}), n={n}, {BUILD_SEEDS} build seeds; {passes} passes"
    )
    if not run.traced:
        return

    with run.tracing():
        traced, ladders, _, traced_passes = _measure(run, graph, tables, pairs, seeds, share)
    run.layers.update(layers.metrics(run.recorder, traced_passes * len(seeds), OPS))
    run.layers["graphs.generate_s"] = median(setup)
    run.layers["graphs.vertices"] = n
    run.layers["graphs.edges"] = graph.num_edges
    stored = sum(len(ladder["scales"]) for ladder in ladders) / len(ladders)
    run.layers["oracle.build.scales_stored"] = stored
    run.layers["oracle.build.scales_skipped"] = (
        sum(len(ladder["skipped"]) for ladder in ladders) / len(ladders)
    )
    run.layers["oracle.build.entries"] = (
        sum(entries for ladder in ladders for _, _, entries in ladder["scales"]) / len(ladders)
    )
    attempted = run.layers["oracle.build.scales_attempted"]
    run.layers["oracle.build.stored_ratio"] = stored / attempted if attempted else 0.0
    run.layers["oracle.query.distance_us_per_pair"] = (
        median_of_medians(traced["distances"]) / QUERY_PAIRS * 1e6
    )
    run.layers["oracle.query.route_us_per_pair"] = (
        median_of_medians(traced["routes"]) / ROUTE_PAIRS * 1e6
    )
    run.layers["oracle.query.worst_checked_stretch"] = worst
    for slot, op in enumerate(OPS, start=1):
        run.layers[f"trace.overhead.op{slot}_ms"] = (
            median_of_medians(traced[op]) * 1e3 / run.end_to_end[f"op{slot}_ms"]
        )
