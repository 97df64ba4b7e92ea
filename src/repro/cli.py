"""Command-line interface: ``python -m repro <command> ...``.

Subcommands
-----------
``decompose``
    Run Theorem 1/2/3 on a generated graph and print the quality report.
``compare``
    Head-to-head Elkin–Neiman vs Linial–Saks on one graph (the paper's
    strong-vs-weak story).
``apps``
    Solve MIS / colouring / matching over a decomposition and verify.
``spanner``
    Build and measure the cluster spanner of a decomposition.
``theory``
    Print the §1.2 closed-form comparison table for a given ``n``.
``serve``
    Long-lived oracle daemon: newline-delimited JSON over TCP,
    micro-batched queries, optional shared-memory worker pool, LRU
    answer cache (see ``docs/serving.md``).
``loadgen``
    Closed-/open-loop load generator against a running ``serve``
    daemon; reports p50/p99 latency and throughput, optionally
    validates served answers against a locally built oracle.
``bench``
    Run a registered experiment scenario through the orchestration
    runtime: parallel trials (``--workers``), content-addressed result
    cache, aggregated table.  ``bench --list`` shows the registry.
``campaign``
    Multi-scenario sweeps: ``run`` / ``resume`` a registered campaign
    with a crash-safe journal (interrupt at any point, resume to
    byte-identical output), ``status`` an in-flight run, ``compare``
    two JSON artifacts as a perf-regression gate, ``list`` the
    registry.
``trace``
    Inspect telemetry traces recorded with ``--trace PATH`` (or
    ``REPRO_TELEMETRY=PATH``): ``summarize`` the span tree with
    self/cumulative wall time (``--sort self|cum|count`` reorders),
    print the per-round convergence ``timeline`` of a protocol run,
    ``diff`` two traces' span summaries, or ``export`` a trace as
    Chrome trace-event JSON loadable in Perfetto
    (``--format chrome|jsonl``).

The global ``--profile HZ`` flag (or ``REPRO_PROFILE=HZ``) runs any
command under the stdlib sampling profiler: the collapsed flame table
(samples attributed to the open span path) is printed to stderr at
exit and mirrored into the active trace file, if any.  ``--trace`` and
``--profile`` win over their environment variables in both directions:
``--trace off`` and ``--profile off`` disable what the environment
enables.

Graphs are described by compact specs: ``er:200:0.03``, ``grid:10:12``,
``path:50``, ``cycle:64``, ``tree:2:5``, ``hypercube:6``, ``conn:300:0.01``,
``regular:100:4``, ``ws:100:4:0.1`` (see :func:`parse_graph_spec`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import sys
import time
from typing import Sequence

from .analysis import comparison_rows, format_records, report
from .applications import (
    build_spanner,
    run_coloring,
    run_matching,
    run_mis,
)
from .applications.verify import (
    is_maximal_independent_set,
    is_maximal_matching,
    is_proper_vertex_coloring,
)
from .baselines import linial_saks
from .core import elkin_neiman, high_radius, staged
from .errors import ParameterError
from .experiments import (
    CAMPAIGNS,
    CampaignJournal,
    JOURNAL_FILENAME,
    ResultCache,
    SCENARIOS,
    aggregate_experiment,
    build_experiment,
    campaign_names,
    campaign_payload,
    compare_paths,
    default_cache,
    environment_block,
    parse_tolerances,
    per_trial_rows,
    plan_campaign,
    render_campaign,
    run_campaign,
    run_experiment,
    scenario_names,
)
from .graphs import parse_graph_spec
from .oracle import estimates_checksum, validate_sample
from .oracle import load as load_tables
from .rng import DEFAULT_SEED, stream
from .serving import (
    ServeClient,
    ServerConfig,
    default_workers,
    run_closed_loop,
    run_open_loop,
    run_server,
    sample_pairs,
)
from .telemetry import (
    SamplingProfiler,
    Telemetry,
    configure,
    parse_profile_setting,
    parse_setting,
    read_trace,
    resolve,
    shutdown,
)
from .telemetry.critical import critical_path, lag_timeline
from .telemetry.export import export_text
from .telemetry.report import (
    causality_table,
    diff_summaries,
    round_timeline,
    summarize_spans,
)

__all__ = ["parse_graph_spec", "main"]


def _write_text(path: str, text: str) -> pathlib.Path:
    """Write ``text`` to ``path``, creating its parent directories."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf8")
    return target


def _write_json(path: str | None, payload: dict) -> None:
    """Write one ``--json`` artifact (indented, keys sorted), if asked for."""
    if path:
        _write_text(
            path, json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
        )


def _cmd_decompose(args: argparse.Namespace) -> int:
    graph = parse_graph_spec(args.graph, seed=args.seed)
    if args.theorem == 1:
        decomposition, trace = elkin_neiman.decompose(
            graph, k=args.k, c=args.c, seed=args.seed
        )
    elif args.theorem == 2:
        decomposition, trace = staged.decompose(
            graph, k=args.k, c=max(args.c, 6.0), seed=args.seed
        )
    else:
        decomposition, trace = high_radius.decompose(
            graph, lam=args.colors, c=args.c, seed=args.seed
        )
    decomposition.validate()
    q = report(decomposition)
    print(format_records([q.row()], title=f"Theorem {args.theorem} on {args.graph}"))
    print(f"\nphases: {trace.total_phases} (budget {trace.nominal_phases}, "
          f"within: {trace.exhausted_within_nominal})")
    print(f"truncation events: {len(trace.truncation_events)}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    graph = parse_graph_spec(args.graph, seed=args.seed)
    k = args.k or max(2, math.ceil(math.log(max(graph.num_vertices, 2))))
    en, _ = elkin_neiman.decompose(graph, k=k, seed=args.seed)
    ls, _ = linial_saks.decompose(graph, k=k, seed=args.seed)
    rows = []
    for name, decomposition in (("EN16 (strong)", en), ("LS93 (weak)", ls)):
        q = report(decomposition)
        rows.append(
            {
                "algorithm": name,
                "colors": q.num_colors,
                "strongD": q.max_strong_diameter,
                "weakD": q.max_weak_diameter,
                "bound 2k-2": 2 * k - 2,
                "disconnected": q.num_disconnected_clusters,
            }
        )
    print(format_records(rows, title=f"k = {k} on {args.graph}"))
    return 0


def _cmd_apps(args: argparse.Namespace) -> int:
    graph = parse_graph_spec(args.graph, seed=args.seed)
    decomposition, _ = elkin_neiman.decompose(graph, k=args.k, seed=args.seed)
    rows = []
    if args.problem in ("mis", "all"):
        result = run_mis(graph, decomposition, seed=args.seed)
        rows.append(
            {
                "problem": "MIS",
                "result": len(result.independent_set),
                "rounds": result.app.rounds,
                "verified": is_maximal_independent_set(graph, result.independent_set),
            }
        )
    if args.problem in ("coloring", "all"):
        result = run_coloring(graph, decomposition, seed=args.seed)
        rows.append(
            {
                "problem": "coloring",
                "result": result.num_colors_used,
                "rounds": result.app.rounds,
                "verified": is_proper_vertex_coloring(
                    graph, result.colors, max_colors=graph.max_degree() + 1
                ),
            }
        )
    if args.problem in ("matching", "all"):
        result = run_matching(graph, k=args.k, seed=args.seed)
        rows.append(
            {
                "problem": "matching",
                "result": len(result.matching),
                "rounds": result.line_mis.app.rounds,
                "verified": is_maximal_matching(graph, result.matching),
            }
        )
    print(format_records(rows, title=f"applications on {args.graph} (k={args.k})"))
    return 0 if all(row["verified"] for row in rows) else 1


def _cmd_spanner(args: argparse.Namespace) -> int:
    graph = parse_graph_spec(args.graph, seed=args.seed)
    decomposition, _ = elkin_neiman.decompose(graph, k=args.k, seed=args.seed)
    result = build_spanner(graph, decomposition)
    print(format_records(
        [
            {
                "graph edges": graph.num_edges,
                "spanner edges": result.num_edges,
                "tree edges": result.tree_edges,
                "connectors": result.connector_edges,
                "stretch": result.max_stretch,
                "bound 4D+1": result.stretch_bound,
            }
        ],
        title=f"cluster spanner of {args.graph} (k={args.k})",
    ))
    return 0


def _cmd_theory(args: argparse.Namespace) -> int:
    rows = [
        {
            "algorithm": row.algorithm,
            "kind": row.diameter_kind,
            "diameter": round(row.diameter, 1),
            "colors": round(row.colors, 1),
            "rounds": round(row.rounds, 1),
            "deterministic": row.deterministic,
        }
        for row in comparison_rows(args.n, args.k)
    ]
    print(format_records(rows, title=f"closed-form bounds at n = {args.n}"))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.list or args.scenario is None:
        rows = [
            {
                "scenario": name,
                "algorithm": scenario.algorithm,
                "points": len(scenario.points),
                "trials": scenario.trials,
                "description": scenario.description,
            }
            for name, scenario in sorted(SCENARIOS.items())
        ]
        print(format_records(rows, title="registered scenarios"))
        return 0
    # An explicit --seed overrides the scenario's reproducible root seed;
    # otherwise the registry default applies.
    root_seed = args.seed if args.seed_given else None
    spec = build_experiment(args.scenario, trials=args.trials, root_seed=root_seed)
    if args.no_cache:
        cache = None
    elif args.cache_dir:
        cache = ResultCache(args.cache_dir)
    else:
        cache = default_cache()
    result = run_experiment(spec, workers=args.workers, cache=cache)
    rows = per_trial_rows(result) if args.per_trial else aggregate_experiment(result)
    if args.json:
        payload = {
            "scenario": spec.name,
            "algorithm": spec.algorithm,
            "points": len(spec.points),
            "trials": spec.trials,
            "root_seed": spec.root_seed,
            "rows": rows,
            "failures": len(result.failures),
            # Provenance for cross-PR comparability (the rows themselves
            # stay environment-free so cached trials remain portable).
            "environment": environment_block(),
        }
        tel = resolve(None)
        if tel is not None:
            payload["telemetry"] = tel.block()
        _write_json(args.json, payload)
    print(format_records(
        rows,
        title=f"{spec.name}: {spec.trials} trial(s) x {len(spec.points)} point(s), "
        f"algorithm {spec.algorithm!r}, root seed {spec.root_seed}",
    ))
    # Run/cache accounting goes to stderr so the aggregate table on stdout
    # stays byte-identical across --workers settings and warm/cold cache
    # states (--per-trial rows carry a 'cached' column by design).
    print(
        f"trials: {len(result.results)} total, {result.cache_hits} cache hits, "
        f"{result.executed} executed, {len(result.failures)} failed "
        f"(workers={args.workers}, cache={'off' if cache is None else cache.root})",
        file=sys.stderr,
    )
    for failure in result.failures:
        print(
            f"FAILED trial {failure.trial.index} on {failure.trial.graph}: "
            f"{(failure.error or '?').splitlines()[0]}",
            file=sys.stderr,
        )
    return 1 if result.failures else 0


def _parse_shard(setting: str) -> tuple[int, int]:
    """Parse ``--shard I/N`` (zero-based index)."""
    index_text, separator, count_text = setting.partition("/")
    try:
        index, count = int(index_text), int(count_text) if separator else -1
    except ValueError:
        index, count = -1, -1
    if not separator or count < 1 or not 0 <= index < count:
        raise ParameterError(
            f"bad shard {setting!r} (expected INDEX/COUNT with "
            "0 <= INDEX < COUNT, e.g. 0/4)"
        )
    return index, count


def _campaign_dir(args: argparse.Namespace, shard: tuple[int, int]) -> pathlib.Path:
    if args.dir:
        return pathlib.Path(args.dir)
    suffix = f"-shard{shard[0]}of{shard[1]}" if shard[1] > 1 else ""
    return pathlib.Path(".repro-campaigns") / f"{args.name}{suffix}"


def _cmd_campaign_list(args: argparse.Namespace) -> int:
    rows = [
        {
            "campaign": name,
            "members": len(campaign.members),
            "trials": sum(
                member.spec(campaign.root_seed).num_trials
                for member in campaign.members
            ),
            "description": campaign.description,
        }
        for name, campaign in sorted(CAMPAIGNS.items())
    ]
    print(format_records(rows, title="registered campaigns"))
    return 0


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    resume = args.campaign_command == "resume"
    shard = _parse_shard(args.shard)
    plan = plan_campaign(args.name, trials=args.trials, shard=shard)
    directory = _campaign_dir(args, shard)
    journal = CampaignJournal(directory / JOURNAL_FILENAME)
    cache = ResultCache(args.cache_dir or directory / "cache")
    if not resume and args.fresh:
        journal.delete()
    outcome = run_campaign(
        plan,
        cache=cache,
        journal=journal,
        workers=args.workers,
        stop_after=args.stop_after,
        resume=resume,
        log=lambda message: print(message, file=sys.stderr),
    )
    if outcome.interrupted:
        remaining = plan.num_trials - len(journal.read()[1])
        print(
            f"interrupted after {outcome.executed} freshly executed trial(s); "
            f"{remaining} trial(s) remain — continue with "
            f"`repro campaign resume {args.name}"
            + (f" --dir {args.dir}" if args.dir else "")
            + (f" --shard {args.shard}" if shard[1] > 1 else "")
            + (f" --trials {args.trials}" if args.trials else "")
            + (f" --cache-dir {args.cache_dir}" if args.cache_dir else "")
            + "`",
            file=sys.stderr,
        )
        return 3
    # Completed: stdout is a pure function of the campaign definition
    # (resumed and one-shot runs print identical bytes); accounting goes
    # to stderr.
    print(render_campaign(outcome))
    if args.json:
        _write_json(args.json, campaign_payload(outcome))
    failures = outcome.failures
    print(
        f"campaign {plan.name!r}: {plan.num_trials} trial(s) in shard, "
        f"{outcome.executed} executed, {outcome.cache_hits} cache hits, "
        f"{len(failures)} failed (journal {journal.path})",
        file=sys.stderr,
    )
    for failure in failures:
        print(
            f"FAILED trial on {failure.trial.graph}: "
            f"{(failure.error or '?').splitlines()[0]}",
            file=sys.stderr,
        )
    return 1 if failures else 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    shard = _parse_shard(args.shard)
    plan = plan_campaign(args.name, trials=args.trials, shard=shard)
    directory = _campaign_dir(args, shard)
    journal = CampaignJournal(directory / JOURNAL_FILENAME)
    header, entries = journal.read()
    rows = []
    pending_total = 0
    for member_plan in plan.members:
        keys = [trial.key() for trial in member_plan.trials]
        found = [entries[key] for key in keys if key in entries]
        completed, failed = len(found), sum(not entry.ok for entry in found)
        pending = len(member_plan.trials) - completed
        pending_total += pending
        rows.append(
            {
                "member": member_plan.member.name,
                "trials": len(member_plan.trials),
                "completed": completed,
                "failed": failed,
                "pending": pending,
            }
        )
    state = (
        "no journal" if header is None
        else ("complete" if pending_total == 0 else "in progress")
    )
    print(format_records(
        rows,
        title=f"campaign {plan.name!r}: {state} "
        f"(journal {journal.path}, config {plan.config_hash[:12]})",
    ))
    if header is not None and header.get("config_hash") != plan.config_hash:
        print(
            "warning: journal was written by a different campaign "
            "configuration — resume will refuse it",
            file=sys.stderr,
        )
    return 0 if pending_total == 0 and header is not None else 3


def _cmd_campaign_compare(args: argparse.Namespace) -> int:
    report = compare_paths(
        args.baseline,
        args.current,
        tolerances=parse_tolerances(args.tolerance),
        strict_env=args.strict_env,
    )
    if report.findings:
        rows = [
            {
                "status": finding.status,
                "row": finding.label,
                "metric": finding.metric,
                "baseline": finding.baseline,
                "current": finding.current,
                "detail": finding.detail,
            }
            for finding in report.findings
        ]
        print(format_records(
            rows,
            title=f"compare: {args.current} vs baseline {args.baseline}",
        ))
    verdict = "FAIL" if report.exit_code else "OK"
    print(
        f"{verdict}: {report.compared_rows} row(s), "
        f"{report.compared_metrics} metric(s) compared; "
        f"{len(report.failures)} regression(s)/drift(s), "
        f"{sum(1 for f in report.findings if f.status == 'warning')} warning(s), "
        f"{sum(1 for f in report.findings if f.status == 'improved')} improvement(s); "
        f"environments {'match' if report.environment_matches else 'differ'}"
    )
    return report.exit_code


def _add_recipe(parser: argparse.ArgumentParser, graph: str = "graph") -> None:
    """Declare the oracle build recipe that :func:`_load_oracle` reads.

    ``oracle``, ``serve`` and the ``loadgen --validate`` reference (whose
    graph spec is the ``--graph`` option) declare it through here, so the
    tables they load agree for the same flags.
    """
    parser.add_argument(graph, help="graph spec, e.g. gnp_fast:100000:0.00006")
    parser.add_argument(
        "-k", type=float, default=None, help="level-0 k (default ceil(ln n))"
    )
    parser.add_argument("-c", type=float, default=4.0)
    parser.add_argument(
        "--budget",
        type=float,
        default=8.0,
        help="overlap budget: max mean membership slots per vertex "
        "per scale (saturated scales are skipped)",
    )


def _load_oracle(args: argparse.Namespace, telemetry=None):
    """The oracle tables of the recipe :func:`_add_recipe` declared,
    always built fresh (``oracle build|query`` time the build)."""
    return load_tables(
        args.graph,
        seed=args.seed,
        k=args.k,
        c=args.c,
        overlap_budget=args.budget,
        telemetry=telemetry,
        use_cache=False,
    )


def _cmd_oracle(args: argparse.Namespace) -> int:
    # Timing is measured exactly once, by the oracle's own spans: with
    # --trace / REPRO_TELEMETRY the ambient trace collects them, else a
    # local in-memory collector does.  Both feed the stderr lines and
    # the artifact's telemetry block below.
    tel = resolve(None)
    local = tel if tel is not None else Telemetry()
    oracle = _load_oracle(args, telemetry=local)
    graph = oracle.graph
    build_seconds = local.total_seconds("oracle.build")
    scale_rows = oracle.scale_rows()
    print(format_records(
        scale_rows,
        title=f"oracle on {args.graph} (n={graph.num_vertices}, "
        f"m={graph.num_edges}): {oracle.num_scales} scales, "
        f"stretch bound {oracle.stretch_bound:.2f}",
    ))
    if oracle.skipped_radii:
        print(f"skipped saturated scales at W = {oracle.skipped_radii} "
              f"(overlap budget {args.budget})")
    # Wall-clock goes to stderr so stdout stays deterministic per seed.
    print(f"built in {build_seconds:.2f}s", file=sys.stderr)
    payload: dict = {
        "command": f"oracle {args.oracle_command}",
        "graph": args.graph,
        "seed": args.seed,
        "k": oracle.k,
        "c": args.c,
        "overlap_budget": args.budget,
        "n": graph.num_vertices,
        "m": graph.num_edges,
        "scales": scale_rows,
        "skipped_radii": oracle.skipped_radii,
        "stretch_bound": oracle.stretch_bound,
        "build_seconds": round(build_seconds, 3),
    }
    exit_code = 0
    if args.oracle_command == "query":
        n = graph.num_vertices
        rng = stream(args.seed, "oracle", "cli-queries")
        pairs = [
            (rng.randrange(n), rng.randrange(n)) for _ in range(args.pairs)
        ] if n else []
        estimates = oracle.distances(pairs, telemetry=local)
        query_seconds = local.total_seconds("oracle.query")
        validation = validate_sample(oracle, pairs, estimates, args.check)
        violations = validation["violations"]
        reachable = [e for e in estimates if e >= 0]
        summary = {
            "queries": len(pairs),
            "unreachable": len(pairs) - len(reachable),
            "mean_estimate": round(
                sum(reachable) / len(reachable), 3
            ) if reachable else None,
            "checked": validation["checked"],
            "violations": violations,
            "worst_checked_stretch": validation["worst_stretch"],
            "checksum": estimates_checksum(estimates),
        }
        print(format_records(
            [summary],
            title=f"query batch (stretch bound {oracle.stretch_bound:.2f}, "
            f"exact-BFS check on {validation['checked']} pairs)",
        ))
        print(
            f"answered {len(pairs)} queries in {query_seconds:.3f}s "
            f"({len(pairs) / max(query_seconds, 1e-9):,.0f} q/s)",
            file=sys.stderr,
        )
        if args.routes:
            sample = pairs[: args.routes]
            for pair, route in zip(sample, oracle.routes(sample)):
                print(f"route {pair[0]} -> {pair[1]}: "
                      f"{'unreachable' if route is None else route}")
        payload["query"] = summary
        payload["query_seconds"] = round(query_seconds, 3)
        exit_code = 1 if violations else 0
    if args.json:  # the environment block runs git: only when asked
        payload.update(environment=environment_block(), telemetry=local.block())
        _write_json(args.json, payload)
    return exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    workers = args.workers if args.workers is not None else default_workers()
    # Built before the tables, so a bad --port fails at once.
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_wait_us=args.max_wait_us,
        cache_size=args.cache_size,
        workers=workers,
    )
    tel = resolve(None)
    local = tel if tel is not None else Telemetry()
    oracle = _load_oracle(args, telemetry=local)

    def on_ready(host: str, port: int) -> None:
        print(
            f"serving {args.graph} (n={oracle.graph.num_vertices}, "
            f"stretch bound {oracle.stretch_bound:.2f}) on {host}:{port} "
            f"[workers={workers}, max_batch={config.max_batch}, "
            f"max_wait_us={config.max_wait_us}, cache={config.cache_size}]",
            file=sys.stderr,
        )
        if args.ready_file:
            _write_text(args.ready_file, f"{host}:{port}\n")

    try:
        run_server(oracle, config, telemetry=local, ready_callback=on_ready)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    return 0


def _loadgen_address(args: argparse.Namespace) -> tuple[str, int]:
    """The daemon address: ``--addr-file`` (polled) or ``--host``/``--port``."""
    if args.addr_file:
        deadline = time.monotonic() + args.connect_timeout
        path = pathlib.Path(args.addr_file)
        while True:
            try:
                text = path.read_text(encoding="utf8").strip()
            except OSError:
                text = ""
            if text:
                host, _, port = text.rpartition(":")
                if not (host and port.isdigit()):
                    raise ParameterError(
                        f"address file {args.addr_file!r} holds {text!r}, "
                        "not host:port"
                    )
                return host, int(port)
            if time.monotonic() >= deadline:
                raise ParameterError(
                    f"address file {args.addr_file!r} did not appear within "
                    f"{args.connect_timeout:g}s — is the daemon running "
                    "with --ready-file?"
                )
            time.sleep(0.05)
    if args.port is None:
        raise ParameterError("loadgen needs --port (or --addr-file)")
    return args.host, args.port


def _cmd_loadgen(args: argparse.Namespace) -> int:
    host, port = _loadgen_address(args)
    try:
        with ServeClient(host, port) as client:
            stats = client.stats()
    except (OSError, OverflowError) as exc:  # refused, unreachable, bad port
        raise ParameterError(
            f"cannot reach a serve daemon at {host}:{port}: {exc}"
        ) from exc
    n = stats["n"]
    pairs = sample_pairs(n, args.pairs, args.seed)
    if args.mode == "closed":
        report = run_closed_loop(
            host,
            port,
            pairs,
            clients=args.clients,
            requests_per_client=args.requests,
            op=args.op,
            pairs_per_request=args.pairs_per_request,
        )
    else:
        report = run_open_loop(
            host,
            port,
            pairs,
            rate=args.rate,
            duration=args.duration,
            connections=args.clients,
            op=args.op,
            pairs_per_request=args.pairs_per_request,
        )
    row = report.row()
    print(format_records(
        [row],
        title=f"{report.mode}-loop loadgen against {host}:{port} "
        f"(n={n}, workers={stats['workers']}, "
        f"max_batch={stats['max_batch']})",
    ))

    mismatches = 0
    validated = 0
    if args.validate:
        if not args.graph:
            raise ParameterError("--validate needs --graph to build the reference")
        reference = _load_oracle(args)
        if reference.graph.num_vertices != n:
            raise ParameterError(
                f"--graph {args.graph!r} has n={reference.graph.num_vertices} "
                f"but the daemon serves n={n} — not the same tables"
            )
        sample = pairs[: args.validate]
        with ServeClient(host, port) as client:
            served_d = client.distances(sample)
            served_r = client.routes(sample)
        expected = reference.distances(sample) + reference.routes(sample)
        mismatches = sum(a != b for a, b in zip(served_d + served_r, expected))
        validated = len(sample)
        verdict = "row-identical" if mismatches == 0 else f"{mismatches} MISMATCHES"
        print(
            f"validated {validated} served distance+route answers against "
            f"direct oracle.query: {verdict}"
        )

    final_stats = None
    if args.shutdown or args.json:
        with ServeClient(host, port) as client:
            final_stats = client.stats()
            if args.shutdown:
                client.shutdown()

    if args.json:
        _write_json(args.json, {
            "command": "loadgen",
            "benchmark": "serving",
            "host": host,
            "port": port,
            "seed": args.seed,
            "rows": [{"scenario": "serving", **row}],
            "validated": validated,
            "mismatches": mismatches,
            "server": final_stats,
            "environment": environment_block(),
        })
    return 1 if (report.errors or mismatches) else 0


def _load_trace(path: str) -> list[dict]:
    """The records of one trace file, or ``ParameterError`` (exit 2)."""
    try:
        _header, records = read_trace(path)
    except OSError as exc:
        raise ParameterError(f"cannot read trace {path!r}: {exc}") from exc
    if not records:
        raise ParameterError(f"trace {path!r} holds no records")
    return records


#: summarize --sort choices -> (summary-row key, descending).
_SUMMARY_SORT_KEYS = {
    "self": "self_seconds",
    "cum": "seconds",
    "count": "calls",
}


def _format_summary_rows(rows: list[dict], flat: bool = False) -> list[dict]:
    """Flatten summarize_spans rows for the text table.

    ``flat`` prints full span paths without tree indentation — used when
    a ``--sort`` order breaks the parent-before-child layout the
    indentation relies on.
    """
    return [
        {
            "span": row["span"] if flat
            else ("  " * row["depth"]) + row["span"].rsplit("/", 1)[-1],
            "calls": row["calls"],
            "seconds": f"{row['seconds']:.4f}",
            "self": f"{row['self_seconds']:.4f}",
            "errors": row["errors"],
            "counters": ", ".join(
                f"{name}={value:g}"
                for name, value in sorted(row["counters"].items())
            ),
        }
        for row in rows
    ]


def _format_chain_rows(chain: list[dict]) -> list[dict]:
    """Critical-path chain steps as text-table rows (blank where a column
    does not apply to the step's edge kind)."""
    rows = []
    for position, step in enumerate(chain, 1):
        row = dict.fromkeys(("transit", "delay", "fault", "compute"), "")
        if step["edge"] == "msg":
            link = (f"{step['send']}@{step['send_round']} -> "
                    f"{step['recv']}@{step['recv_round']}")
            row.update((key, step[key]) for key in ("transit", "delay", "fault"))
        else:
            link = f"{step['node']}: {step['from_round']} -> {step['to_round']}"
            row["compute"] = step["compute"]
        rows.append({"step": position, "edge": step["edge"], "link": link, **row})
    return rows


def _print_rows(
    rows: list[dict], limit: int, title: str, unit: str = "round(s)"
) -> None:
    """Print at most ``limit`` rows (0 = all); the count cut goes to stderr."""
    print(format_records(rows[:limit] if limit else rows, title=title))
    if limit and len(rows) > limit:
        print(f"... {len(rows) - limit} more {unit}", file=sys.stderr)


def _missing_stream(kind: str, records: list[dict], args) -> ParameterError:
    """The error for a ``--stream`` that has no ``kind`` records."""
    streams = sorted({r.get("stream") for r in records if r.get("kind") == kind})
    return ParameterError(
        f"no {kind} records for stream {args.stream!r} in "
        f"{args.trace_file!r} (streams present: {streams or 'none'})"
    )


def _cmd_trace_export(args: argparse.Namespace) -> int:
    records = _load_trace(args.trace_file)
    text = export_text(records, fmt=args.format)
    if not args.out:
        sys.stdout.write(text)
        return 0
    path = _write_text(args.out, text)
    events = text.count("\n") if args.format == "jsonl" else len(
        json.loads(text)["traceEvents"]
    )
    print(
        f"wrote {events} trace event(s) ({args.format}) to {path}",
        file=sys.stderr,
    )
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    records = _load_trace(args.trace_file)
    rows = summarize_spans(records)
    if args.sort != "path":
        rows = sorted(
            rows, key=lambda row: -row[_SUMMARY_SORT_KEYS[args.sort]]
        )
    rounds = round_timeline(records)
    # The sink and the in-memory collectors are bounded; a trace that
    # overflowed carries `truncated` markers — surface the drop count
    # so a summary is never mistaken for the whole story.
    dropped = sum(
        int(record.get("dropped", 0))
        for record in records
        if record.get("kind") == "truncated"
    )
    title = (
        f"span summary of {args.trace_file} "
        f"({len(rows)} path(s), {len(rounds)} round record(s)"
        + (f", {dropped} record(s) dropped" if dropped else "")
        + ")"
    )
    # The close-time summary record carries the sink's per-kind
    # census — print it as the header so a summary says up front
    # what the trace actually holds (spans vs rounds vs causal ...).
    summary = next(
        (r for r in records if r.get("kind") == "summary"), None
    )
    kinds = dict((summary or {}).get("kinds") or {})
    if kinds:
        print(
            "records: "
            + ", ".join(
                f"{name}={count}" for name, count in sorted(kinds.items())
            )
        )
    print(format_records(
        _format_summary_rows(rows, flat=args.sort != "path"),
        title=title,
    ))
    _write_json(args.json, {
        "command": "trace summarize", "trace": args.trace_file,
        "sort": args.sort, "spans": rows, "rounds": len(rounds),
        "dropped": dropped, "kinds": kinds,
    })
    return 0


def _cmd_trace_timeline(args: argparse.Namespace) -> int:
    records = _load_trace(args.trace_file)
    rows = round_timeline(records, stream=args.stream)
    if not rows:
        raise _missing_stream("round", records, args)
    _print_rows(
        rows, args.limit,
        f"round timeline of {args.trace_file}"
        + (f" (stream {args.stream})" if args.stream else ""),
    )
    _write_json(args.json, {
        "command": "trace timeline", "trace": args.trace_file,
        "stream": args.stream, "rows": rows,
    })
    return 0


def _cmd_trace_causality(args: argparse.Namespace) -> int:
    records = _load_trace(args.trace_file)
    rows = causality_table(records, stream=args.stream)
    if not rows:
        raise _missing_stream("causal", records, args)
    print(format_records(
        rows,
        title=f"causal census of {args.trace_file}"
        + (f" (stream {args.stream})" if args.stream else ""),
    ))
    payload = {"command": "trace causality", "trace": args.trace_file,
               "stream": args.stream, "rows": rows}
    if len(rows) == 1:
        timeline = lag_timeline(records, stream=rows[0]["stream"])
        _print_rows(
            timeline, args.limit, f"lag timeline (stream {rows[0]['stream']})"
        )
        payload["timeline"] = timeline
    _write_json(args.json, payload)
    return 0


def _cmd_trace_critical_path(args: argparse.Namespace) -> int:
    records = _load_trace(args.trace_file)
    try:
        result = critical_path(
            records, stream=args.stream, node=args.node
        )
    except ValueError as exc:
        raise ParameterError(str(exc)) from exc
    attribution = result["attribution"]
    slack = result["slack"]
    print(
        f"critical path of {args.trace_file} (stream {result['stream']}): "
        f"node {result['node']} "
        + ("halts" if result["halted"] else "last seen")
        + f" at round {result['rounds']}, time {result['time']:g} "
        f"(drift {result['drift']:+g}), {len(result['chain'])} step(s)"
    )
    print(
        "attribution: "
        + ", ".join(
            f"{key}={attribution[key]:g}"
            for key in ("transit", "delay", "fault", "compute")
        )
        + f"; slack mean={slack['mean']:g} max={slack['max']:g} "
        f"over {slack['edges']} edge(s)"
    )
    _print_rows(
        _format_chain_rows(result["chain"]), args.limit,
        "critical-path chain", unit="step(s)",
    )
    _write_json(args.json, {
        "command": "trace critical-path", "trace": args.trace_file,
        "trace_stream": args.stream, "pinned_node": args.node, **result,
    })
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    baseline = summarize_spans(_load_trace(args.baseline))
    current = summarize_spans(_load_trace(args.current))
    rows = diff_summaries(baseline, current, tolerance=args.tolerance)
    print(format_records(
        rows,
        title=f"trace diff: {args.current} vs baseline {args.baseline} "
        f"(tolerance {args.tolerance:.0%})",
    ))
    drifted = sum(1 for row in rows if row["status"] != "ok")
    print(
        f"{len(rows)} span path(s) compared, {drifted} drifted",
        file=sys.stderr,
    )
    _write_json(args.json, {
        "command": "trace diff", "baseline": args.baseline,
        "current": args.current, "rows": rows,
    })
    return 0


class _SeedAction(argparse.Action):
    """Store the seed and record that the user passed it explicitly.

    ``bench`` prefers each scenario's reproducible root seed unless the
    user chose one — including choosing a value equal to DEFAULT_SEED —
    so a plain default can't carry that distinction.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.seed_given = True


def _trace_parser(
    tsub, name: str, help_text: str, func, stream: str | None = None,
    rows: str | None = None, json_text: str | None = None,
) -> argparse.ArgumentParser:
    """Declare one ``trace`` subcommand reading ``trace_file``.

    ``stream``, ``rows`` and ``json_text`` word its ``--stream``,
    ``--limit`` and ``--json`` options; a subcommand without one omits it.
    """
    tp = tsub.add_parser(name, help=help_text)
    tp.add_argument("trace_file", help="trace JSONL path")
    if stream:
        tp.add_argument("--stream", default=None, metavar="NAME", help=stream)
    if rows:
        tp.add_argument("--limit", type=int, default=0, metavar="N",
                        help=f"print at most N {rows} (0 = all)")
    if json_text:
        tp.add_argument("--json", default=None, metavar="PATH",
                        help=f"also write {json_text} as JSON to PATH")
    tp.set_defaults(func=func)
    return tp


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed strong-diameter network decomposition "
        "(Elkin & Neiman, PODC 2016) — reproduction toolkit.",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, action=_SeedAction)
    parser.add_argument(
        "--trace",
        default=None,
        metavar="SETTING",
        help="telemetry: 'mem' collects in memory, a path writes a JSONL "
        "trace file, 'off' disables (overrides REPRO_TELEMETRY)",
    )
    parser.add_argument(
        "--profile",
        default=None,
        metavar="HZ",
        help="sample the run's stacks at HZ (or 'on' for the default "
        "rate); the span-attributed flame table prints to stderr and "
        "lands in the trace file, if any (overrides REPRO_PROFILE)",
    )
    parser.set_defaults(seed_given=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="run Theorem 1/2/3 on a graph")
    p.add_argument("graph", help="graph spec, e.g. er:200:0.03")
    p.add_argument("--theorem", type=int, choices=(1, 2, 3), default=1)
    p.add_argument("-k", type=float, default=3)
    p.add_argument("-c", type=float, default=4.0)
    p.add_argument("--colors", type=int, default=3, help="lambda for Theorem 3")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("compare", help="EN16 vs LS93 head-to-head")
    p.add_argument("graph")
    p.add_argument("-k", type=int, default=0, help="0 = ceil(ln n)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("apps", help="MIS / coloring / matching over a decomposition")
    p.add_argument("graph")
    p.add_argument("--problem", choices=("mis", "coloring", "matching", "all"), default="all")
    p.add_argument("-k", type=int, default=3)
    p.set_defaults(func=_cmd_apps)

    p = sub.add_parser("spanner", help="cluster spanner from a decomposition")
    p.add_argument("graph")
    p.add_argument("-k", type=int, default=3)
    p.set_defaults(func=_cmd_spanner)

    p = sub.add_parser("theory", help="closed-form comparison table")
    p.add_argument("n", type=int)
    p.add_argument("-k", type=int, default=None)
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser(
        "oracle",
        help="hierarchical cover-based distance/routing oracle",
    )
    osub = p.add_subparsers(dest="oracle_command", required=True)
    for name, help_text in (
        ("build", "build the multi-scale oracle and print its tables"),
        ("query", "build, then answer a seeded batch of distance queries"),
    ):
        op = osub.add_parser(name, help=help_text)
        _add_recipe(op)
        if name == "query":
            op.add_argument("--pairs", type=int, default=4096, help="query batch size")
            op.add_argument(
                "--check",
                type=int,
                default=64,
                help="answers validated against exact BFS",
            )
            op.add_argument(
                "--routes",
                type=int,
                default=0,
                metavar="R",
                help="print explicit routes for the first R pairs",
            )
        op.add_argument(
            "--json",
            default=None,
            metavar="PATH",
            help="also write the tables/summary as JSON to PATH (CI artifact)",
        )
        op.set_defaults(func=_cmd_oracle)

    p = sub.add_parser(
        "serve",
        help="serve the oracle over TCP (newline-delimited JSON protocol)",
    )
    _add_recipe(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 binds an ephemeral port; see --ready-file)",
    )
    p.add_argument(
        "--max-batch", type=int, default=64,
        help="micro-batch size that triggers an immediate flush",
    )
    p.add_argument(
        "--max-wait-us", type=int, default=500,
        help="max microseconds a pair may wait for batch-mates",
    )
    p.add_argument(
        "--cache-size", type=int, default=4096,
        help="LRU answer-cache capacity in entries (0 disables)",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="worker processes sharing the tables via shared memory "
        "(default: REPRO_SERVE_WORKERS, else 0 = answer in-process)",
    )
    p.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="write 'host:port' to PATH once the socket is bound",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="drive a running serve daemon and report latency/throughput",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None)
    p.add_argument(
        "--addr-file", default=None, metavar="PATH",
        help="read 'host:port' from PATH (polled; pairs with serve --ready-file)",
    )
    p.add_argument(
        "--connect-timeout", type=float, default=10.0, metavar="SECONDS",
        help="how long to wait for --addr-file to appear",
    )
    p.add_argument(
        "--mode", choices=("closed", "open"), default="closed",
        help="closed: one request in flight per client (saturation); "
        "open: fixed-rate schedule, latency from scheduled send time",
    )
    p.add_argument("--clients", type=int, default=4, help="concurrent connections")
    p.add_argument(
        "--requests", type=int, default=100,
        help="requests per client (closed mode)",
    )
    p.add_argument(
        "--rate", type=float, default=1000.0,
        help="offered requests/s across all clients (open mode)",
    )
    p.add_argument(
        "--duration", type=float, default=2.0,
        help="run length in seconds (open mode)",
    )
    p.add_argument("--op", choices=("distance", "route"), default="distance")
    p.add_argument(
        "--pairs", type=int, default=4096,
        help="seeded workload pool size (requests cycle through it)",
    )
    p.add_argument(
        "--pairs-per-request", type=int, default=1,
        help="query pairs carried by each request",
    )
    _add_recipe(p, "--graph")
    p.add_argument(
        "--validate", type=int, default=0, metavar="N",
        help="check N served distance+route answers row-identical against "
        "a locally built oracle (requires --graph; exit 1 on mismatch)",
    )
    p.add_argument(
        "--shutdown", action="store_true",
        help="stop the daemon after the run",
    )
    p.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the compare-ready serving artifact to PATH",
    )
    p.set_defaults(func=_cmd_loadgen)

    p = sub.add_parser("bench", help="run a registered experiment scenario")
    p.add_argument(
        "scenario",
        nargs="?",
        help=f"scenario name ({', '.join(scenario_names())})",
    )
    p.add_argument("--list", action="store_true", help="list scenarios and exit")
    p.add_argument("--trials", type=int, default=None, help="override trials per point")
    p.add_argument("--workers", type=int, default=1, help="process-pool size (1 = serial)")
    p.add_argument("--no-cache", action="store_true", help="recompute every trial")
    p.add_argument("--cache-dir", default=None, help="cache root (default .repro-cache)")
    p.add_argument("--per-trial", action="store_true", help="one row per trial")
    p.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the result rows as JSON to PATH (CI artifact)",
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "campaign",
        help="sharded multi-scenario sweeps with checkpoint/resume and a "
        "perf-baseline comparison gate",
    )
    csub = p.add_subparsers(dest="campaign_command", required=True)

    cp = csub.add_parser("list", help="list registered campaigns")
    cp.set_defaults(func=_cmd_campaign_list)

    for name, help_text in (
        ("run", "start a campaign (refuses an existing journal)"),
        ("resume", "continue an interrupted campaign from its journal"),
    ):
        cp = csub.add_parser(name, help=help_text)
        cp.add_argument("name", help=f"campaign name ({', '.join(campaign_names())})")
        cp.add_argument(
            "--dir",
            default=None,
            metavar="DIR",
            help="run directory holding the journal and trial cache "
            "(default .repro-campaigns/<name>)",
        )
        cp.add_argument(
            "--shard",
            default="0/1",
            metavar="I/N",
            help="run only the trials hashed into shard I of N (default 0/1)",
        )
        cp.add_argument("--trials", type=int, default=None,
                        help="override trials per point for every member")
        cp.add_argument("--workers", type=int, default=1,
                        help="process-pool size (1 = serial)")
        cp.add_argument(
            "--stop-after",
            type=int,
            default=None,
            metavar="N",
            help="cleanly interrupt after N freshly executed trials "
            "(time-boxed legs; resume later)",
        )
        cp.add_argument(
            "--cache-dir",
            default=None,
            help="trial cache root (default <run dir>/cache)",
        )
        if name == "run":
            cp.add_argument(
                "--fresh",
                action="store_true",
                help="discard an existing journal first (content-addressed "
                "cached records are still reused)",
            )
        cp.add_argument(
            "--json",
            default=None,
            metavar="PATH",
            help="write the keyed campaign artifact to PATH on completion",
        )
        cp.set_defaults(func=_cmd_campaign_run)

    cp = csub.add_parser("status", help="show journal progress for a campaign")
    cp.add_argument("name", help="campaign name")
    cp.add_argument("--dir", default=None, metavar="DIR")
    cp.add_argument("--shard", default="0/1", metavar="I/N")
    cp.add_argument("--trials", type=int, default=None)
    cp.set_defaults(func=_cmd_campaign_status)

    cp = csub.add_parser(
        "compare",
        help="diff two bench/campaign JSON artifacts; nonzero exit on "
        "regression beyond tolerance",
    )
    cp.add_argument("current", help="artifact to check (JSON path)")
    cp.add_argument(
        "--baseline",
        required=True,
        metavar="PATH",
        help="baseline artifact to compare against",
    )
    cp.add_argument(
        "--tolerance",
        action="append",
        default=[],
        metavar="NAME=FRAC",
        help="per-metric relative tolerance override (glob patterns "
        "allowed; repeatable)",
    )
    cp.add_argument(
        "--strict-env",
        action="store_true",
        help="treat an environment-block mismatch as a failure instead "
        "of a warning",
    )
    cp.set_defaults(func=_cmd_campaign_compare)

    p = sub.add_parser(
        "trace",
        help="inspect telemetry traces recorded with --trace / REPRO_TELEMETRY",
    )
    tsub = p.add_subparsers(dest="trace_command", required=True)

    tp = _trace_parser(
        tsub, "summarize", "span tree with calls, cumulative and self time",
        _cmd_trace_summarize, json_text="the summary rows",
    )
    tp.add_argument(
        "--sort",
        choices=("path", "self", "cum", "count"),
        default="path",
        help="row order: tree order (path, default), self time, "
        "cumulative time, or call count",
    )
    _trace_parser(
        tsub, "timeline", "per-round convergence timeline of a protocol run",
        _cmd_trace_timeline,
        stream="only this round stream (e.g. en.rounds)",
        rows="rows",
        json_text="the timeline rows",
    )
    _trace_parser(
        tsub, "causality",
        "causal message-log census (edges, halts, Lamport depth, slack)",
        _cmd_trace_causality,
        stream="only this causal stream (e.g. en.causal)",
        rows="lag-timeline rows",
        json_text="the census (and timeline)",
    )
    tp = _trace_parser(
        tsub, "critical-path",
        "longest causal dependency chain ending at a halt, with "
        "per-edge schedule/fault/compute attribution",
        _cmd_trace_critical_path,
        stream="causal stream to analyze (required if the trace mixes streams)",
        rows="chain rows",
        json_text="the full result",
    )
    tp.add_argument("--node", type=int, default=None, metavar="V",
                    help="pin the chain to node V's halt")

    tp = tsub.add_parser("diff", help="diff two traces' span summaries")
    tp.add_argument("current", help="trace to check (JSONL path)")
    tp.add_argument("--baseline", required=True, metavar="PATH",
                    help="baseline trace to compare against")
    tp.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        metavar="FRAC",
        help="relative wall-time drift flagged as slower/faster (default 0.25)",
    )
    tp.add_argument("--json", default=None, metavar="PATH",
                    help="also write the diff rows as JSON to PATH")
    tp.set_defaults(func=_cmd_trace_diff)

    tp = _trace_parser(
        tsub, "export", "convert a trace to Chrome trace-event JSON (Perfetto)",
        _cmd_trace_export,
    )
    tp.add_argument(
        "--format",
        choices=("chrome", "jsonl"),
        default="chrome",
        help="chrome: one trace-event JSON object (default); "
        "jsonl: one trace event per line",
    )
    tp.add_argument("--out", default=None, metavar="PATH",
                    help="write to PATH instead of stdout")
    return parser


#: Flame-table rows printed to stderr after a profiled run.
_PROFILE_STDERR_ROWS = 15


def _report_profile(profiler: SamplingProfiler) -> None:
    """Print the flame table to stderr; mirror it into the trace file."""
    rows = profiler.flame_table()
    shown = rows[:_PROFILE_STDERR_ROWS]
    print(
        format_records(
            shown,
            title=f"profile: {profiler.sample_count} sample(s) at "
            f"{profiler.hz:g} Hz (top {len(shown)} of {len(rows)} frames)",
        ),
        file=sys.stderr,
    )
    tel = resolve(None)
    if tel is not None and tel.sink is not None:
        tel.sink.write(profiler.record())


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    profiler = None
    try:
        # Each flag, when given, wins over its environment variable, also
        # when it turns the feature off.
        if args.trace is not None:
            configure(parse_setting(args.trace))
        hz = parse_profile_setting(
            args.profile if args.profile is not None
            else os.environ.get("REPRO_PROFILE", "off")
        )
        if hz is not None:
            # Bind to the ambient trace (if any) so samples carry the
            # open span path; the sampler only reads, never records.
            profiler = SamplingProfiler(hz, telemetry=resolve(None))
            profiler.start()
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if profiler is not None:
            profiler.stop()
            _report_profile(profiler)
        # Flush and close whatever trace was active (--trace flag or the
        # REPRO_TELEMETRY environment), so the JSONL file carries its
        # summary record even on error exits.
        shutdown()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
