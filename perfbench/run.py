#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload decompose-gnp --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's ``src/`` (nothing is installed) and driven only through its
public functions and the ``repro serve`` CLI.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the metrics are the ``end_to_end`` ones of ``BENCHMARK.json``,
measured with no instrumentation; with ``--trace 1`` they are its
``per_layer`` ones, from a pass that wraps each layer's public functions
in the benchmark's own spans (``spans.py``, ``layers.py``).  A
human-readable report goes to standard error; a record of the run (its
environment, notes and, when traced, its spans) is written under
``perfbench/.state/``.

Workloads (see each module's docstring and ``BENCHMARK.json``):
``decompose-gnp`` (``decompose_gnp.py``), ``oracle-torus``
(``oracle_torus.py``) and ``serve-gnp`` (``serve_gnp.py``).  Every
workload reports every end-to-end metric: ``setup_s``, ``peak_rss_mb``
and four op slots ``op1_ms``..``op4_ms``, whose meaning per workload is
given in its module and in the report.  Every time is wall time as
measured; the per-layer ``machine.kernel_ms`` times a fixed pure-Python
loop during the run, so a run on a slow machine shows as such.

Exit status: 0 when every operation and correctness gate passed, 1 when
one failed (the JSON line still prints, with ``correct: false``), 2 when
the checkout has no program to run (nothing is printed on stdout).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import sys
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = HERE / ".state"

WORKLOADS = {
    "decompose-gnp": "decompose_gnp",
    "oracle-torus": "oracle_torus",
    "serve-gnp": "serve_gnp",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every input size (the smoke test runs at a tiny scale)",
    )
    return parser.parse_args(argv)


def _source_digest() -> str:
    """Identifies the program and the benchmark, so recorded counts are
    compared only against runs of the same code and input sizes."""
    hasher = hashlib.sha256()
    for path in sorted([*(SRC / "repro").rglob("*.py"), *HERE.glob("*.py")]):
        hasher.update(str(path.relative_to(ROOT)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def _check_across_runs(run, args) -> None:
    """Counts fixed by the seed must match every earlier run of the same
    source, workload, scale and seed; a mismatch fails this run."""
    ledger_path = STATE / "fingerprints.json"
    key = f"{args.workload}|scale={args.scale:g}|seed={args.seed}|src={_source_digest()}"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    recorded = ledger.get(key, {})
    for label, counts in run.fingerprints.items():
        if label in recorded and recorded[label] != counts:
            run.fail(
                f"counts for {label} differ from an earlier run with the same seed: "
                f"{recorded[label]} != {counts}"
            )
    ledger[key] = {**recorded, **run.fingerprints}
    partial = ledger_path.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    os.replace(partial, ledger_path)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf8"))
    # The benchmark measures the program with its own telemetry off, and
    # git (for the environment record) must not look above the checkout.
    os.environ["REPRO_TELEMETRY"] = "off"
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from repro.experiments.env import environment_block

    from common import Run

    STATE.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, STATE)
    workload = __import__(WORKLOADS[args.workload])
    try:
        workload.run_workload(run)
    except Exception as exc:  # a broken program still gets a result line
        traceback.print_exc()
        run.fail(f"{args.workload} stopped: {exc!r}")
    _check_across_runs(run, args)
    if run.kernel:
        from common import median

        run.layers["machine.kernel_ms"] = median(run.kernel) * 1e3

    attempted = max(run.attempted, 1)
    run.layers["error_rate"] = run.failed / attempted
    wanted = declared["per_layer"] if run.traced else declared["end_to_end"]
    source = run.layers if run.traced else run.end_to_end
    metrics = {}
    unmeasured = []
    for metric in wanted:
        name = metric["name"]
        if name not in source:
            if not run.traced:
                run.fail(f"end-to-end metric {name} was not measured")
                continue
            unmeasured.append(name)
        metrics[name] = {"value": float(source.get(name, 0.0)), "unit": metric["unit"]}
    if unmeasured:
        run.notes["not exercised (reported as 0)"] = ", ".join(unmeasured)

    record = {
        "args": vars(args),
        "environment": environment_block(),
        "nproc": len(os.sched_getaffinity(0)),
        "attempted": attempted,
        "failed": run.failed,
        "problems": run.problems,
        "notes": run.notes,
        "metrics": metrics,
        "fingerprints": run.fingerprints,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (STATE / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if run.recorder is not None:
        run.recorder.dump(STATE / f"{stem}-spans.json")

    _report(record)
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": min(run.failed, attempted),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _report(record) -> None:
    out = sys.stderr
    args = record["args"]
    env = record["environment"]
    print(
        f"{args['workload']} seed={args['seed']} trace={args['trace']} "
        f"python={env['python']} numpy={env['numpy']} kernel={env['kernel_backend']} "
        f"git={env['git_sha']} nproc={record['nproc']}",
        file=out,
    )
    for key, note in record["notes"].items():
        print(f"  {key}: {note}", file=out)
    for name, metric in record["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}", file=out)
    print(f"  attempted={record['attempted']} failed={record['failed']}", file=out)
    for problem in record["problems"]:
        print(f"  FAILED: {problem}", file=out)


if __name__ == "__main__":
    sys.exit(main())
