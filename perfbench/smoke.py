#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs ``run.py`` on every workload at a tiny scale, untraced and then
traced with the same seed, through the same code and correctness gates as
a full run; the traced run also checks the counts the untraced run
recorded for that seed.  Each result line must follow the benchmark's
output contract.  Finally a directory holding only the benchmark, with no
program beside it, must exit non-zero without printing a result.  Exits
non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.05"
TIMEOUT = 180


def _run(cwd, workload: str, trace: int):
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", "1", "--trace", str(trace), "--scale", SCALE,
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def _check_result(declared, workload: str, trace: int) -> None:
    done = _run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        sys.exit(f"{where}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        sys.exit(f"{where}: not correct: {result}\n{done.stderr}")
    wanted = declared["per_layer"] if trace else declared["end_to_end"]
    if list(result["metrics"]) != [m["name"] for m in wanted]:
        sys.exit(f"{where}: metrics {list(result['metrics'])}")
    for metric in wanted:
        value = result["metrics"][metric["name"]]
        if value["unit"] != metric["unit"] or not math.isfinite(value["value"]):
            sys.exit(f"{where}: bad metric {metric['name']}: {value}")
        if not trace and value["value"] <= 0:
            sys.exit(f"{where}: end-to-end metric {metric['name']} is {value['value']}")
    print(f"ok  {where} ({result['attempted']} operations)")


def _check_bare() -> None:
    bare = HERE / ".state" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".state", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = _run(bare, "decompose-gnp", 0)
        if done.returncode == 0 or done.stdout.strip():
            sys.exit(f"bare directory: exit {done.returncode}, stdout {done.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  a directory with no program exits non-zero and prints nothing")


def main() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf8"))
    for workload in declared["workloads"]:
        for trace in (0, 1):
            _check_result(declared, workload["name"], trace)
    _check_bare()


if __name__ == "__main__":
    main()
