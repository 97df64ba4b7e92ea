"""Golden CLI output: fixed invocations must print byte-identical stdout.

``tests/data/golden_cli.json`` maps each invocation (its argv joined by
spaces) to the exit code and the SHA-256 of everything it printed to
stdout.  The list covers the paper's commands (Theorems 1-3, the EN/LS
comparison, applications, spanner, the closed-form table), the oracle,
the experiment runtime's deterministic surfaces and the trace reports.
Commands whose stdout carries wall time (``trace summarize``,
``trace diff``, ``trace export``, ``loadgen``) are left out.  The suite
runs on both kernels (CI's ``REPRO_KERNEL=py`` leg includes this file),
so the fixture pins the numpy and the pure-Python paths alike.

The trace reports read a trace this module writes from a seeded batch
distributed-EN run; they are run from the trace's directory with a
relative path, because their titles print the path.

Regenerate (only for a deliberate change of the output) with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import tempfile

import pytest

from repro.cli import main
from repro.core.distributed_en import decompose_distributed
from repro.graphs import erdos_renyi
from repro.telemetry import JsonlSink, Telemetry, reset

FIXTURE = pathlib.Path(__file__).parent / "data" / "golden_cli.json"

#: The trace the ``trace ...`` invocations read, relative to their cwd.
TRACE = "run.jsonl"

INVOCATIONS = [
    "decompose er:200:0.03 -k 3",
    "decompose er:200:0.03 -k 3 --theorem 2",
    "decompose er:200:0.03 --theorem 3 --colors 3",
    "compare er:120:0.05",
    "apps er:80:0.06",
    "spanner er:80:0.06",
    "theory 1000",
    "oracle build grid:8:8",
    "oracle query gnp_fast:256:0.02 --pairs 300 --check 24 --routes 2",
    "bench smoke --trials 2 --no-cache",
    "bench --list",
    "campaign list",
    f"trace timeline {TRACE}",
    f"trace timeline {TRACE} --limit 3",
    f"trace causality {TRACE}",
    f"trace causality {TRACE} --limit 2",
    f"trace critical-path {TRACE}",
    f"trace critical-path {TRACE} --limit 2",
]


def write_trace(directory: pathlib.Path) -> None:
    """The seeded distributed-EN trace the ``trace`` invocations read."""
    tel = Telemetry(sink=JsonlSink(directory / TRACE))
    decompose_distributed(
        erdos_renyi(40, 0.12, seed=5), k=3, seed=2, backend="batch", telemetry=tel
    )
    tel.close()


def run(invocation: str) -> dict:
    """Exit code and stdout digest of one in-process ``repro`` invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(invocation.split())
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf8")).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf8"))


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden-cli")
    write_trace(directory)
    return directory


@pytest.fixture(autouse=True)
def _untraced(monkeypatch, trace_dir):
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    monkeypatch.chdir(trace_dir)
    reset()
    yield
    reset()


def test_fixture_lists_every_invocation(golden):
    assert sorted(golden) == sorted(INVOCATIONS)


@pytest.mark.parametrize("invocation", INVOCATIONS)
def test_cli_stdout_golden(golden, invocation, capsys):
    assert run(invocation) == golden[invocation]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        write_trace(pathlib.Path(scratch))
        here = os.getcwd()
        os.chdir(scratch)
        try:
            records = {invocation: run(invocation) for invocation in INVOCATIONS}
        finally:
            os.chdir(here)
    FIXTURE.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf8")
    print(f"wrote {len(records)} invocations to {FIXTURE}")
