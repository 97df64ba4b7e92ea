"""The ``--trace`` flag and the ``repro trace`` reporting commands."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.distributed_en import decompose_distributed
from repro.graphs import erdos_renyi
from repro.telemetry import JsonlSink, Telemetry, read_trace, reset


@pytest.fixture(autouse=True)
def _isolated_ambient(monkeypatch):
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    reset()
    yield
    reset()


@pytest.fixture()
def trace_file(tmp_path):
    """A real trace: a seeded distributed-EN run mirrored to JSONL."""
    path = tmp_path / "run.jsonl"
    tel = Telemetry(sink=JsonlSink(path))
    decompose_distributed(
        erdos_renyi(40, 0.12, seed=5), k=3, seed=2, backend="batch", telemetry=tel
    )
    tel.close()
    return path


class TestTraceFlag:
    def test_traced_command_writes_a_readable_trace(self, tmp_path, capsys):
        path = tmp_path / "cli.jsonl"
        assert main(["--trace", str(path), "oracle", "build", "grid:6:6"]) == 0
        capsys.readouterr()
        header, records = read_trace(path)
        assert header["telemetry_version"] == "en16.telemetry.v1"
        names = {r.get("name") for r in records if r.get("kind") == "span"}
        assert "oracle.build" in names and "scale" in names

    def test_trace_off_setting_is_accepted(self, capsys):
        assert main(["--trace", "off", "oracle", "build", "grid:5:5"]) == 0

    def test_trace_off_overrides_the_environment(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_TELEMETRY", str(path))
        assert main(["--trace", "off", "oracle", "build", "grid:6:6"]) == 0
        assert not path.exists()
        assert main(["oracle", "build", "grid:6:6"]) == 0
        assert path.exists()

    def test_every_oracle_build_is_timed(self, tmp_path, capsys):
        """The oracle load memo must not turn a repeated build into an
        untimed hit: each invocation writes its own oracle.build span."""
        for name in ("first", "second"):
            path = tmp_path / f"{name}.jsonl"
            assert main(["--trace", str(path), "oracle", "build", "grid:6:6"]) == 0
            _header, records = read_trace(path)
            assert any(
                r.get("name") == "oracle.build"
                for r in records if r.get("kind") == "span"
            )

    def test_oracle_artifact_always_carries_telemetry_block(self, tmp_path, capsys):
        path = tmp_path / "oracle.json"
        argv = [
            "oracle", "query", "er:48:0.08",
            "--pairs", "50", "--json", str(path),
        ]
        assert main(argv) == 0
        payload = json.loads(path.read_text())
        block = payload["telemetry"]
        assert block["version"] == "en16.telemetry.v1"
        spans = {row["span"] for row in block["spans"]}
        assert "oracle.build" in spans
        assert any(span.startswith("oracle.query") for span in spans)


class TestTraceSummarize:
    def test_exits_zero_and_prints_the_tree(self, trace_file, capsys):
        assert main(["trace", "summarize", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "en.decompose" in out
        assert "phase" in out
        assert "round record(s)" in out

    def test_header_prints_per_kind_record_counts(self, trace_file, capsys):
        assert main(["trace", "summarize", str(trace_file)]) == 0
        out = capsys.readouterr().out
        header = next(
            line for line in out.splitlines() if line.startswith("records:")
        )
        assert "causal=" in header and "round=" in header and "span=" in header

    def test_json_artifact(self, trace_file, tmp_path, capsys):
        artifact = tmp_path / "summary.json"
        argv = ["trace", "summarize", str(trace_file), "--json", str(artifact)]
        assert main(argv) == 0
        payload = json.loads(artifact.read_text())
        assert payload["command"] == "trace summarize"
        paths = [row["span"] for row in payload["spans"]]
        assert "en.decompose" in paths and "en.decompose/phase" in paths

    def test_missing_file_is_a_parameter_error(self, tmp_path, capsys):
        assert main(["trace", "summarize", str(tmp_path / "absent.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


class TestTraceTimeline:
    def test_stream_rows_in_emit_order(self, trace_file, capsys):
        assert main(["trace", "timeline", str(trace_file), "--stream", "en.rounds"]) == 0
        out = capsys.readouterr().out
        assert "frontier" in out and "halts" in out

    def test_unknown_stream_lists_available(self, trace_file, capsys):
        code = main(["trace", "timeline", str(trace_file), "--stream", "nope"])
        assert code == 2
        err = capsys.readouterr().err
        assert "en.rounds" in err

    def test_json_rows_reconcile_with_the_run(self, trace_file, tmp_path, capsys):
        artifact = tmp_path / "timeline.json"
        argv = ["trace", "timeline", str(trace_file), "--json", str(artifact)]
        assert main(argv) == 0
        rows = json.loads(artifact.read_text())["rows"]
        assert rows and all(row["stream"] == "en.rounds" for row in rows)
        assert sum(row["halts"] for row in rows) == 40


class TestTraceCausality:
    def test_census_table_and_lag_timeline(self, trace_file, capsys):
        assert main(["trace", "causality", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "en.causal" in out
        assert "lamport" in out
        assert "lag timeline" in out

    def test_json_artifact(self, trace_file, tmp_path, capsys):
        artifact = tmp_path / "causality.json"
        argv = ["trace", "causality", str(trace_file), "--json", str(artifact)]
        assert main(argv) == 0
        payload = json.loads(artifact.read_text())
        assert payload["command"] == "trace causality"
        assert payload["rows"][0]["stream"] == "en.causal"
        assert payload["rows"][0]["edges"] > 0
        assert payload["timeline"]

    def test_unknown_stream_is_a_parameter_error(self, trace_file, capsys):
        argv = ["trace", "causality", str(trace_file), "--stream", "nope"]
        assert main(argv) == 2
        assert "streams present" in capsys.readouterr().err


class TestTraceCriticalPath:
    def test_prints_headline_attribution_and_chain(self, trace_file, capsys):
        assert main(["trace", "critical-path", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "critical path of" in out
        assert "attribution:" in out
        assert "critical-path chain" in out

    def test_json_artifact_carries_the_invariant(
        self, trace_file, tmp_path, capsys
    ):
        artifact = tmp_path / "critical.json"
        argv = [
            "trace", "critical-path", str(trace_file), "--json", str(artifact)
        ]
        assert main(argv) == 0
        payload = json.loads(artifact.read_text())
        assert payload["command"] == "trace critical-path"
        # The fixture run is fault-free batch: zero drift by contract.
        assert payload["drift"] == 0
        assert payload["halted"] is True
        assert payload["chain"]

    def test_node_pin(self, trace_file, capsys):
        assert main(
            ["trace", "critical-path", str(trace_file), "--node", "0"]
        ) == 0
        assert "node 0" in capsys.readouterr().out

    def test_trace_without_causal_rows_is_a_parameter_error(
        self, tmp_path, capsys
    ):
        spans_only = tmp_path / "spans.jsonl"
        spans_only.write_text(
            json.dumps({"kind": "span", "name": "x", "seconds": 0.1}) + "\n"
        )
        assert main(["trace", "critical-path", str(spans_only)]) == 2
        assert "no causal records" in capsys.readouterr().err


class TestTraceDiff:
    def test_same_trace_diffs_clean(self, trace_file, tmp_path, capsys):
        artifact = tmp_path / "diff.json"
        argv = [
            "trace", "diff", str(trace_file), "--baseline", str(trace_file),
            "--json", str(artifact),
        ]
        assert main(argv) == 0
        payload = json.loads(artifact.read_text())
        assert payload["command"] == "trace diff"
        assert all(row["status"] == "ok" for row in payload["rows"])

    def test_structural_drift_is_flagged(self, trace_file, tmp_path, capsys):
        other = tmp_path / "other.jsonl"
        tel = Telemetry(sink=JsonlSink(other))
        with tel.span("en.decompose"):
            pass
        with tel.span("extra.stage"):
            pass
        tel.close()
        artifact = tmp_path / "drift.json"
        argv = [
            "trace", "diff", str(other), "--baseline", str(trace_file),
            "--json", str(artifact),
        ]
        assert main(argv) == 0
        statuses = {
            row["span"]: row["status"]
            for row in json.loads(artifact.read_text())["rows"]
        }
        assert statuses["extra.stage"] == "added"
        assert statuses["en.decompose/phase"] == "removed"


class TestTraceSummarizeSort:
    def test_sort_self_prints_full_paths_ordered_by_self_time(
        self, trace_file, tmp_path, capsys
    ):
        artifact = tmp_path / "sorted.json"
        argv = [
            "trace", "summarize", str(trace_file),
            "--sort", "self", "--json", str(artifact),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        # Flat mode: the child row keeps its full slash path.
        assert "en.decompose/phase" in out
        rows = json.loads(artifact.read_text())["spans"]
        selfs = [row["self_seconds"] for row in rows]
        assert selfs == sorted(selfs, reverse=True)

    def test_sort_count_orders_by_calls(self, trace_file, tmp_path):
        artifact = tmp_path / "counts.json"
        argv = [
            "trace", "summarize", str(trace_file),
            "--sort", "count", "--json", str(artifact),
        ]
        assert main(argv) == 0
        calls = [row["calls"] for row in json.loads(artifact.read_text())["spans"]]
        assert calls == sorted(calls, reverse=True)

    def test_truncation_count_surfaces_in_the_header(self, tmp_path, capsys):
        path = tmp_path / "truncated.jsonl"
        records = [
            {"kind": "span", "name": "a", "path": "a", "depth": 0,
             "status": "ok", "seconds": 0.1, "self_seconds": 0.1,
             "attrs": {}, "counters": {}},
            {"kind": "truncated", "dropped": 7},
        ]
        path.write_text(
            "\n".join(json.dumps(record) for record in records) + "\n",
            encoding="utf8",
        )
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "7 record(s) dropped" in out

    def test_untruncated_header_stays_clean(self, trace_file, capsys):
        assert main(["trace", "summarize", str(trace_file)]) == 0
        assert "dropped" not in capsys.readouterr().out


class TestTraceExport:
    def test_chrome_export_to_stdout_is_valid(self, trace_file, capsys):
        from repro.telemetry import validate_chrome_trace

        assert main(["trace", "export", str(trace_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        validate_chrome_trace(payload)
        names = {e["name"] for e in payload["traceEvents"]}
        assert "en.decompose" in names

    def test_chrome_export_to_file(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "trace.chrome.json"
        argv = ["trace", "export", str(trace_file), "--out", str(out_path)]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "trace event(s)" in err
        payload = json.loads(out_path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["hists"]

    def test_jsonl_export_one_event_per_line(self, trace_file, capsys):
        argv = ["trace", "export", str(trace_file), "--format", "jsonl"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert all(
            json.loads(line)["ph"] in ("X", "C", "i", "M", "s", "f")
            for line in lines
        )

    def test_missing_file_is_a_parameter_error(self, tmp_path, capsys):
        assert main(["trace", "export", str(tmp_path / "absent.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


class TestProfileFlag:
    @pytest.fixture(autouse=True)
    def _no_profile_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)

    def test_profiled_command_prints_the_flame_table(self, capsys):
        assert main(["--profile", "500", "oracle", "build", "grid:6:6"]) == 0
        err = capsys.readouterr().err
        assert "profile:" in err and "Hz" in err

    def test_profile_record_lands_in_the_trace_file(self, tmp_path, capsys):
        path = tmp_path / "profiled.jsonl"
        argv = [
            "--trace", str(path), "--profile", "500",
            "oracle", "build", "grid:6:6",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        _header, records = read_trace(path)
        profiles = [r for r in records if r["kind"] == "profile"]
        assert len(profiles) == 1
        assert profiles[0]["hz"] == 500.0

    def test_profile_without_trace_attributes_spans(self, tmp_path, monkeypatch, capsys):
        """Without --trace a profiled run keeps an in-memory trace, so its
        rows carry span paths; it writes no file and stdout is the same."""
        monkeypatch.chdir(tmp_path)
        assert main(["oracle", "build", "grid:30:30"]) == 0
        plain = capsys.readouterr().out
        assert main(["--profile", "500", "oracle", "build", "grid:30:30"]) == 0
        captured = capsys.readouterr()
        assert "oracle.build" in captured.err
        assert captured.out == plain
        assert list(tmp_path.iterdir()) == []

    def test_trace_off_keeps_profile_rows_unattributed(self, capsys):
        assert main(["--trace", "off", "--profile", "500", "oracle", "build", "grid:30:30"]) == 0
        err = capsys.readouterr().err
        assert "profile:" in err and "oracle.build" not in err

    def test_bad_profile_setting_is_a_parameter_error(self, capsys):
        assert main(["--profile", "warp", "oracle", "build", "grid:5:5"]) == 2
        assert "profile" in capsys.readouterr().err

    def test_disabled_by_default(self, capsys):
        assert main(["oracle", "build", "grid:6:6"]) == 0
        assert "profile:" not in capsys.readouterr().err

    def test_env_setting_profiles_too(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_PROFILE", "on")
        assert main(["oracle", "build", "grid:6:6"]) == 0
        assert "profile:" in capsys.readouterr().err

    def test_profile_off_overrides_the_environment(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_PROFILE", "on")
        assert main(["--profile", "off", "oracle", "build", "grid:6:6"]) == 0
        assert "profile:" not in capsys.readouterr().err

    def test_flag_rate_beats_the_environment_rate(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_PROFILE", "10")
        assert main(["--profile", "50", "oracle", "build", "grid:6:6"]) == 0
        assert " at 50 Hz " in capsys.readouterr().err
        assert main(["oracle", "build", "grid:6:6"]) == 0
        assert " at 10 Hz " in capsys.readouterr().err

    def test_env_is_read_on_every_invocation(self, monkeypatch, capsys):
        """No setting outlives a command: a changed REPRO_PROFILE takes
        effect on the next invocation in the same process."""
        monkeypatch.setenv("REPRO_PROFILE", "10")
        assert main(["oracle", "build", "grid:6:6"]) == 0
        assert " at 10 Hz " in capsys.readouterr().err
        monkeypatch.setenv("REPRO_PROFILE", "20")
        assert main(["oracle", "build", "grid:6:6"]) == 0
        assert " at 20 Hz " in capsys.readouterr().err
        monkeypatch.delenv("REPRO_PROFILE")
        assert main(["oracle", "build", "grid:6:6"]) == 0
        assert "profile:" not in capsys.readouterr().err
