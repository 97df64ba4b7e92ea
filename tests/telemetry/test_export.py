"""Chrome trace-event export: mapping, losslessness, schema validation."""

from __future__ import annotations

import json

import pytest

from repro.core.distributed_en import decompose_distributed
from repro.graphs import erdos_renyi
from repro.telemetry import (
    JsonlSink,
    Telemetry,
    chrome_trace,
    read_trace,
    validate_chrome_trace,
)
from repro.telemetry.export import ROUND_TICK_US, export_text


@pytest.fixture()
def traced_run_records(tmp_path):
    """A real trace: seeded distributed-EN run with spans, rounds, hists."""
    path = tmp_path / "run.jsonl"
    tel = Telemetry(sink=JsonlSink(path))
    decompose_distributed(
        erdos_renyi(40, 0.12, seed=5), k=3, seed=2, backend="batch", telemetry=tel
    )
    tel.close()
    _header, records = read_trace(path)
    return records


class TestChromeTraceMapping:
    def test_real_trace_exports_valid_and_complete(self, traced_run_records):
        payload = chrome_trace(traced_run_records)
        validate_chrome_trace(payload)
        phases = {event["ph"] for event in payload["traceEvents"]}
        assert "X" in phases and "C" in phases and "M" in phases
        span_events = [
            e for e in payload["traceEvents"] if e["ph"] == "X"
        ]
        counter_events = [
            e for e in payload["traceEvents"] if e["ph"] == "C"
        ]
        n_spans = sum(1 for r in traced_run_records if r["kind"] == "span")
        n_rounds = sum(1 for r in traced_run_records if r["kind"] == "round")
        assert len(span_events) == n_spans
        assert len(counter_events) == n_rounds

    def test_span_events_carry_real_timeline_and_args(self, traced_run_records):
        payload = chrome_trace(traced_run_records)
        run = next(
            e for e in payload["traceEvents"]
            if e["ph"] == "X" and e["name"] == "en.decompose"
        )
        assert run["ts"] >= 0 and run["dur"] >= 0
        assert run["args"]["attrs"]["backend"] == "batch"
        phase = next(
            e for e in payload["traceEvents"]
            if e["ph"] == "X" and e["name"] == "en.decompose/phase"
        )
        # Children start within the parent on the shared epoch clock.
        assert run["ts"] <= phase["ts"] <= run["ts"] + run["dur"]

    def test_rounds_chart_on_the_synthetic_round_clock(self, traced_run_records):
        payload = chrome_trace(traced_run_records)
        counters = [e for e in payload["traceEvents"] if e["ph"] == "C"]
        rounds = [
            r["round"] for r in traced_run_records if r["kind"] == "round"
        ]
        assert [e["ts"] for e in counters] == sorted(
            r * ROUND_TICK_US for r in rounds
        )
        # Numeric columns chart; the backend label moved to the instant.
        assert "live" in counters[0]["args"]
        assert "backend" not in counters[0]["args"]
        instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert any(e["args"].get("backend") == "batch" for e in instants)

    def test_hists_and_summary_survive_losslessly(self, traced_run_records):
        payload = chrome_trace(traced_run_records)
        hist_records = {
            r["name"]: r for r in traced_run_records if r["kind"] == "hist"
        }
        assert hist_records  # the round stream fed its histogram
        for name, record in hist_records.items():
            exported = payload["otherData"]["hists"][name]
            assert exported["counts"] == record["counts"]
            assert exported["count"] == record["count"]
        assert payload["otherData"]["summary"]["spans"] == sum(
            1 for r in traced_run_records if r["kind"] == "span"
        )

    def test_unknown_and_truncated_records_are_kept(self):
        payload = chrome_trace([
            {"kind": "truncated", "dropped": 3},
            {"kind": "truncated", "dropped": 4},
            {"kind": "mystery", "value": 1},
        ])
        validate_chrome_trace(payload)
        assert payload["otherData"]["truncated_dropped"] == 7
        assert payload["otherData"]["unknown_records"] == [
            {"kind": "mystery", "value": 1}
        ]

    def test_spans_without_start_lay_out_end_to_end(self):
        # Traces recorded before the epoch field still export.
        payload = chrome_trace([
            {"kind": "span", "name": "a", "path": "a", "seconds": 0.001},
            {"kind": "span", "name": "b", "path": "b", "seconds": 0.002},
        ])
        validate_chrome_trace(payload)
        first, second = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert first["ts"] + first["dur"] < second["ts"]


class TestCausalFlows:
    def test_causal_msg_rows_become_paired_flow_events(self, traced_run_records):
        payload = chrome_trace(traced_run_records)
        validate_chrome_trace(payload)
        msg_rows = [
            r for r in traced_run_records
            if r["kind"] == "causal" and r["edge"] == "msg"
        ]
        assert msg_rows  # the traced run recorded provenance
        starts = [e for e in payload["traceEvents"] if e["ph"] == "s"]
        ends = [e for e in payload["traceEvents"] if e["ph"] == "f"]
        assert len(starts) == len(msg_rows)
        assert len(ends) == len(msg_rows)
        assert {e["id"] for e in starts} == {e["id"] for e in ends}
        assert all(e["bp"] == "e" for e in ends)

    def test_flow_events_sit_on_the_round_clock(self):
        payload = chrome_trace([
            {"kind": "causal", "stream": "en.causal", "edge": "msg",
             "send": 3, "send_round": 1, "recv": 7, "recv_round": 2, "count": 1},
            {"kind": "causal", "stream": "en.causal", "edge": "halt",
             "node": 7, "round": 4},
        ])
        validate_chrome_trace(payload)
        start = next(e for e in payload["traceEvents"] if e["ph"] == "s")
        end = next(e for e in payload["traceEvents"] if e["ph"] == "f")
        assert start["ts"] == 1 * ROUND_TICK_US
        assert end["ts"] == 2 * ROUND_TICK_US
        assert start["id"] == end["id"]
        assert start["args"] == {"send": 3, "recv": 7, "count": 1}
        halt = next(
            e for e in payload["traceEvents"]
            if e["ph"] == "i" and e["name"] == "halt"
        )
        assert halt["ts"] == 4 * ROUND_TICK_US
        assert halt["args"] == {"node": 7}

    def test_unpaired_flow_events_are_rejected(self):
        start = {"name": "msg", "ph": "s", "id": 1, "ts": 0, "pid": 2, "tid": 1}
        end = {"name": "msg", "ph": "f", "bp": "e", "id": 1, "ts": 1000,
               "pid": 2, "tid": 1}
        validate_chrome_trace({"traceEvents": [start, end]})
        with pytest.raises(ValueError, match="not paired"):
            validate_chrome_trace({"traceEvents": [start]})
        with pytest.raises(ValueError, match="not paired"):
            validate_chrome_trace({"traceEvents": [end]})
        with pytest.raises(ValueError, match="not paired"):
            validate_chrome_trace(
                {"traceEvents": [start, {**end, "id": 2}]}
            )

    def test_flow_events_need_integer_ids_and_timestamps(self):
        start = {"name": "msg", "ph": "s", "id": 1, "ts": 0, "pid": 2, "tid": 1}
        end = {"name": "msg", "ph": "f", "bp": "e", "id": 1, "ts": 1000,
               "pid": 2, "tid": 1}
        with pytest.raises(ValueError, match="integer id"):
            validate_chrome_trace(
                {"traceEvents": [{**start, "id": "one"}, end]}
            )
        with pytest.raises(ValueError, match="integer id"):
            validate_chrome_trace(
                {"traceEvents": [{**start, "id": True}, end]}
            )
        with pytest.raises(ValueError, match="non-negative integer ts"):
            validate_chrome_trace(
                {"traceEvents": [{**start, "ts": -1000}, end]}
            )


class TestValidation:
    def test_rejects_non_object_payloads(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": "nope"})

    def test_rejects_malformed_events(self):
        good = {"name": "x", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 1}
        validate_chrome_trace({"traceEvents": [good]})
        for broken in (
            {**good, "ph": "Z"},
            {**good, "ts": -1},
            {**good, "dur": None},
            {**good, "name": 7},
            {**good, "pid": "one"},
            {"name": "i", "ph": "i", "ts": 0, "pid": 1, "tid": 1, "s": "x"},
        ):
            with pytest.raises(ValueError):
                validate_chrome_trace({"traceEvents": [broken]})

    def test_rejects_unserializable_payloads(self):
        event = {
            "name": "x", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 1,
            "args": {"bad": object()},
        }
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [event]})


class TestExportText:
    def test_chrome_text_is_one_loadable_object(self, traced_run_records):
        text = export_text(traced_run_records, fmt="chrome")
        payload = json.loads(text)
        validate_chrome_trace(payload)
        assert text.endswith("\n")

    def test_jsonl_text_is_one_event_per_line(self, traced_run_records):
        lines = export_text(traced_run_records, fmt="jsonl").strip().split("\n")
        chrome = json.loads(export_text(traced_run_records, fmt="chrome"))
        assert [json.loads(line) for line in lines] == chrome["traceEvents"]

    def test_unknown_format_is_rejected(self, traced_run_records):
        with pytest.raises(ValueError):
            export_text(traced_run_records, fmt="svg")
