"""The JSONL sink: header, bounds, torn-tail recovery."""

from __future__ import annotations

import json

import pytest

from repro.errors import ParameterError
from repro.telemetry import JsonlSink, Telemetry, read_trace
from repro.telemetry.sink import TELEMETRY_VERSION, records_of_kind


class TestJsonlSink:
    def test_header_is_the_first_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.write({"kind": "span", "name": "a"})
        sink.close()
        first = json.loads(path.read_text().splitlines()[0])
        assert first["kind"] == "header"
        assert first["telemetry_version"] == TELEMETRY_VERSION

    def test_lazy_open_creates_no_file_when_silent(self, tmp_path):
        path = tmp_path / "never.jsonl"
        sink = JsonlSink(path)
        sink.close()
        assert not path.exists()

    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        for index in range(3):
            sink.write({"kind": "round", "round": index})
        sink.close()
        header, records = read_trace(path)
        assert header is not None
        assert [record["round"] for record in records] == [0, 1, 2]

    def test_bound_drops_and_marks(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path, limit=2)
        for index in range(5):
            sink.write({"kind": "span", "index": index})
        assert sink.truncated and sink.dropped == 3
        sink.close()
        _, records = read_trace(path)
        assert [record["index"] for record in records_of_kind(records, "span")] == [0, 1]
        marker = records_of_kind(records, "truncated")
        assert marker == [{"kind": "truncated", "dropped": 3}]

    def test_limit_must_be_positive(self, tmp_path):
        with pytest.raises(ParameterError, match="limit"):
            JsonlSink(tmp_path / "x.jsonl", limit=0)


class TestTornTailRecovery:
    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.write({"kind": "span", "name": "kept"})
        sink.close()
        with path.open("a", encoding="utf8") as handle:
            handle.write('{"kind": "span", "name": "to')  # killed mid-write
        header, records = read_trace(path)
        assert header is not None
        assert [record["name"] for record in records] == ["kept"]

    def test_garbage_lines_are_skipped_everywhere(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "\n".join(
                [
                    "not json at all",
                    '{"kind": "round", "round": 1}',
                    "[1, 2, 3]",
                    '"just a string"',
                    "",
                    '{"kind": "round", "round": 2}',
                ]
            )
        )
        header, records = read_trace(path)
        assert header is None  # damaged trace stays inspectable
        assert [record["round"] for record in records] == [1, 2]


class TestTelemetrySinkIntegration:
    def test_spans_and_rounds_mirror_to_the_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tel = Telemetry(sink=JsonlSink(path))
        stream = tel.round_stream("test.rounds", backend="sync")
        with tel.span("run"):
            pass
        from repro.distributed.metrics import NetworkStats

        stats = NetworkStats()
        stats.messages_sent = 4
        stats.words_sent = 8
        stats.messages_delivered = 4
        stream.note_frontier(2)
        stream.end_round(1, stats, live=10)
        tel.close()
        header, records = read_trace(path)
        # The round stream feeds its wall-time histogram, flushed at close.
        assert [record["kind"] for record in records] == [
            "span", "round", "hist", "summary",
        ]
        round_record = records[1]
        assert round_record["stream"] == "test.rounds"
        assert round_record["backend"] == "sync"
        assert round_record["frontier"] == 2 and round_record["messages"] == 4

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tel = Telemetry(sink=JsonlSink(path))
        with tel.span("once"):
            pass
        tel.close()
        tel.close()
        _, records = read_trace(path)
        assert len(records_of_kind(records, "summary")) == 1
