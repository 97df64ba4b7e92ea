"""Span nesting, exception safety, and ambient resolution."""

from __future__ import annotations

import json

import pytest

from repro.errors import ParameterError
from repro.telemetry import (
    Telemetry,
    configure,
    maybe_span,
    parse_setting,
    read_trace,
    reset,
    resolve,
    shutdown,
)


@pytest.fixture(autouse=True)
def _isolated_ambient(monkeypatch):
    """Every test starts and ends with no ambient trace and no env."""
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    reset()
    yield
    reset()


class TestSpanNesting:
    def test_paths_and_depths(self):
        tel = Telemetry()
        with tel.span("outer"):
            with tel.span("middle"):
                with tel.span("inner"):
                    pass
        paths = [(r["path"], r["depth"]) for r in tel.spans]
        # Close order: innermost first.
        assert paths == [
            ("outer/middle/inner", 2),
            ("outer/middle", 1),
            ("outer", 0),
        ]

    def test_siblings_share_parent_path(self):
        tel = Telemetry()
        with tel.span("run"):
            with tel.span("phase"):
                pass
            with tel.span("phase"):
                pass
        assert [r["path"] for r in tel.spans] == ["run/phase", "run/phase", "run"]

    def test_self_seconds_never_exceed_cumulative(self):
        tel = Telemetry()
        with tel.span("outer"):
            with tel.span("inner"):
                sum(range(1000))
        outer = next(r for r in tel.spans if r["name"] == "outer")
        inner = next(r for r in tel.spans if r["name"] == "inner")
        assert 0 <= outer["self_seconds"] <= outer["seconds"]
        assert inner["seconds"] <= outer["seconds"] + 1e-6

    def test_counters_and_attributes(self):
        tel = Telemetry()
        with tel.span("work", label="x") as span:
            span.add("items", 3)
            span.add("items", 2)
            span.annotate(budget=7)
        record = tel.spans[0]
        assert record["counters"] == {"items": 5}
        assert record["attrs"] == {"label": "x", "budget": 7}

    def test_total_seconds_by_name_and_path(self):
        tel = Telemetry()
        with tel.span("build"):
            with tel.span("scale"):
                pass
            with tel.span("scale"):
                pass
        assert tel.total_seconds("scale") == pytest.approx(
            tel.total_seconds("build/scale")
        )
        assert tel.total_seconds("nope") == 0.0


class TestExceptionSafety:
    def test_raising_body_still_closes_the_span(self):
        tel = Telemetry()
        with pytest.raises(ValueError):
            with tel.span("doomed"):
                raise ValueError("boom")
        record = tel.spans[0]
        assert record["status"] == "error"
        assert record["attrs"]["error"] == "ValueError"

    def test_stack_is_clean_after_an_exception(self):
        tel = Telemetry()
        with pytest.raises(RuntimeError):
            with tel.span("outer"):
                with tel.span("inner"):
                    raise RuntimeError
        with tel.span("after"):
            pass
        after = next(r for r in tel.spans if r["name"] == "after")
        assert after["depth"] == 0 and after["path"] == "after"

    def test_parent_of_raising_child_is_marked_too(self):
        tel = Telemetry()
        with pytest.raises(ValueError):
            with tel.span("outer"):
                with tel.span("inner"):
                    raise ValueError
        statuses = {r["name"]: r["status"] for r in tel.spans}
        assert statuses == {"inner": "error", "outer": "error"}


class TestMaybeSpan:
    def test_disabled_mode_yields_none(self):
        with maybe_span(None, "anything") as span:
            assert span is None

    def test_disabled_mode_swallows_nothing(self):
        with pytest.raises(KeyError):
            with maybe_span(None, "anything"):
                raise KeyError

    def test_name_attribute_does_not_collide(self):
        tel = Telemetry()
        with maybe_span(tel, "experiment", name="spec-name"):
            pass
        assert tel.spans[0]["name"] == "experiment"
        assert tel.spans[0]["attrs"] == {"name": "spec-name"}


class TestCollectorBounds:
    def test_limit_truncates_but_keeps_prefix(self):
        tel = Telemetry(limit=2)
        for index in range(3):
            with tel.span(f"s{index}"):
                pass
        assert [r["name"] for r in tel.spans] == ["s0", "s1"]
        assert tel.truncated

    def test_limit_must_be_positive(self):
        with pytest.raises(ParameterError, match="limit"):
            Telemetry(limit=0)

    def test_block_shape(self):
        tel = Telemetry()
        with tel.span("a"):
            pass
        block = tel.block()
        assert block["version"] == "en16.telemetry.v1"
        assert block["sink"] is None
        assert block["rounds"] == 0
        assert block["truncated"] is False
        assert block["spans"][0]["span"] == "a"


class TestAmbientResolution:
    def test_parse_setting_off_variants(self):
        for value in ("", "off", "OFF", "0", "false", "none", "  no  "):
            assert parse_setting(value) is None

    def test_parse_setting_mem_and_path(self, tmp_path):
        assert parse_setting("mem").sink is None
        sink_path = tmp_path / "trace.jsonl"
        tel = parse_setting(str(sink_path))
        assert tel.sink is not None and tel.sink.path == sink_path

    def test_explicit_argument_wins(self):
        ambient = configure(Telemetry())
        mine = Telemetry()
        assert resolve(mine) is mine
        assert resolve(None) is ambient

    def test_environment_is_read_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "mem")
        first = resolve(None)
        assert first is not None
        monkeypatch.setenv("REPRO_TELEMETRY", "off")
        assert resolve(None) is first  # cached until reset()
        reset()
        assert resolve(None) is None

    def test_shutdown_flushes_the_ambient_sink(self, tmp_path):
        sink_path = tmp_path / "trace.jsonl"
        configure(parse_setting(str(sink_path)))
        with resolve(None).span("work"):
            pass
        shutdown()
        header, records = read_trace(sink_path)
        assert header["telemetry_version"] == "en16.telemetry.v1"
        kinds = [record["kind"] for record in records]
        assert kinds == ["span", "summary"]
        assert resolve(None) is None

    def test_artifact_block_serializes(self):
        tel = Telemetry()
        with tel.span("a", graph="er:30:0.2") as span:
            span.add("joined", 4)
        assert json.loads(json.dumps(tel.block()))["spans"][0]["counters"] == {
            "joined": 4
        }
