"""The sampling profiler: setting parsing, lifecycle, span attribution."""

from __future__ import annotations

import time

import pytest

from repro.errors import ParameterError
from repro.telemetry import SamplingProfiler, Telemetry, parse_profile_setting
from repro.telemetry.profile import DEFAULT_HZ, MAX_HZ


def _burn(seconds: float) -> int:
    """CPU-bound busy work the sampler can catch."""
    deadline = time.perf_counter() + seconds
    total = 0
    while time.perf_counter() < deadline:
        total += sum(range(200))
    return total


class TestSettingParsing:
    def test_off_settings(self):
        for setting in ("", "off", "0", "false", "NO", "none"):
            assert parse_profile_setting(setting) is None

    def test_on_uses_the_default_rate(self):
        assert parse_profile_setting("on") == DEFAULT_HZ
        assert parse_profile_setting("TRUE") == DEFAULT_HZ

    def test_numeric_rates(self):
        assert parse_profile_setting("250") == 250.0
        assert parse_profile_setting("0.5") == 0.5

    def test_bad_settings_are_rejected(self):
        for setting in ("fast", "-5", str(MAX_HZ * 2)):
            with pytest.raises(ParameterError):
                parse_profile_setting(setting)


class TestSamplingProfiler:
    def test_rejects_bad_rates(self):
        with pytest.raises(ParameterError):
            SamplingProfiler(hz=0)
        with pytest.raises(ParameterError):
            SamplingProfiler(hz=MAX_HZ + 1)

    def test_double_start_is_an_error_and_stop_is_idempotent(self):
        profiler = SamplingProfiler(hz=50)
        profiler.start()
        with pytest.raises(ParameterError):
            profiler.start()
        profiler.stop()
        profiler.stop()  # idempotent

    def test_samples_attribute_busy_work_to_the_open_span(self):
        tel = Telemetry()
        profiler = SamplingProfiler(hz=500, telemetry=tel)
        with profiler:
            with tel.span("hot"):
                _burn(0.25)
        assert profiler.sample_count > 0
        rows = profiler.flame_table()
        hot = [row for row in rows if row["span"] == "hot"]
        assert hot, f"no samples attributed to the open span: {rows[:5]}"
        # The busy loop lives in this module; its frame should dominate.
        assert any("test_profile" in row["frame"] for row in hot)

    def test_flame_table_self_never_exceeds_cum(self):
        profiler = SamplingProfiler(hz=500)
        with profiler:
            _burn(0.1)
        for row in profiler.flame_table():
            assert 0 <= row["self"] <= row["cum"]
        assert profiler.flame_table() == sorted(
            profiler.flame_table(),
            key=lambda r: (-r["self"], -r["cum"], r["span"], r["frame"]),
        )

    def test_collapsed_lines_sum_to_the_sample_count(self):
        profiler = SamplingProfiler(hz=500)
        with profiler:
            _burn(0.1)
        total = sum(
            int(line.rsplit(" ", 1)[1]) for line in profiler.collapsed()
        )
        assert total == profiler.sample_count

    def test_record_shape(self):
        profiler = SamplingProfiler(hz=500)
        with profiler:
            _burn(0.05)
        record = profiler.record()
        assert record["kind"] == "profile"
        assert record["hz"] == 500.0
        assert record["samples"] == profiler.sample_count
        for row in record["rows"]:
            assert set(row) == {"span", "frame", "self", "cum"}

    def test_sampler_does_not_perturb_results(self):
        # Bit-identity of the profiled workload — the benchmark gate's
        # assert, at test scale.
        from repro.core.distributed_en import decompose_distributed
        from repro.graphs import erdos_renyi

        graph = erdos_renyi(60, 0.08, seed=4)
        plain = decompose_distributed(graph, k=3, seed=2, backend="batch")
        with SamplingProfiler(hz=500):
            profiled = decompose_distributed(graph, k=3, seed=2, backend="batch")
        assert profiled.stats == plain.stats
        assert profiled.phases == plain.phases
