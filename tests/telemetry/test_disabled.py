"""Disabled-mode guarantees: no trace, no files, no allocations.

``REPRO_TELEMETRY=off`` (or unset) must make the entire layer vanish:
instrumented call sites reduce to one ``is None`` test, no file is ever
created, and the engine round loop allocates nothing from the telemetry
modules.  The wall-clock side of the contract (< 2% overhead) is gated
separately by ``benchmarks/bench_telemetry.py``.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.distributed_en import decompose_distributed
from repro.graphs import erdos_renyi
from repro.telemetry import reset, resolve


@pytest.fixture(autouse=True)
def _disabled_ambient(monkeypatch):
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    reset()
    yield
    reset()


class TestDisabledMode:
    def test_unset_environment_resolves_to_none(self):
        assert resolve(None) is None

    @pytest.mark.parametrize("value", ["off", "0", "false", "", "none"])
    def test_off_settings_resolve_to_none(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TELEMETRY", value)
        reset()
        assert resolve(None) is None

    def test_untraced_run_creates_no_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_TELEMETRY", "off")
        reset()
        decompose_distributed(erdos_renyi(40, 0.1, seed=3), k=3, seed=1)
        assert list(tmp_path.iterdir()) == []

    def test_round_loop_allocates_nothing_from_telemetry(self):
        """The no-op guarantee, measured: an untraced batch run must not
        allocate a single block inside the telemetry modules."""
        import repro.telemetry.core as core
        import repro.telemetry.rounds as rounds
        import repro.telemetry.sink as sink

        graph = erdos_renyi(60, 0.1, seed=3)
        resolve(None)  # warm the read-once environment cache
        decompose_distributed(graph, k=3, seed=1, backend="batch")  # warm caches
        filters = [
            tracemalloc.Filter(True, module.__file__)
            for module in (core, rounds, sink)
        ]
        tracemalloc.start()
        try:
            decompose_distributed(graph, k=3, seed=1, backend="batch")
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        telemetry_allocations = snapshot.filter_traces(filters).statistics("lineno")
        assert telemetry_allocations == []

    def test_results_identical_with_and_without_ambient_trace(self, monkeypatch):
        graph = erdos_renyi(40, 0.12, seed=9)
        plain = decompose_distributed(graph, k=3, seed=2, backend="batch")
        monkeypatch.setenv("REPRO_TELEMETRY", "mem")
        reset()
        traced = decompose_distributed(graph, k=3, seed=2, backend="batch")
        tel = resolve(None)
        assert tel is not None and tel.rounds  # the trace really was live
        assert traced.stats == plain.stats
        assert traced.rounds_per_phase == plain.rounds_per_phase
        assert (
            traced.decomposition.cluster_index_map()
            == plain.decomposition.cluster_index_map()
        )
