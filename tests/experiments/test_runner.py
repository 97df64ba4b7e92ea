"""Runner semantics: determinism, parallel equivalence, failure capture."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.experiments import (
    ExperimentPoint,
    ExperimentSpec,
    ResultCache,
    aggregate_experiment,
    run_experiment,
    run_trial,
)
from repro.experiments.spec import TrialSpec
from repro.telemetry import Telemetry, configure, reset


def er_spec(trials: int = 4, **overrides) -> ExperimentSpec:
    defaults = dict(
        name="unit-er",
        algorithm="en",
        points=(ExperimentPoint.of("er:24:0.2", k=3),),
        trials=trials,
        root_seed=11,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestSerialExecution:
    def test_all_trials_produce_records(self):
        result = run_experiment(er_spec())
        assert len(result.records) == 4
        assert not result.failures
        assert result.cache_hits == 0 and result.executed == 4

    def test_rerun_is_identical(self):
        first = run_experiment(er_spec())
        second = run_experiment(er_spec())
        assert first.records == second.records

    def test_run_trial_matches_runner(self):
        spec = er_spec(trials=1)
        [trial] = spec.trial_specs()
        assert run_trial(trial) == run_experiment(spec).records[0]

    def test_negative_workers_rejected(self):
        with pytest.raises(ParameterError, match="workers"):
            run_experiment(er_spec(), workers=-1)


class TestParallelEquivalence:
    def test_parallel_equals_serial_records_and_aggregates(self):
        spec = er_spec(trials=6)
        serial = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=2)
        assert serial.records == parallel.records
        assert aggregate_experiment(serial) == aggregate_experiment(parallel)

    def test_parallel_equals_serial_with_uneven_split(self):
        spec = er_spec(trials=5)
        serial = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=3)
        assert serial.records == parallel.records


class TestTracing:
    @pytest.fixture(autouse=True)
    def _isolated_ambient(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        reset()
        yield
        reset()

    @staticmethod
    def _traced_spans(workers: int) -> list[dict]:
        spec = er_spec(trials=3, algorithm="congest")
        tel = configure(Telemetry())
        try:
            run_experiment(spec, workers=workers)
        finally:
            reset()
        return tel.spans

    def test_pool_trials_land_under_experiment(self):
        """A pool worker's trial span (key, resources) and the spans
        nested in it reach the parent's trace, as on the serial path."""

        def tree(spans):
            return sorted(
                (s["path"], s["depth"], s["attrs"].get("key", "")) for s in spans
            )

        serial, parallel = self._traced_spans(1), self._traced_spans(2)
        assert tree(parallel) == tree(serial)
        trials = [s for s in parallel if s["name"] == "trial"]
        assert len(trials) == 3
        assert all(s["path"] == "experiment/trial" for s in trials)
        assert all("resources" in s["attrs"] for s in trials)
        assert any(s["path"].startswith("experiment/trial/") for s in parallel)


class TestCacheIntegration:
    def test_second_run_all_hits_no_reruns(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = er_spec()
        cold = run_experiment(spec, cache=cache)
        assert cold.cache_hits == 0 and cold.executed == 4
        warm = run_experiment(spec, cache=cache)
        assert warm.cache_hits == 4 and warm.executed == 0
        assert warm.records == cold.records

    def test_growing_trials_only_computes_new_ones(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_experiment(er_spec(trials=3), cache=cache)
        grown = run_experiment(er_spec(trials=5), cache=cache)
        assert grown.cache_hits == 3 and grown.executed == 2

    def test_parallel_run_fills_cache_serial_reads_it(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = er_spec(trials=4)
        parallel = run_experiment(spec, workers=2, cache=cache)
        warm = run_experiment(spec, workers=1, cache=cache)
        assert warm.cache_hits == 4
        assert warm.records == parallel.records


class TestFailureCapture:
    def test_bad_trial_does_not_kill_sweep(self):
        spec = er_spec(trials=1, algorithm="no-such-algorithm")
        result = run_experiment(spec)
        assert len(result.failures) == 1
        assert "no-such-algorithm" in result.failures[0].error
        assert result.records == []
        with pytest.raises(RuntimeError, match="1/1 trials"):
            result.raise_on_failure()

    def test_failed_trials_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = er_spec(trials=2, algorithm="no-such-algorithm")
        run_experiment(spec, cache=cache)
        assert len(cache) == 0

    def test_mixed_failure_positions_preserved(self, monkeypatch, tmp_path):
        # Seed the cache with one good record, then fail the rest: the
        # result list must keep spec order with holes only where trials
        # actually failed.
        cache = ResultCache(tmp_path)
        spec = er_spec(trials=3)
        trials = spec.trial_specs()
        cache.put(trials[1], {"colors": 99})
        import repro.experiments.runner as runner_module

        def boom(trial: TrialSpec):
            raise ValueError(f"boom on {trial.index}")

        monkeypatch.setattr(runner_module, "run_trial", boom)
        result = run_experiment(spec, cache=cache)
        assert [r.from_cache for r in result.results] == [False, True, False]
        assert [r.ok for r in result.results] == [False, True, False]
        assert "boom" in result.failures[0].error
