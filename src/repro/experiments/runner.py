"""Trial executor: serial or fanned out over a ``multiprocessing`` pool.

:func:`execute_trials` runs trials and stores their records in the
cache; :func:`run_experiment` (every benchmark and the ``bench`` CLI
subcommand) and :func:`~repro.experiments.campaign.run_campaign` both
run through it.  :func:`run_experiment`:

1. expands the :class:`ExperimentSpec` into trials (deterministic order);
2. resolves cache hits (when a :class:`ResultCache` is supplied);
3. executes the misses — serially for ``workers<=1``, otherwise over a
   process pool — storing fresh records back into the cache;
4. reassembles everything in the original trial order.

Because adapters are pure functions of the trial spec and seeds are
derived per trial (never from execution order), the assembled records
are identical whatever ``workers`` is — the parallel path changes only
wall-clock time.  A failing trial is captured as a :class:`TrialResult`
with ``error`` set instead of killing the whole sweep.
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ParameterError
from ..telemetry import maybe_span, measure_span, resolve
from .adapters import run_trial
from .cache import ResultCache
from .spec import ExperimentSpec, TrialSpec

__all__ = ["ExperimentResult", "TrialResult", "execute_trials", "run_experiment"]


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial: a record, or a captured failure."""

    trial: TrialSpec
    record: Optional[Dict[str, Any]]
    error: Optional[str] = None
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        """Whether the trial produced a record."""
        return self.record is not None


@dataclass
class ExperimentResult:
    """All trial results of one experiment, in spec order."""

    spec: ExperimentSpec
    results: List[TrialResult] = field(default_factory=list)

    @property
    def records(self) -> List[Dict[str, Any]]:
        """Successful records, in trial order."""
        return [result.record for result in self.results if result.record is not None]

    @property
    def failures(self) -> List[TrialResult]:
        """Trials that raised, with their captured tracebacks."""
        return [result for result in self.results if result.error is not None]

    @property
    def cache_hits(self) -> int:
        """How many trials were served from the cache."""
        return sum(1 for result in self.results if result.from_cache)

    @property
    def executed(self) -> int:
        """How many trials actually ran (hit or failed, not cached)."""
        return len(self.results) - self.cache_hits

    def raise_on_failure(self) -> "ExperimentResult":
        """Raise ``RuntimeError`` summarising failures, if any; else ``self``."""
        if self.failures:
            first = self.failures[0]
            raise RuntimeError(
                f"{len(self.failures)}/{len(self.results)} trials of "
                f"{self.spec.name!r} failed; first: {first.error}"
            )
        return self


def _execute_captured(
    item: Tuple[int, TrialSpec],
) -> Tuple[int, Optional[Dict[str, Any]], Optional[str]]:
    """Run one ``(index, trial)``, converting any exception into a string
    (picklable: this is also the pool worker)."""
    index, trial = item
    try:
        return index, run_trial(trial), None
    except Exception as exc:  # noqa: BLE001 — sweep survival is the contract
        return index, None, f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"


def _execute_serially(trials: Sequence[TrialSpec]):
    """Run ``trials`` in order, each under a measured ``trial`` span."""
    tel = resolve(None)
    for item in enumerate(trials):
        with maybe_span(tel, "trial", key=item[1].key()) as span, measure_span(span):
            outcome = _execute_captured(item)
        yield outcome


def execute_trials(
    trials: Sequence[TrialSpec],
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    chunksize: int = 1,
) -> Iterator[Tuple[int, TrialResult]]:
    """Run every trial of ``trials``; yield ``(index, result)`` as each ends.

    ``workers <= 1`` (or a single trial) runs them in order in-process,
    each under a ``trial`` span of the ambient trace with its resource
    usage measured; ``N > 1`` fans them out over a
    ``multiprocessing.Pool(N)``, ``chunksize`` trials per pool task, and
    yields in completion order.  Fresh records are stored in ``cache``
    before they are yielded.  Closing the generator early terminates and
    joins the pool, so a caller that may stop before the end wraps it in
    :func:`contextlib.closing`.
    """
    if workers > 1 and len(trials) > 1:
        pool = multiprocessing.Pool(processes=workers)
        outcomes = pool.imap_unordered(
            _execute_captured, enumerate(trials), chunksize
        )
    else:
        pool = None
        outcomes = _execute_serially(trials)
    try:
        for index, record, error in outcomes:
            trial = trials[index]
            if record is not None and cache is not None:
                cache.put(trial, record)
            yield index, TrialResult(trial=trial, record=record, error=error)
    finally:
        if pool is not None:
            pool.terminate()  # also joins the workers


def run_experiment(
    spec: ExperimentSpec,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
) -> ExperimentResult:
    """Execute every trial of ``spec``; see the module docstring.

    Parameters
    ----------
    spec:
        The experiment to run.
    workers:
        ``<=1`` runs in-process; ``N>1`` fans the cache misses out over a
        ``multiprocessing.Pool(N)``.
    cache:
        Optional :class:`ResultCache`; hits skip execution, fresh records
        are written back.
    """
    if workers < 0:
        raise ParameterError(f"workers must be >= 0, got {workers}")
    trials = spec.trial_specs()
    resolved: List[Optional[TrialResult]] = [None] * len(trials)

    pending: List[int] = []
    for position, trial in enumerate(trials):
        hit = cache.get(trial) if cache is not None else None
        if hit is not None:
            resolved[position] = TrialResult(trial=trial, record=hit, from_cache=True)
        else:
            pending.append(position)

    tel = resolve(None)
    with maybe_span(tel, "experiment", name=spec.name) as span:
        todo = [trials[position] for position in pending]
        # About four tasks per worker amortise the pool's IPC for small
        # trials; the campaign keeps one trial per task for its journal.
        chunksize = max(1, len(todo) // (4 * max(workers, 1)))
        for index, result in execute_trials(todo, workers, cache, chunksize):
            resolved[pending[index]] = result
        if span is not None:
            span.add("trials", len(trials))
            span.add("cache_hits", len(trials) - len(pending))
            span.add("executed", len(pending))

    return ExperimentResult(spec=spec, results=[r for r in resolved if r is not None])
