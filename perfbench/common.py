"""State shared by the workloads: the run record, timing and quantiles."""

from __future__ import annotations

import gc
import json
import math
import resource
import sys
import traceback
from contextlib import contextmanager, nullcontext
from time import perf_counter

from repro.rng import derive_seed

import layers
from spans import SpanRecorder, patched

#: Size of the reference kernel, a fixed pure-Python loop timed before every
#: pass.  Its median is reported as ``machine.kernel_ms`` so that a run made
#: while the shared machine was slow can be told from a slower program.
#: Nothing is scaled by it: every time the benchmark reports is wall time.
KERNEL_ITERATIONS = 15_000


def reference_kernel() -> int:
    """Dict and integer work, the kind that dominates the program."""
    table: dict[int, int] = {}
    total = 0
    for i in range(KERNEL_ITERATIONS):
        key = i * 7919 % 1021
        table[key] = table.get(key, 0) + i
        total ^= table[key]
    return total


def kernel_seconds(repeats: int = 2) -> float:
    """The machine's current speed: the fastest of ``repeats`` kernel runs."""
    best = math.inf
    for _ in range(repeats):
        started = perf_counter()
        reference_kernel()
        best = min(best, perf_counter() - started)
    return best


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(samples) -> float:
    return percentile(samples, 0.5)


def median_of_medians(groups) -> float:
    """Median over inputs of each input's median over the passes.  The work
    of one decomposition is heavy-tailed (a few large radii flood most of
    an expander), so a mean over inputs would swing with the one input
    that drew them."""
    return median([median(samples) for samples in groups if samples])


class Run:
    """One benchmark run: counters, gates, fingerprints and metrics.

    ``scale`` shrinks every input size (the smoke test runs at a tiny
    scale through the same code).  ``recorder`` holds the spans of the
    traced pass, once there has been one.
    """

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool,
                 scale: float, state_dir) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.scale = scale
        self.state_dir = state_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.end_to_end: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.notes: dict[str, str] = {}
        self.fingerprints: dict[str, dict] = {}
        self.recorder: SpanRecorder | None = None
        self.kernel: list[float] = []
        self.measured = 0.0  # wall seconds spent inside timed operations
        self._tracing = False

    # -- inputs ---------------------------------------------------------
    def sub_seed(self, *labels) -> int:
        """A seed for one input, derived from the run's ``--seed``."""
        return derive_seed(self.seed, "perfbench", self.workload, *labels)

    def size(self, full: int, smallest: int) -> int:
        return max(smallest, round(full * self.scale))

    # -- outcomes -------------------------------------------------------
    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)

    def check(self, ok: bool, message: str) -> bool:
        """A correctness gate: a failed check counts as a failed operation."""
        if not ok:
            self.fail(message)
        return ok

    def fingerprint(self, label: str, counts: dict) -> None:
        """Counts fixed by the seed must repeat exactly for the same input.

        Stored in JSON form, as the record of earlier runs holds them."""
        counts = json.loads(json.dumps(counts))
        first = self.fingerprints.setdefault(label, counts)
        if first != counts:
            self.fail(f"nondeterministic counts for {label}: {first} != {counts}")

    # -- measuring ------------------------------------------------------
    @contextmanager
    def tracing(self):
        """The traced pass: every layer boundary of :mod:`layers` is wrapped
        and every operation gets an ``op.<name>`` span."""
        self.recorder = SpanRecorder()
        self._tracing = True
        try:
            with patched(self.recorder, layers.targets()):
                yield self.recorder
        finally:
            self._tracing = False

    def passes(self, seconds: float, one_pass) -> int:
        """Run ``one_pass()`` while another whole pass fits in ``seconds``
        (at least once); returns the number of passes.  ``one_pass``
        returns False when an operation failed, which ends the measurement.

        A pass covers every input of the workload, so every run measures
        the same inputs and the traced pass covers what the untraced one
        did; only the number of repetitions depends on the program's
        speed.  The next pass is predicted from the time the last one spent
        in timed operations, so one-off gates do not cut the run short.
        """
        deadline = perf_counter() + seconds
        done = 0
        while True:
            self.kernel.append(kernel_seconds())
            before = self.measured
            ok = one_pass()
            done += 1
            if not ok or perf_counter() + (self.measured - before) > deadline:
                return done

    def timed(self, op: str, label: str, function, *args, **kwargs):
        """``(wall seconds, result)`` of one operation; ``(None, None)`` if
        it raised."""
        gc.collect()
        self.attempted += 1
        span = self.recorder.span(f"op.{op}") if self._tracing else nullcontext()
        started = perf_counter()
        try:
            with span:
                result = function(*args, **kwargs)
        except Exception as exc:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            self.fail(f"{label} {op} raised {exc!r}")
            return None, None
        elapsed = perf_counter() - started
        self.measured += elapsed
        return elapsed, result
