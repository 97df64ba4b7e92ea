"""E-TEL — disabled-mode overhead gate for the telemetry layer.

The telemetry contract (``docs/telemetry.md``): with ``REPRO_TELEMETRY``
off, the instrumented engine hot path must stay within 2% of an
untraced build.  There is no untraced build to race at runtime, so the
baseline arm replicates the EN driver's phase loop
(:func:`repro.distributed.phases.run_phases` with the EN protocol of
:func:`repro.core.distributed_en.decompose_distributed`) verbatim with
**zero** telemetry calls — no ``resolve``, no ``maybe_span``,
``rounds=None`` wired statically — the exact pre-telemetry hot path.  Both arms first assert
bit-identical outputs (same stats, same phase/round counts), so the
ratio can only ever price the instrumentation.

Arms (interleaved reps, medians — machine noise hits them alike):

* ``baseline`` — the replicated loop above, the untraced reference;
* ``off``      — the public entry point in disabled mode (the gate);
* ``mem``      — explicit in-memory collector (informational);
* ``jsonl``    — collector mirrored to a JSONL sink (informational);
* ``profile``  — disabled telemetry under the sampling profiler at its
  default rate (the second gate: ≤ 1.10× the ``off`` arm, since the
  sampler reads stacks from outside the workload it must never perturb
  the measured code — and every arm's outputs stay bit-identical);
* ``causal``   — in-memory collector with the causal message log it
  implies, plus a :func:`~repro.telemetry.critical_path` extraction
  whose round count is asserted equal to the driver's (informational
  price of full provenance; the fault-free invariant rides along).

Two modes, following ``bench_engine.py``:

* ``pytest benchmarks/bench_telemetry.py -s`` — CI-sized workload,
  asserts arm equivalence and emits the table; no wall-clock gate
  (shared runners are too noisy at sub-second scale);
* ``python benchmarks/bench_telemetry.py`` — the acceptance gates:
  median ``off``/``baseline`` ratio ≤ 1.02 **and** median
  ``profile``/``off`` ratio ≤ 1.10 on an n ≈ 2·10⁴ workload, with up
  to ``GATE_ATTEMPTS`` re-measurements before declaring failure (noise
  only ever inflates the ratios, never hides real overhead).
"""

from __future__ import annotations

import math
import os
import pathlib
import statistics
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core.decomposition import NetworkDecomposition
from repro.core.distributed_en import decompose_distributed
from repro.core.params import Theorem1Schedule
from repro.core.shifts import find_truncation_events, sample_phase_radii
from repro.engine.en import BatchENPhases
from repro.graphs import Graph, gnp_fast
from repro.graphs.activeset import ActiveSet
from repro.telemetry import (
    JsonlSink,
    SamplingProfiler,
    Telemetry,
    critical_path,
    reset,
)

from _common import emit, strip_private

SEED = 20160217
REPS = int(os.environ.get("BENCH_TELEMETRY_REPS", "5"))
GATE_RATIO = 1.02
PROFILE_GATE_RATIO = 1.10
GATE_ATTEMPTS = 3


def _baseline_decompose(graph: Graph, k: float, seed: int):
    """The untraced build: the driver loop with zero telemetry calls.

    Mirrors ``decompose_distributed(backend="batch", mode="toptwo",
    adaptive_phase_length=True)`` — the harness loop plus the EN radius
    draw — line for line, including the truncation bookkeeping and final
    decomposition assembly, so the baseline does all the same
    non-telemetry work.
    """
    schedule = Theorem1Schedule(n=max(graph.num_vertices, 1), k=k, c=4.0)
    runner = BatchENPhases(graph, "toptwo")
    active = ActiveSet.full(graph.num_vertices)
    blocks: list[list[int]] = []
    centers: dict[int, int] = {}
    rounds_per_phase: list[int] = []
    truncations = []
    phase = 0
    while active:
        phase += 1
        beta = schedule.beta(phase)
        radii = sample_phase_radii(seed, phase, active, beta)
        truncations.extend(
            find_truncation_events(radii, phase, getattr(schedule, "k", math.inf))
        )
        budget = max((math.floor(r) for r in radii.values()), default=0)
        joined = runner.run_phase(phase, budget, radii)
        rounds_per_phase.append(budget + 2)
        blocks.append(sorted(joined))
        centers.update(joined)
        active -= joined.keys()
    runner.finish()
    decomposition = NetworkDecomposition.from_blocks(graph, blocks, centers)
    return decomposition, runner.stats, phase, rounds_per_phase


def _arms(graph: Graph, k: float, sink_path: str):
    """``{arm: zero-arg callable}`` — each returns comparable outputs."""

    def baseline():
        decomposition, stats, phases, rounds = _baseline_decompose(graph, k, SEED)
        return stats, phases, sum(rounds)

    def off():
        result = decompose_distributed(graph, k=k, seed=SEED, backend="batch")
        return result.stats, result.phases, result.total_rounds

    def mem():
        result = decompose_distributed(
            graph, k=k, seed=SEED, backend="batch", telemetry=Telemetry()
        )
        return result.stats, result.phases, result.total_rounds

    def jsonl():
        telemetry = Telemetry(sink=JsonlSink(sink_path))
        result = decompose_distributed(
            graph, k=k, seed=SEED, backend="batch", telemetry=telemetry
        )
        telemetry.close()
        os.unlink(sink_path)
        return result.stats, result.phases, result.total_rounds

    def profile():
        with SamplingProfiler():
            result = decompose_distributed(graph, k=k, seed=SEED, backend="batch")
        return result.stats, result.phases, result.total_rounds

    def causal():
        telemetry = Telemetry()
        result = decompose_distributed(
            graph, k=k, seed=SEED, backend="batch", telemetry=telemetry
        )
        path = critical_path(telemetry.causal)
        assert path["rounds"] == result.total_rounds, (
            f"critical path {path['rounds']} != rounds {result.total_rounds}"
        )
        assert path["drift"] == 0, f"fault-free drift {path['drift']}"
        return result.stats, result.phases, result.total_rounds

    return {
        "baseline": baseline,
        "off": off,
        "mem": mem,
        "jsonl": jsonl,
        "profile": profile,
        "causal": causal,
    }


def measure(graph: Graph, k: float, reps: int = REPS):
    """Interleaved timing of all arms; asserts bit-identical outputs."""
    reset()  # drop any ambient trace — "off" must mean off
    os.environ.pop("REPRO_TELEMETRY", None)
    with tempfile.NamedTemporaryFile(suffix=".jsonl", delete=False) as handle:
        sink_path = handle.name
    os.unlink(sink_path)
    arms = _arms(graph, k, sink_path)
    times: dict[str, list[float]] = {arm: [] for arm in arms}
    outputs: dict[str, object] = {}
    for _ in range(reps):
        for arm, fn in arms.items():
            start = time.perf_counter()
            result = fn()
            times[arm].append(time.perf_counter() - start)
            outputs[arm] = result
    reference = outputs["baseline"]
    for arm, output in outputs.items():
        assert output == reference, f"arm {arm!r} diverged from the untraced baseline"
    return {arm: statistics.median(samples) for arm, samples in times.items()}


def _rows(workload: str, n: int, medians: dict[str, float]):
    base = medians["baseline"]
    return [
        {
            "workload": workload,
            "arm": arm,
            "n": n,
            "median s": round(seconds, 4),
            "vs baseline": round(seconds / max(base, 1e-9), 3),
            "_ratio": seconds / max(base, 1e-9),
        }
        for arm, seconds in medians.items()
    ]


def test_telemetry_overhead_bench():
    """CI-sized run: arm equivalence asserted, table emitted, no gate."""
    graph = gnp_fast(2048, 6.0 / 2048, seed=2)
    medians = measure(graph, k=6, reps=3)
    rows = _rows("gnp_fast:2048:6/n", graph.num_vertices, medians)
    table = emit(
        "E-TEL: telemetry overhead (CI scale, informational)",
        strip_private(rows),
        "etel_telemetry_small.txt",
    )
    assert table
    print(f"disabled-mode ratio (informational): {medians['off'] / medians['baseline']:.3f}")


def main() -> int:
    n = 20_000
    graph = gnp_fast(n, 6.0 / n, seed=2)
    k = max(2, math.ceil(math.log(n)))
    ratio = profile_ratio = math.inf
    medians: dict[str, float] = {}
    for attempt in range(1, GATE_ATTEMPTS + 1):
        medians = measure(graph, k=k)
        ratio = medians["off"] / medians["baseline"]
        profile_ratio = medians["profile"] / medians["off"]
        print(
            f"attempt {attempt}: off/baseline = {ratio:.4f}  "
            f"[gate: <= {GATE_RATIO}], profile/off = {profile_ratio:.4f}  "
            f"[gate: <= {PROFILE_GATE_RATIO}]"
        )
        if ratio <= GATE_RATIO and profile_ratio <= PROFILE_GATE_RATIO:
            break
    rows = _rows(f"gnp_fast:{n}:6/n", n, medians)
    emit(
        "E-TEL: telemetry overhead (acceptance gate)",
        strip_private(rows),
        "etel_telemetry_full.txt",
    )
    print(
        f"disabled-mode overhead: {100 * (ratio - 1):+.2f}%, "
        f"sampling-on overhead: {100 * (profile_ratio - 1):+.2f}% "
        f"(mem {medians['mem'] / medians['baseline']:.3f}x, "
        f"jsonl {medians['jsonl'] / medians['baseline']:.3f}x, "
        f"causal {medians['causal'] / medians['baseline']:.3f}x, informational)"
    )
    return 0 if ratio <= GATE_RATIO and profile_ratio <= PROFILE_GATE_RATIO else 1


if __name__ == "__main__":
    sys.exit(main())
