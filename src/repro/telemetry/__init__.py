"""Unified observability layer: spans, round streams, trace sinks.

Everything the library knows how to *measure* about itself flows through
this package — it is the shared substrate under the engine's
:class:`~repro.distributed.metrics.NetworkStats`, the oracle's build
timings and the campaign runtime's per-trial accounting:

* **hierarchical spans** (:class:`~repro.telemetry.core.Span`) carry
  wall time, counters and structured attributes, nested by lexical
  scope (``span("oracle.build") > span("scale") > span("carve")``);
* **round streams** (:class:`~repro.telemetry.rounds.RoundStream`)
  record one identically-keyed metrics row per protocol round —
  frontier size, live nodes, messages, words, deliveries, halts — from
  *both* execution backends, so sync and batch runs stay
  cross-checkable row by row;
* **causal logs** (:class:`~repro.telemetry.causality.CausalLog`):
  per-message parent edges ``(send, send_round, recv, recv_round)``
  recorded uniformly at all three delivery sites, feeding Lamport
  clocks, critical-path extraction and slack analysis
  (:mod:`repro.telemetry.critical`, ``repro trace critical-path``);
* **sinks**: every record lands in the in-memory collector on the
  :class:`~repro.telemetry.core.Telemetry` object and, optionally, in a
  bounded append-only JSONL file
  (:class:`~repro.telemetry.sink.JsonlSink`) that is schema-versioned
  and torn-tail tolerant like the campaign journal;
* **histograms** (:class:`~repro.telemetry.hist.LogHistogram`):
  mergeable log-bucketed latency distributions with deterministic
  boundaries — round streams feed per-round wall time into them and the
  oracle's batched query path feeds per-batch latency, and shard/trial
  histograms combine exactly;
* **profiling** (:class:`~repro.telemetry.profile.SamplingProfiler`):
  a stdlib sampling profiler attributing stack samples to the open span
  path, opt-in via the CLI's ``--profile`` flag or, without the flag,
  ``REPRO_PROFILE`` (the CLI resolves the setting itself; the package
  keeps no profiler state);
* **resources** (:mod:`repro.telemetry.resources`): RSS / CPU / GC /
  tracemalloc snapshots annotated onto trial spans and artifact
  environment blocks;
* **export** (:func:`~repro.telemetry.export.chrome_trace`): lossless
  conversion of a trace into Chrome trace-event JSON
  (``repro trace export``), loadable in Perfetto.

The layer is **opt-in**.  Nothing is recorded unless the caller passes
a :class:`Telemetry` object, the process called :func:`configure` (the
CLI's ``--trace`` flag), or the environment sets
``REPRO_TELEMETRY=mem|<path>.jsonl`` (``off`` — the default — disables
everything).  :func:`configure` wins over the environment in both
directions: ``configure(None)`` (``--trace off``) disables tracing
whatever ``REPRO_TELEMETRY`` says.  The disabled mode is a hard no-op:
no file is created, no object is allocated in the engine round loop,
and the measured overhead on the engine hot path is under 2 %
(``benchmarks/bench_telemetry.py`` gates this in CI).
"""

from .causality import (
    CausalLog,
    causal_records,
    causal_streams,
    lamport_timestamps,
)
from .core import (
    Span,
    Telemetry,
    configure,
    maybe_span,
    parse_setting,
    reset,
    resolve,
    scoped,
    shutdown,
)
from .critical import critical_path, lag_timeline, node_lag, slack_stats
from .export import chrome_trace, validate_chrome_trace
from .hist import HIST_SCHEMA, LogHistogram
from .profile import SamplingProfiler, parse_profile_setting
from .resources import ResourceSnapshot, measure_span, snapshot, usage_block
from .rounds import ROUND_KEYS, RoundStream
from .sink import TELEMETRY_VERSION, JsonlSink, read_trace

__all__ = [
    "CausalLog",
    "HIST_SCHEMA",
    "JsonlSink",
    "LogHistogram",
    "ROUND_KEYS",
    "ResourceSnapshot",
    "RoundStream",
    "SamplingProfiler",
    "Span",
    "TELEMETRY_VERSION",
    "Telemetry",
    "causal_records",
    "causal_streams",
    "chrome_trace",
    "configure",
    "critical_path",
    "lag_timeline",
    "lamport_timestamps",
    "node_lag",
    "slack_stats",
    "maybe_span",
    "measure_span",
    "parse_profile_setting",
    "parse_setting",
    "read_trace",
    "reset",
    "resolve",
    "scoped",
    "shutdown",
    "snapshot",
    "usage_block",
    "validate_chrome_trace",
]
