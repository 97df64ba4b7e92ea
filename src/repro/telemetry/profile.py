"""Stdlib sampling profiler with span-path attribution.

:class:`SamplingProfiler` runs a daemon thread that wakes ``hz`` times a
second, grabs the profiled thread's current stack via
``sys._current_frames()`` and counts the collapsed stack — qualified by
the *currently open span path* of an attached
:class:`~repro.telemetry.core.Telemetry` object.  The result is a flame
table that answers "inside ``en.decompose/phase``, which frames burn
the self time?" — the attribution the kernel-shootout work needs
without any accelerator-specific profiler.

Design constraints:

* **stdlib only** — one thread, no signals (``setitimer`` profilers
  can't run off the main thread and break under pytest), no C
  extension;
* **nothing on the hot path** — the profiled code is never touched;
  the sampler reads its frames from the outside, so the overhead is
  bounded by the sampling rate, not the workload's call rate
  (``benchmarks/bench_telemetry.py`` gates sampling-on at ≤ 1.10x and
  asserts bit-identical decompositions);
* **opt-in**: nothing samples unless a caller starts a profiler.  The
  CLI starts one for its ``--profile`` flag or, without the flag, for
  the ``REPRO_PROFILE`` environment variable; both go through
  :func:`parse_profile_setting`.

A setting is a sampling rate in Hz (``REPRO_PROFILE=97``), ``on`` for
the default rate, or ``off``.  The default 97 Hz is prime so the
sampler does not beat against periodic work.

Span attribution reads the telemetry object's open-span stack from the
sampler thread without locking: list reads are atomic under the GIL and
a pop racing the read is caught, so the worst case is one sample
attributed to the parent span — acceptable for a statistical profile.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import TYPE_CHECKING

from ..errors import ParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import Telemetry

__all__ = [
    "DEFAULT_HZ",
    "SamplingProfiler",
    "parse_profile_setting",
]

#: Default sampling rate (prime, see module docstring).
DEFAULT_HZ = 97.0

#: Highest accepted rate: beyond ~1 kHz the GIL contention of the
#: sampler itself starts to dominate what it measures.
MAX_HZ = 2000.0

#: Stack frames kept per sample (deep recursions are truncated at the
#: root end; the leaf — where self time is attributed — is always kept).
MAX_STACK_DEPTH = 128

_OFF_SETTINGS = frozenset(("", "0", "off", "false", "no", "none"))
_ON_SETTINGS = frozenset(("on", "true", "yes"))

#: Rows a profile sink record keeps (the flame table is long-tailed).
_RECORD_ROWS = 200


def parse_profile_setting(setting: str) -> float | None:
    """``off``/empty → ``None``; ``on`` → the default rate; else Hz."""
    value = setting.strip().lower()
    if value in _OFF_SETTINGS:
        return None
    if value in _ON_SETTINGS:
        return DEFAULT_HZ
    try:
        hz = float(value)
    except ValueError:
        raise ParameterError(
            f"bad profile setting {setting!r} (expected a sampling rate in "
            "Hz, 'on', or 'off')"
        ) from None
    if not 0 < hz <= MAX_HZ:
        raise ParameterError(
            f"profile rate must be in (0, {MAX_HZ:g}] Hz, got {hz:g}"
        )
    return hz


def _frame_label(code) -> str:
    """``module:function`` — short, stable across checkouts."""
    stem = os.path.basename(code.co_filename)
    if stem.endswith(".py"):
        stem = stem[:-3]
    return f"{stem}:{code.co_name}"


class SamplingProfiler:
    """Samples one thread's stack at ``hz`` and folds the counts.

    Use as a context manager, or :meth:`start` / :meth:`stop`
    explicitly.  :meth:`start` binds the profiler to the *calling*
    thread — start it from the thread whose work you want attributed.
    """

    def __init__(self, hz: float = DEFAULT_HZ, telemetry: "Telemetry | None" = None) -> None:
        if not 0 < hz <= MAX_HZ:
            raise ParameterError(
                f"profile rate must be in (0, {MAX_HZ:g}] Hz, got {hz:g}"
            )
        self.hz = float(hz)
        self.telemetry = telemetry
        #: ``(span_path, folded_stack) -> samples`` (stack outermost-first).
        self.samples: dict[tuple[str, tuple[str, ...]], int] = {}
        self.sample_count = 0
        self._thread: threading.Thread | None = None
        self._stop_event: threading.Event | None = None
        self._target_ident: int | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        """Begin sampling the calling thread."""
        if self._thread is not None:
            raise ParameterError("profiler is already running")
        self._target_ident = threading.get_ident()
        self._stop_event = threading.Event()
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-profile", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling (idempotent); counts remain readable."""
        if self._thread is None:
            return
        assert self._stop_event is not None
        self._stop_event.set()
        self._thread.join()
        self._thread = None
        self._stop_event = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------
    # Sampler thread
    # ------------------------------------------------------------------
    def _sample_loop(self) -> None:
        interval = 1.0 / self.hz
        stop = self._stop_event
        assert stop is not None
        while not stop.wait(interval):
            self._take_sample()

    def _take_sample(self) -> None:
        frame = sys._current_frames().get(self._target_ident)
        if frame is None:
            return
        labels: list[str] = []
        while frame is not None and len(labels) < MAX_STACK_DEPTH:
            labels.append(_frame_label(frame.f_code))
            frame = frame.f_back
        labels.reverse()  # outermost first, leaf last
        span_path = ""
        telemetry = self.telemetry
        if telemetry is not None:
            open_spans = telemetry._stack
            if open_spans:
                try:
                    span_path = open_spans[-1].path
                except IndexError:  # popped between the check and the read
                    span_path = ""
        key = (span_path, tuple(labels))
        self.samples[key] = self.samples.get(key, 0) + 1
        self.sample_count += 1

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def flame_table(self) -> list[dict]:
        """Collapsed flame rows: self/cumulative samples per span-qualified frame.

        ``self`` counts samples whose *leaf* is the frame; ``cum``
        counts samples with the frame anywhere on the stack (each frame
        at most once per sample, so recursion does not inflate it).
        Sorted by self then cumulative samples, descending.
        """
        self_counts: dict[tuple[str, str], int] = {}
        cum_counts: dict[tuple[str, str], int] = {}
        for (span, frames), count in self.samples.items():
            if not frames:
                continue
            leaf = (span, frames[-1])
            self_counts[leaf] = self_counts.get(leaf, 0) + count
            for frame in dict.fromkeys(frames):
                key = (span, frame)
                cum_counts[key] = cum_counts.get(key, 0) + count
        rows = [
            {
                "span": span or "-",
                "frame": frame,
                "self": self_counts.get((span, frame), 0),
                "cum": cum,
            }
            for (span, frame), cum in cum_counts.items()
        ]
        rows.sort(key=lambda row: (-row["self"], -row["cum"], row["span"], row["frame"]))
        return rows

    def collapsed(self) -> list[str]:
        """``flamegraph.pl``-style folded lines: ``span;f1;f2 count``."""
        lines = []
        for (span, frames), count in sorted(self.samples.items()):
            parts = (span, *frames) if span else frames
            lines.append(";".join(parts) + f" {count}")
        return lines

    def record(self) -> dict:
        """The ``{"kind": "profile"}`` sink record (top flame rows)."""
        return {
            "kind": "profile",
            "hz": self.hz,
            "samples": self.sample_count,
            "rows": self.flame_table()[:_RECORD_ROWS],
        }

