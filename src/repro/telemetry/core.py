"""Telemetry core: hierarchical spans, the collector, opt-in resolution.

A :class:`Telemetry` object is one trace: a bounded in-memory collector
of span/round/causal records, optionally mirrored to a
:class:`~repro.telemetry.sink.JsonlSink`.  Spans nest lexically::

    with telemetry.span("oracle.build", n=n) as build:
        with telemetry.span("scale", radius=radius) as scale:
            scale.add("clusters", tables.num_clusters)

Each closed span becomes one record carrying its slash-joined ``path``
(``oracle.build/scale``), wall-clock ``seconds``, ``self_seconds``
(seconds minus direct children), a ``status`` (``"error"`` when the
body raised — the span still closes, exception safety is pinned by
``tests/telemetry/test_spans.py``), plus attributes and counters.

Resolution order for the *ambient* trace — what instrumented call sites
get from :func:`resolve` when no explicit object is passed:

1. whatever :func:`configure` installed (the CLI's ``--trace`` flag),
   including ``None``: a configured ``off`` is not overridden by the
   environment;
2. the ``REPRO_TELEMETRY`` environment variable, read **once** per
   process (``off``/empty → disabled, ``mem`` → in-memory only,
   anything else → a JSONL sink at that path);
3. otherwise ``None`` — the disabled mode, in which every instrumented
   site reduces to one ``is None`` test.
"""

from __future__ import annotations

import os
from time import perf_counter

from ..errors import ParameterError
from .causality import CausalLog
from .hist import LogHistogram
from .rounds import RoundStream
from .sink import JsonlSink

__all__ = [
    "Span",
    "Telemetry",
    "configure",
    "maybe_span",
    "parse_setting",
    "reset",
    "resolve",
    "shutdown",
]

#: Default in-memory record cap (spans and rounds each).
DEFAULT_COLLECTOR_LIMIT = 100_000

_OFF_SETTINGS = frozenset(("", "0", "off", "false", "no", "none"))


class Span:
    """One timed region; created via :meth:`Telemetry.span`.

    Use as a context manager.  ``add`` accumulates counters,
    ``annotate`` attaches attributes; both may be called from inside
    the body.  The span closes (and is recorded) even when the body
    raises — ``status`` is then ``"error"`` and the exception type is
    attached as the ``error`` attribute.
    """

    __slots__ = (
        "name",
        "path",
        "depth",
        "attrs",
        "counters",
        "status",
        "seconds",
        "_telemetry",
        "_start",
        "_children_seconds",
    )

    def __init__(self, telemetry: "Telemetry", name: str, attrs: dict) -> None:
        self.name = name
        self.path = name
        self.depth = 0
        self.attrs = attrs
        self.counters: dict[str, float] = {}
        self.status = "ok"
        self.seconds = 0.0
        self._telemetry = telemetry
        self._start = 0.0
        self._children_seconds = 0.0

    def add(self, counter: str, amount: float = 1) -> None:
        """Accumulate ``amount`` into ``counter``."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def annotate(self, **attrs) -> None:
        """Attach structured attributes to the span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._telemetry._push(self)
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = perf_counter() - self._start
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", exc_type.__name__)
        self._telemetry._pop(self)
        return False


class _NullSpan:
    """The disabled-mode span context: enters to ``None``, records nothing."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def maybe_span(telemetry: "Telemetry | None", name: str, /, **attrs):
    """``telemetry.span(...)`` or a shared no-op context when disabled.

    The returned context yields the :class:`Span` (so the body can call
    ``add``/``annotate``) or ``None`` in disabled mode — guard with
    ``if span is not None`` before touching it.
    """
    if telemetry is None:
        return _NULL_SPAN
    return telemetry.span(name, **attrs)


class Telemetry:
    """One trace: a span stack, bounded collectors, an optional sink."""

    def __init__(
        self,
        sink: JsonlSink | None = None,
        limit: int = DEFAULT_COLLECTOR_LIMIT,
    ) -> None:
        if limit < 1:
            raise ParameterError(f"collector limit must be >= 1, got {limit}")
        self.sink = sink
        self.limit = limit
        self.spans: list[dict] = []  # closed-span records, close order
        self.rounds: list[dict] = []  # round records, emit order
        self.causal: list[dict] = []  # causal edge/halt records, emit order
        self.hists: dict[str, LogHistogram] = {}  # named, creation order
        self.truncated = False
        self.epoch = perf_counter()  # span starts are offsets from here
        self._stack: list[Span] = []
        self._closed = False

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_setting(cls, setting: str) -> "Telemetry | None":
        """Build from a ``REPRO_TELEMETRY``-style setting (see module doc)."""
        return parse_setting(setting)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, name: str, /, **attrs) -> Span:
        """Open a child span of the innermost open span (context manager)."""
        return Span(self, name, attrs)

    def _push(self, span: Span) -> None:
        if self._stack:
            parent = self._stack[-1]
            span.path = f"{parent.path}/{span.name}"
            span.depth = parent.depth + 1
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Close any younger spans first (leaked by a non-lexical exit);
        # normal with-blocks always find ``span`` on top.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        if self._stack:
            self._stack[-1]._children_seconds += span.seconds
        record = {
            "kind": "span",
            "name": span.name,
            "path": span.path,
            "depth": span.depth,
            "status": span.status,
            # Offset from the trace epoch — what places the span on a
            # real timeline in `repro trace export` Chrome output.
            "start": round(span._start - self.epoch, 9),
            "seconds": round(span.seconds, 9),
            "self_seconds": round(
                max(span.seconds - span._children_seconds, 0.0), 9
            ),
            "attrs": span.attrs,
            "counters": span.counters,
        }
        self._keep(self.spans, record)

    # ------------------------------------------------------------------
    # Round streams, causal logs and histograms
    # ------------------------------------------------------------------
    def round_stream(self, stream: str, **attrs) -> RoundStream:
        """A per-round metrics stream feeding this trace (see rounds.py)."""
        return RoundStream(self, stream, attrs)

    def causal_log(self, stream: str) -> "CausalLog":
        """A causal parent-edge log feeding this trace (see causality.py)."""
        return CausalLog(self, stream)

    def histogram(self, name: str, **kwargs) -> LogHistogram:
        """The named mergeable histogram of this trace (first use creates).

        ``kwargs`` (``min_value``/``buckets_per_octave``) apply only on
        creation; later callers get the existing histogram regardless —
        boundaries must stay uniform for shards to merge exactly.
        """
        hist = self.hists.get(name)
        if hist is None:
            hist = LogHistogram(**kwargs)
            self.hists[name] = hist
        return hist

    def _keep(self, collector: list[dict], record: dict) -> None:
        if len(collector) >= self.limit:
            self.truncated = True
        else:
            collector.append(record)
        if self.sink is not None:
            self.sink.write(record)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def total_seconds(self, name_or_path: str) -> float:
        """Summed wall time of closed spans named (or pathed) so."""
        return sum(
            record["seconds"]
            for record in self.spans
            if record["name"] == name_or_path or record["path"] == name_or_path
        )

    def block(self) -> dict:
        """The ``telemetry`` block stamped into JSON artifacts.

        Aggregated per-path span rows plus collector totals and the
        sink path, so an artifact links to its trace file.
        """
        from .causality import causal_streams
        from .report import summarize_spans

        return {
            "version": "en16.telemetry.v1",
            "sink": str(self.sink.path) if self.sink is not None else None,
            "spans": summarize_spans(self.spans),
            "rounds": len(self.rounds),
            "hists": {name: hist.summary() for name, hist in self.hists.items()},
            "causal": {
                "records": len(self.causal),
                "streams": causal_streams(self.causal),
                "edges": sum(
                    1 for record in self.causal if record.get("edge") == "msg"
                ),
                "halts": sum(
                    1 for record in self.causal if record.get("edge") == "halt"
                ),
            },
            "truncated": self.truncated
            or (self.sink.truncated if self.sink is not None else False),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush the summary record and close the sink (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self.sink is not None:
            # Histograms flush at close (they aggregate, so there is no
            # natural per-record emission point), each as one lossless —
            # still mergeable — "hist" record ahead of the summary.
            for name, hist in self.hists.items():
                self.sink.write({"kind": "hist", "name": name, **hist.to_dict()})
            # Per-kind counts of every record *offered* to the sink
            # (dropped-past-the-bound writes included), so a truncated
            # trace is diagnosable from its own summary line.
            self.sink.write(
                {
                    "kind": "summary",
                    "spans": len(self.spans),
                    "rounds": len(self.rounds),
                    "hists": len(self.hists),
                    "causal": len(self.causal),
                    "kinds": dict(sorted(self.sink.kind_counts.items())),
                }
            )
            self.sink.close()


# --------------------------------------------------------------------------
# Ambient resolution (CLI flag > environment > disabled)

_ENV_UNREAD = object()
_ambient: Telemetry | None = None
_from_env: "Telemetry | None | object" = _ENV_UNREAD


def parse_setting(setting: str) -> Telemetry | None:
    """``off``/empty → ``None``, ``mem`` → in-memory, else a JSONL sink."""
    value = setting.strip()
    if value.lower() in _OFF_SETTINGS:
        return None
    if value.lower() == "mem":
        return Telemetry()
    return Telemetry(sink=JsonlSink(value))


def configure(telemetry: Telemetry | None) -> Telemetry | None:
    """Install the process-global ambient trace (the CLI ``--trace`` path).

    ``None`` disables tracing: ``REPRO_TELEMETRY`` is not consulted until
    :func:`shutdown` or :func:`reset`, and a trace it already opened is
    closed.
    """
    global _ambient, _from_env
    if isinstance(_from_env, Telemetry):
        _from_env.close()
    _ambient = telemetry
    _from_env = None
    return telemetry


def resolve(telemetry: Telemetry | None = None) -> Telemetry | None:
    """The active trace: explicit arg > :func:`configure` > environment.

    Returns ``None`` in disabled mode.  The environment variable is
    read once per process and cached (call :func:`reset` in tests to
    re-read it).
    """
    if telemetry is not None:
        return telemetry
    if _ambient is not None:
        return _ambient
    global _from_env
    if _from_env is _ENV_UNREAD:
        _from_env = parse_setting(os.environ.get("REPRO_TELEMETRY", "off"))
    return _from_env  # type: ignore[return-value]


def shutdown() -> None:
    """Close and forget the ambient trace (CLI end-of-run hook)."""
    global _ambient, _from_env
    if _ambient is not None:
        _ambient.close()
    if isinstance(_from_env, Telemetry):
        _from_env.close()
    _ambient = None
    _from_env = _ENV_UNREAD


def reset() -> None:
    """Drop all ambient state without flushing (test isolation hook)."""
    global _ambient, _from_env
    _ambient = None
    _from_env = _ENV_UNREAD
